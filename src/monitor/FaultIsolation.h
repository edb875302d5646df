//===- monitor/FaultIsolation.h - Monitor fault boundaries ------*- C++ -*-===//
///
/// \file
/// Fault isolation for monitor hooks. Theorem 7.7 guarantees that a
/// *well-behaved* monitor cannot change the program's answer; this layer
/// extends the guarantee to monitors that misbehave: a `pre`/`post` hook
/// that throws is caught at the hook boundary, the fault is recorded, and a
/// per-monitor policy decides what happens next —
///
///   * Quarantine (default): the offending monitor's hooks are skipped for
///     the rest of the run. For that monitor the derived semantics
///     degenerates to the oblivious functional G_obl of Definition 7.1, so
///     the run still produces the standard answer; the *other* monitors in
///     the cascade keep their probes and their states.
///   * Abort: the fault terminates the run with an error (for monitors
///     whose output is worthless unless complete).
///   * RetryThenQuarantine: the hook is re-invoked against a small error
///     budget before the monitor is quarantined (for monitors with
///     transient failures, e.g. flaky I/O in their own state).
///
/// This is the in-process realization of running monitors "in a separate
/// process" (Jahier & Ducassé) with explicit monitor-failure transitions
/// (Inoue & Yamagata): the hook boundary is the process boundary, and a
/// fault is an observable event in the run's result (MonitorFaults), never
/// a crash of the monitored program.
///
/// `FaultIsolator` is evaluator-agnostic: RuntimeCascade (CEK machine and
/// bytecode VM), the direct CPS interpreter's deriveMonitoring, and
/// ImpRuntimeCascade all guard their hook invocations through it.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITOR_FAULTISOLATION_H
#define MONSEM_MONITOR_FAULTISOLATION_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace monsem {

/// What to do when a monitor's hook throws.
enum class FaultPolicy : uint8_t { Quarantine, Abort, RetryThenQuarantine };

const char *faultPolicyName(FaultPolicy P);

/// Parses "quarantine" / "abort" / "retry"; returns false on anything else.
bool parseFaultPolicy(std::string_view Name, FaultPolicy &Out);

/// One recorded monitor fault: which monitor, at which probe site, at which
/// step, and what it threw.
struct MonitorFault {
  unsigned MonitorIndex = 0;  ///< Index within its cascade.
  std::string MonitorName;
  std::string Site;           ///< Annotation text of the probe, e.g. "{fac}";
                              ///< rendered only when the fault happens.
  bool InPost = false;        ///< Probe side: updPre (false) or updPost.
  uint64_t Step = 0;          ///< Evaluator step count at fault time.
  std::string Message;        ///< what() of the escaped exception.
  bool Quarantined = false;   ///< Whether this fault tripped quarantine.

  /// "monitor 'prof' fault in pre at {fac} (step 12): boom [quarantined]"
  std::string str() const;
};

/// Raised out of a fault boundary when the faulting monitor's policy is
/// FaultPolicy::Abort; evaluators catch it at the run loop and report an
/// error outcome.
class MonitorAbort : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Per-run quarantine + fault bookkeeping for one cascade. See file
/// comment.
class FaultIsolator {
public:
  FaultIsolator() = default;

  /// Arms the isolator for \p NumMonitors monitors with the run-wide
  /// default policy and retry budget (faults tolerated per monitor before
  /// RetryThenQuarantine quarantines it).
  void configure(unsigned NumMonitors, FaultPolicy Default,
                 unsigned RetryBudget);

  /// Per-monitor policy override (from Cascade::use(M, Policy)).
  void setPolicy(unsigned Idx, FaultPolicy P);

  bool quarantined(unsigned Idx) const {
    return Idx < Slots.size() && Slots[Idx].Quarantined;
  }

  /// Runs \p Hook inside the fault boundary for monitor \p Idx. A hook of
  /// a quarantined monitor is skipped. Anything the hook throws is caught
  /// and handled per the monitor's policy; only MonitorAbort (policy
  /// Abort) propagates to the caller.
  ///
  /// \p Site is a callable returning the probe's annotation text (the
  /// fault's MonitorFault::Site). It is called only when the hook faults,
  /// so a probe that does not fault formats nothing.
  template <typename SiteFn, typename Fn>
  void guard(unsigned Idx, std::string_view Name, SiteFn &&Site, bool InPost,
             uint64_t Step, Fn &&Hook) {
    if (quarantined(Idx))
      return;
    while (true) {
      try {
        Hook();
        return;
      } catch (const std::exception &E) {
        if (!onFault(Idx, Name, Site(), InPost, Step, E.what()))
          return;
      } catch (...) {
        if (!onFault(Idx, Name, Site(), InPost, Step,
                     "non-standard exception"))
          return;
      }
    }
  }

  const std::vector<MonitorFault> &faults() const { return Faults; }
  std::vector<MonitorFault> takeFaults() { return std::move(Faults); }

private:
  /// Records the fault and applies the policy. Returns true to retry the
  /// hook, false to skip it and continue the run; throws MonitorAbort
  /// under FaultPolicy::Abort.
  bool onFault(unsigned Idx, std::string_view Name, std::string Site,
               bool InPost, uint64_t Step, std::string Message);

  struct Slot {
    FaultPolicy Policy = FaultPolicy::Quarantine;
    unsigned Budget = 0; ///< Remaining retries (RetryThenQuarantine).
    bool Quarantined = false;
  };

  std::vector<Slot> Slots;
  std::vector<MonitorFault> Faults;
};

} // namespace monsem

#endif // MONSEM_MONITOR_FAULTISOLATION_H
