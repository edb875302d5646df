//===- interp/Eval.h - Top-level evaluation API ------------------*- C++ -*-===//
///
/// \file
/// The user-facing API. It mirrors the Haskell environment of Section 9.2,
/// where the user writes
///
///   evaluate (profile & debug & strict) prog
///
/// Here:
///
///   ParsedProgram P = parseOrError(src);
///   RunResult R = evaluate(profiler & debugger & kStrict, P.root());
///
/// `&` composes monitor specifications into a cascade (Section 6) and may
/// also select the evaluation strategy ("language module"), a resource
/// budget, a monitor fault policy, and the execution backend — each of
/// which composes like a strategy does:
///
///   evaluate(profiler & kStrict & deadlineMs(50) & kVM, P.root());
///   evaluate(tracer & maxSteps(100'000) & onMonitorFault(FaultPolicy::Abort),
///            P.root());
///
/// Every combination funnels into the one evaluate(EvalMode, Expr*) entry,
/// which assembles a single RunOptions (EvalMode::runOptions()) and routes
/// to the CEK machine, the bytecode VM, or the direct CPS interpreter.
/// Plain `evaluate(expr)` runs the standard semantics.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_INTERP_EVAL_H
#define MONSEM_INTERP_EVAL_H

#include "interp/Machine.h"
#include "monitor/Cascade.h"
#include "syntax/Parser.h"

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

namespace monsem {

/// A parsed program: the AST plus the context that owns it.
class ParsedProgram {
public:
  ParsedProgram() = default;
  ParsedProgram(const ParsedProgram &) = delete;
  ParsedProgram &operator=(const ParsedProgram &) = delete;

  /// Parses \p Source; on failure root() is null and diags() has errors.
  static std::unique_ptr<ParsedProgram> parse(std::string_view Source,
                                              ParseOptions Opts = {});

  const Expr *root() const { return Root; }
  bool ok() const { return Root != nullptr; }
  AstContext &context() { return Ctx; }
  const DiagnosticSink &diags() const { return Diags; }

private:
  AstContext Ctx;
  DiagnosticSink Diags;
  const Expr *Root = nullptr;
};

/// Strategy selectors composable with `&`.
struct StrategyTag {
  Strategy S;
};
inline constexpr StrategyTag kStrict{Strategy::Strict};
inline constexpr StrategyTag kByName{Strategy::CallByName};
inline constexpr StrategyTag kByNeed{Strategy::CallByNeed};

/// Which evaluator executes the program.
enum class Backend : uint8_t {
  CEK,        ///< The production CEK machine (all three strategies).
  VM,         ///< An alias of VMRegister (`--backend=vm`).
  VMRegister, ///< Compile, lower to the register tier, run (strict only).
  VMAot,      ///< Register tier + native code for leaf blocks (strict
              ///< only); degrades to VMRegister without a C compiler.
  Direct,     ///< The definitional CPS interpreter (all three strategies);
              ///< the reference oracle for the other backends.
};

/// Backend selectors composable with `&`.
struct BackendTag {
  Backend B;
};
inline constexpr BackendTag kCEK{Backend::CEK};
inline constexpr BackendTag kVM{Backend::VM};
inline constexpr BackendTag kVMReg{Backend::VMRegister};
inline constexpr BackendTag kVMAot{Backend::VMAot};
inline constexpr BackendTag kDirect{Backend::Direct};

/// A resource-limit fragment composable with `&`. Fragments merge
/// field-wise (nonzero wins), so `deadlineMs(50) & maxDepth(10'000)` arms
/// both limits.
struct LimitsTag {
  ResourceLimits L;
};
inline LimitsTag maxSteps(uint64_t N) {
  LimitsTag T;
  T.L.MaxSteps = N;
  return T;
}
inline LimitsTag deadlineMs(uint64_t Ms) {
  LimitsTag T;
  T.L.DeadlineMs = Ms;
  return T;
}
inline LimitsTag maxArenaBytes(uint64_t Bytes) {
  LimitsTag T;
  T.L.MaxArenaBytes = Bytes;
  return T;
}
inline LimitsTag maxDepth(uint64_t Depth) {
  LimitsTag T;
  T.L.MaxDepth = Depth;
  return T;
}
/// \p Flag must outlive the run (see ResourceLimits::CancelFlag).
inline LimitsTag cancelOn(std::atomic<bool> &Flag) {
  LimitsTag T;
  T.L.CancelFlag = &Flag;
  return T;
}

/// Resume selector composable with `&`: the run continues from \p CK
/// instead of starting fresh (CEK and VM backends only). The checkpoint
/// must outlive the evaluate() call.
struct ResumeTag {
  const Checkpoint *CK;
};
inline ResumeTag resumeFrom(const Checkpoint &CK) { return ResumeTag{&CK}; }

/// A checkpoint-capture fragment composable with `&`. Fragments merge
/// field-wise like limits do, so
/// `checkpointInto(sink) & checkpointEveryNSteps(1 << 16)` arms both the
/// stop-boundary checkpoint and the periodic schedule.
struct CheckpointTag {
  std::function<void(const Checkpoint &)> Sink;
  bool OnStop = false;
  uint64_t EveryNSteps = 0;
};
/// Deliver checkpoints to \p Sink; also arms the final checkpoint emitted
/// when the governor stops the run (fuel, deadline, memory, cancellation).
inline CheckpointTag
checkpointInto(std::function<void(const Checkpoint &)> Sink) {
  CheckpointTag T;
  T.Sink = std::move(Sink);
  T.OnStop = true;
  return T;
}
/// Emit a periodic checkpoint every \p N steps (needs a sink to go to).
inline CheckpointTag checkpointEveryNSteps(uint64_t N) {
  CheckpointTag T;
  T.EveryNSteps = N;
  return T;
}

/// Journal selector composable with `&`: every probe event is appended to
/// \p J (crash-safe, flushed per record) before the monitors see it. The
/// journal must outlive the run.
struct JournalTag {
  Journal *J;
};
inline JournalTag journalInto(Journal &J) { return JournalTag{&J}; }

/// An event-tap fragment composable with `&`: every probe event is handed
/// to \p Sink as (step, canonical journal text) before the monitors see
/// it. `monsem serve` streams these to clients; see RunOptions::EventSink.
struct EventsTag {
  std::function<void(uint64_t, const std::string &)> Sink;
};
inline EventsTag
eventsInto(std::function<void(uint64_t, const std::string &)> Sink) {
  return EventsTag{std::move(Sink)};
}

/// A monitor fault policy composable with `&` (run-wide default; per-
/// monitor overrides still come from Cascade::use(M, Policy)).
struct FaultPolicyTag {
  FaultPolicy P;
  unsigned RetryBudget;
};
inline FaultPolicyTag onMonitorFault(FaultPolicy P,
                                     unsigned RetryBudget = 3) {
  return FaultPolicyTag{P, RetryBudget};
}

/// A durability policy composable with `&`: what the run does when a
/// durable sink (journal append, checkpoint save) fails. See
/// support/Durability.h. `evaluate(profiler & journalInto(J) &
/// onDurabilityFailure(OnDurabilityFailure::Abort), p)`.
struct DurabilityPolicyTag {
  OnDurabilityFailure P;
  unsigned RetryBudget;
};
inline DurabilityPolicyTag onDurabilityFailure(OnDurabilityFailure P,
                                               unsigned RetryBudget = 3) {
  return DurabilityPolicyTag{P, RetryBudget};
}

/// A failpoint plan composable with `&`: installed (process-globally) by
/// the driver before the run starts. Spec syntax in support/FailPoint.h.
struct FailPointsTag {
  std::string Spec;
};
inline FailPointsTag failpointsSpec(std::string Spec) {
  return FailPointsTag{std::move(Spec)};
}

/// The argument of the paper's `evaluate (profile & debug & strict) prog`,
/// extended: a cascade plus everything else a run is configured with — the
/// strategy, the resource budget, the monitor fault policy, and the
/// backend. Built up by `&` from monitors and the tags above; every
/// ingredient is optional and later occurrences win.
struct EvalMode {
  Cascade C;
  Strategy Strat = Strategy::Strict;
  ResourceLimits Limits;
  Backend B = Backend::CEK;
  FaultPolicy MonitorFaultPolicy = FaultPolicy::Quarantine;
  unsigned MonitorRetryBudget = 3;
  const Checkpoint *ResumeFrom = nullptr;
  std::function<void(const Checkpoint &)> CheckpointSink;
  bool CheckpointOnStop = false;
  uint64_t CheckpointEveryNSteps = 0;
  std::function<void(uint64_t, const std::string &)> EventSink;
  Journal *RunJournal = nullptr;
  OnDurabilityFailure DurabilityPolicy = OnDurabilityFailure::RetryThenDegrade;
  unsigned DurabilityRetryBudget = 3;
  std::string FailPointSpec;
  /// Embedder-owned durability tracker (optional; the CLI installs one so
  /// the file sink it builds can report into it). Must outlive the run.
  DurabilityTracker *Durability = nullptr;
  /// Cache directory for vm-aot shared objects; "" selects the per-user
  /// default under TMPDIR (see compile/AotEmit.h).
  std::string AotCacheDir;

  EvalMode() = default;
  // Implicit conversions so any single ingredient is already a mode and
  // `&` chains can start from anything: evaluate(kVM, p),
  // evaluate(profiler & deadlineMs(50), p), ...
  EvalMode(const Monitor &M) { C.use(M); }
  EvalMode(Cascade C) : C(std::move(C)) {}
  EvalMode(StrategyTag T) : Strat(T.S) {}
  EvalMode(BackendTag T) : B(T.B) {}
  EvalMode(LimitsTag T) : Limits(T.L) {}
  EvalMode(FaultPolicyTag T)
      : MonitorFaultPolicy(T.P), MonitorRetryBudget(T.RetryBudget) {}
  EvalMode(ResumeTag T) : ResumeFrom(T.CK) {}
  EvalMode(CheckpointTag T)
      : CheckpointSink(std::move(T.Sink)), CheckpointOnStop(T.OnStop),
        CheckpointEveryNSteps(T.EveryNSteps) {}
  EvalMode(JournalTag T) : RunJournal(T.J) {}
  EvalMode(EventsTag T) : EventSink(std::move(T.Sink)) {}
  EvalMode(DurabilityPolicyTag T)
      : DurabilityPolicy(T.P), DurabilityRetryBudget(T.RetryBudget) {}
  EvalMode(FailPointsTag T) : FailPointSpec(std::move(T.Spec)) {}

  /// The one place an EvalMode becomes a RunOptions. The CLI and the
  /// embedded API both funnel through here, so flags and `&` chains cannot
  /// skew.
  RunOptions runOptions() const {
    RunOptions O;
    O.Strat = Strat;
    O.Limits = Limits;
    O.MonitorFaultPolicy = MonitorFaultPolicy;
    O.MonitorRetryBudget = MonitorRetryBudget;
    O.ResumeFrom = ResumeFrom;
    O.CheckpointSink = CheckpointSink;
    O.CheckpointOnStop = CheckpointOnStop;
    O.CheckpointEveryNSteps = CheckpointEveryNSteps;
    O.EventSink = EventSink;
    O.RunJournal = RunJournal;
    O.DurabilityPolicy = DurabilityPolicy;
    O.DurabilityRetryBudget = DurabilityRetryBudget;
    O.FailPointSpec = FailPointSpec;
    O.Durability = Durability;
    O.AotCacheDir = AotCacheDir;
    return O;
  }
};

namespace detail {
/// Field-wise merge: nonzero/non-null fields of \p From win.
inline void mergeLimits(ResourceLimits &Into, const ResourceLimits &From) {
  if (From.MaxSteps)
    Into.MaxSteps = From.MaxSteps;
  if (From.DeadlineMs)
    Into.DeadlineMs = From.DeadlineMs;
  if (From.MaxArenaBytes)
    Into.MaxArenaBytes = From.MaxArenaBytes;
  if (From.MaxDepth)
    Into.MaxDepth = From.MaxDepth;
  if (From.CheckInterval)
    Into.CheckInterval = From.CheckInterval;
  if (From.CancelFlag)
    Into.CancelFlag = From.CancelFlag;
  if (From.PreemptFlag)
    Into.PreemptFlag = From.PreemptFlag;
}
} // namespace detail

// `&` composition. The left operand may be anything EvalMode implicitly
// converts from, so chains can start with a monitor, a strategy, a limit,
// a fault policy, or a backend.
inline EvalMode operator&(EvalMode M, const Monitor &B) {
  M.C.use(B);
  return M;
}
inline EvalMode operator&(EvalMode M, StrategyTag T) {
  M.Strat = T.S;
  return M;
}
inline EvalMode operator&(EvalMode M, BackendTag T) {
  M.B = T.B;
  return M;
}
inline EvalMode operator&(EvalMode M, LimitsTag T) {
  detail::mergeLimits(M.Limits, T.L);
  return M;
}
inline EvalMode operator&(EvalMode M, FaultPolicyTag T) {
  M.MonitorFaultPolicy = T.P;
  M.MonitorRetryBudget = T.RetryBudget;
  return M;
}
inline EvalMode operator&(EvalMode M, ResumeTag T) {
  M.ResumeFrom = T.CK;
  return M;
}
inline EvalMode operator&(EvalMode M, CheckpointTag T) {
  if (T.Sink)
    M.CheckpointSink = std::move(T.Sink);
  M.CheckpointOnStop = M.CheckpointOnStop || T.OnStop;
  if (T.EveryNSteps)
    M.CheckpointEveryNSteps = T.EveryNSteps;
  return M;
}
inline EvalMode operator&(EvalMode M, JournalTag T) {
  M.RunJournal = T.J;
  return M;
}
inline EvalMode operator&(EvalMode M, EventsTag T) {
  M.EventSink = std::move(T.Sink);
  return M;
}
inline EvalMode operator&(EvalMode M, DurabilityPolicyTag T) {
  M.DurabilityPolicy = T.P;
  M.DurabilityRetryBudget = T.RetryBudget;
  return M;
}
inline EvalMode operator&(EvalMode M, FailPointsTag T) {
  M.FailPointSpec = std::move(T.Spec);
  return M;
}

/// Standard semantics: no monitoring, annotations skipped.
RunResult evaluate(const Expr *Program, RunOptions Opts = {});

/// The Section 9.2 spelling: the unified entry. Assembles RunOptions via
/// EvalMode::runOptions() and routes to the selected backend — the CEK
/// machine (MachineT::run), the bytecode compiler + register tier
/// (evaluateCompiled), or the direct CPS interpreter (runDirect). The VM
/// backends are strict-only; selecting one with a lazy strategy yields an
/// error result without running.
RunResult evaluate(const EvalMode &Mode, const Expr *Program);

/// Renders final monitor states like the paper does, one per line:
///   profiler: [fac -> 4, mul -> 3]
std::string describeStates(const Cascade &C, const RunResult &R);

} // namespace monsem

#endif // MONSEM_INTERP_EVAL_H
