//===- support/Governor.h - Resource limits for evaluators ------*- C++ -*-===//
///
/// \file
/// A uniform resource-governance layer shared by every evaluator (the CEK
/// machine, the direct CPS interpreter, the bytecode VMs, and the
/// imperative machine).
///
/// The paper's soundness theorem (Thm. 7.7) speaks about runs that reach an
/// answer; a production monitoring runtime also has to deal with runs that
/// must be *stopped* — runaway recursion, unbounded allocation, a deadline,
/// or an operator pressing Ctrl-C. `ResourceLimits` declares the budget and
/// `Governor` enforces it with a hot-loop cost of a single integer compare
/// per machine step:
///
///   if (Steps >= Gov.nextPause()) { Outcome O = Gov.pause(...); ... }
///
/// `nextPause()` is the earliest step at which anything could need
/// checking: the fuel limit (exact, so `MaxSteps` semantics are bit-for-bit
/// what they were before the governor existed) or the next periodic
/// checkpoint (`CheckInterval` steps) for the clock, the cancellation flag,
/// the arena cap and the depth bound. With no limits set, nextPause() is
/// UINT64_MAX and the loop never leaves the fast path.
///
/// Determinism: step, depth and memory outcomes are functions of the step
/// schedule only, so repeated runs of the same program under the same
/// limits stop with the identical Outcome and step count. Deadline and
/// cancellation outcomes are inherently wall-clock dependent and exempt.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_GOVERNOR_H
#define MONSEM_SUPPORT_GOVERNOR_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace monsem {

/// How a run ended. `Ok` and `Error` are the paper's two answers (a value
/// or wrong); the rest are governance stops, so drivers can distinguish "the
/// program misbehaved" from "we cut the program off".
enum class Outcome : uint8_t {
  Ok,             ///< Final answer produced.
  Error,          ///< Program (or aborting monitor) error.
  FuelExhausted,  ///< Step limit hit.
  Deadline,       ///< Wall-clock deadline passed.
  MemoryExceeded, ///< Arena byte cap exceeded.
  DepthExceeded,  ///< Continuation/recursion depth bound exceeded.
  Cancelled,      ///< Cooperative cancellation flag was raised.
};

const char *outcomeName(Outcome O);

/// The process exit code (and JSONL `exit_code` field) for each outcome:
/// 0 ok, 2 error, 3 fuel-exhausted, 4 deadline, 5 memory-exceeded,
/// 6 cancelled, 7 depth-exceeded. Exit code 1 is reserved for driver I/O
/// failures (unreadable input, bad flags), so it is not in this table. The
/// CLI and `monsem serve` both map through here — the two surfaces cannot
/// skew.
int exitCodeFor(Outcome O);

/// True for the outcomes imposed by the governor rather than produced by
/// the program.
inline bool isGovernanceStop(Outcome O) {
  return O != Outcome::Ok && O != Outcome::Error;
}

/// Declarative resource budget for one run. All limits are off by default
/// (0 / null = unlimited).
struct ResourceLimits {
  /// Step limit; each machine transition (or valuation call, for the
  /// direct interpreter) costs one unit. Supersedes the legacy
  /// RunOptions::MaxSteps when nonzero.
  uint64_t MaxSteps = 0;
  /// Wall-clock deadline in milliseconds from the start of the run,
  /// checked every CheckInterval steps.
  uint64_t DeadlineMs = 0;
  /// Cap on cumulative arena bytes. Checked at checkpoints and enforced as
  /// a hard cap inside the Arena itself (Arena::setByteLimit), so a single
  /// step that allocates wildly cannot blow past it.
  uint64_t MaxArenaBytes = 0;
  /// Bound on the evaluator's dynamic depth (continuation chain on the CEK
  /// machine, call frames on the VM, recursion depth on the imperative
  /// expression evaluator). Checked at checkpoints, so runs may overshoot
  /// by at most CheckInterval frames before stopping.
  uint64_t MaxDepth = 0;
  /// Steps between deadline/cancellation/memory/depth checks; keeps the
  /// hot loop at one compare per step. 0 means the default (1024).
  uint32_t CheckInterval = 0;
  /// Cooperative cancellation: the run stops with Outcome::Cancelled at
  /// the next checkpoint after the flag becomes true. The pointee must
  /// outlive the run (monsem_cli wires this to SIGINT).
  std::atomic<bool> *CancelFlag = nullptr;
  /// Scheduler preemption: a second cancellation channel owned by an
  /// embedding scheduler (server/Session.h) rather than the user, so a
  /// time-slicing host can yank a run off a worker without clobbering the
  /// user's CancelFlag. Raises Outcome::Cancelled exactly like CancelFlag;
  /// the scheduler disambiguates park-vs-cancel from its own bookkeeping.
  /// The pointee must outlive the run.
  std::atomic<bool> *PreemptFlag = nullptr;

  bool any() const {
    return MaxSteps || DeadlineMs || MaxArenaBytes || MaxDepth || CancelFlag ||
           PreemptFlag;
  }
};

/// Per-run enforcement of a ResourceLimits. See file comment for the
/// protocol; evaluators own one Governor per run.
class Governor {
public:
  static constexpr uint32_t kDefaultCheckInterval = 1024;

  /// \p LegacyMaxSteps is the pre-governor fuel field (RunOptions::MaxSteps
  /// and friends); it applies when Limits.MaxSteps is unset so existing
  /// drivers keep their exact semantics.
  ///
  /// \p StepBase is nonzero only for resumed runs: the machine's step
  /// counter continues from the checkpoint (so cumulative step counts match
  /// an uninterrupted run), while the budget is fresh — fuel measures
  /// `Steps - StepBase`, and checkpoint boundaries are relative to the
  /// resume point.
  ///
  /// \p CheckpointEvery (0 = off) schedules a checkpoint boundary every N
  /// steps; the machine polls takeCheckpointDue() after an Ok pause. Folding
  /// the boundary into the pause schedule keeps the hot loop at one compare
  /// per step whether or not checkpointing is armed.
  explicit Governor(const ResourceLimits &Limits, uint64_t LegacyMaxSteps = 0,
                    uint64_t StepBase = 0, uint64_t CheckpointEvery = 0)
      : L(Limits), Base(StepBase), CkptEvery(CheckpointEvery) {
    MaxSteps = L.MaxSteps ? L.MaxSteps : LegacyMaxSteps;
    Interval = L.CheckInterval ? L.CheckInterval : kDefaultCheckInterval;
    Periodic = L.DeadlineMs || L.MaxArenaBytes || L.MaxDepth || L.CancelFlag ||
               L.PreemptFlag;
    if (L.DeadlineMs)
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(L.DeadlineMs);
    if (CkptEvery)
      NextCkpt = Base + CkptEvery;
    NextPause = computeNextPause(Base);
  }

  /// The first step count at which pause() must run. UINT64_MAX when no
  /// limit is armed.
  uint64_t nextPause() const { return NextPause; }

  /// Arena byte cap to install on the run's arena (0 = none).
  uint64_t arenaByteCap() const { return L.MaxArenaBytes; }

  /// The slow path: run every limit check and reschedule. Returns
  /// Outcome::Ok to continue, or the stop reason. Deterministic checks
  /// (fuel, memory, depth) run before the wall-clock ones so that runs
  /// that can stop deterministically do.
  Outcome pause(uint64_t Steps, uint64_t ArenaBytes, uint64_t Depth) {
    if (MaxSteps && Steps - Base > MaxSteps)
      return Outcome::FuelExhausted;
    if (L.MaxArenaBytes && ArenaBytes > L.MaxArenaBytes)
      return Outcome::MemoryExceeded;
    if (L.MaxDepth && Depth > L.MaxDepth)
      return Outcome::DepthExceeded;
    if (L.CancelFlag && L.CancelFlag->load(std::memory_order_relaxed))
      return Outcome::Cancelled;
    if (L.PreemptFlag && L.PreemptFlag->load(std::memory_order_relaxed))
      return Outcome::Cancelled;
    if (L.DeadlineMs && std::chrono::steady_clock::now() >= Deadline)
      return Outcome::Deadline;
    if (CkptEvery && Steps >= NextCkpt) {
      CkptDue = true;
      while (NextCkpt <= Steps)
        NextCkpt += CkptEvery;
    }
    NextPause = computeNextPause(Steps);
    return Outcome::Ok;
  }

  /// True once per crossed checkpoint boundary; the machine emits a
  /// checkpoint when this fires. Self-clearing.
  bool takeCheckpointDue() {
    bool Due = CkptDue;
    CkptDue = false;
    return Due;
  }

private:
  uint64_t computeNextPause(uint64_t Steps) const {
    uint64_t N = UINT64_MAX;
    if (Periodic)
      N = Steps + Interval;
    // Fuel is exact: stop on the first step past the budget, exactly like
    // the pre-governor per-step check did.
    if (MaxSteps && MaxSteps != UINT64_MAX && Base + MaxSteps + 1 < N)
      N = Base + MaxSteps + 1;
    if (CkptEvery && NextCkpt < N)
      N = NextCkpt;
    return N;
  }

  ResourceLimits L;
  uint64_t MaxSteps = 0;
  uint64_t Base = 0;
  uint32_t Interval = kDefaultCheckInterval;
  bool Periodic = false;
  uint64_t NextPause = UINT64_MAX;
  uint64_t CkptEvery = 0;
  uint64_t NextCkpt = UINT64_MAX;
  bool CkptDue = false;
  std::chrono::steady_clock::time_point Deadline;
};

} // namespace monsem

#endif // MONSEM_SUPPORT_GOVERNOR_H
