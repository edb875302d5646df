//===- server/Session.h - Stable embedding API for monitored runs -*- C++ -*-===//
///
/// \file
/// The embedding API `monsem serve` and the CLI are both built on: a
/// `Session` owns a fixed pool of worker threads and multiplexes any number
/// of submitted runs across them by time-slicing.
///
/// Each scheduler quantum is one `evaluate(mode & maxSteps(quantum) &
/// checkpointInto(...))` call; when the quantum expires the run's
/// checkpoint is captured, the run is requeued, and the next worker to
/// pick it up resumes with `resumeFrom` — possibly a different thread than
/// the one that started it. Because checkpoints record exact transition
/// boundaries (support/Checkpoint.h) and resumed runs re-execute from
/// SavedSteps+1, a sliced run's answer, cumulative step count and probe
/// event stream are byte-identical to an uninterrupted run.
///
/// A `RunHandle` is the caller's view of one submitted run:
///
///   Session S({.Workers = 4, .QuantumSteps = 1 << 16});
///   RunHandle H = S.submit(profiler & maxSteps(1'000'000), P.root());
///   RunResult R = H.outcome();   // blocks until the run finishes
///
/// pause()/resume() park a run at the next governor boundary (checkpointed,
/// off the queue) and put it back; cancel() finishes it with
/// Outcome::Cancelled. Preemption rides the governor's one-compare hot
/// loop via ResourceLimits::PreemptFlag, so an idle flag costs nothing.
///
/// **Fair-share scheduling.** Runs are queued per *tenant* (an opaque
/// string chosen at submit; the empty string is the default tenant) and
/// dispatched by deficit round robin: each visit of the rotation grants a
/// tenant one quantum of credit, a dispatch spends one, and the unspent
/// remainder of a short slice is refunded (capped at a few quanta so an
/// idle tenant cannot hoard a burst). One tenant with a thousand queued
/// runs therefore delays another tenant's first slice by at most a
/// rotation, not by a thousand quanta — the single-FIFO convoy is gone.
///
/// **Admission control.** `Config::MaxLiveRuns` / `MaxLivePerTenant` bound
/// the unfinished-run population; `submit` with an `AdmitErr` out-param
/// enforces them and returns an invalid handle instead of queueing
/// unboundedly (recovery and embedders that pre-check with `admissible()`
/// pass nullptr to bypass).
///
/// **Memory-pressure eviction.** Between slices a preempted run *is* its
/// checkpoint, so when the cumulative resident checkpoint bytes exceed
/// `Config::MaxResidentBytes` the session parks the coldest queued/paused
/// runs out to per-run journal files under `Config::ParkDir` (checkpoint
/// appended, in-memory machine freed) and restores them transparently when
/// a worker next picks them up. Parking is invisible to outcomes: restore
/// resumes from the identical checkpoint bytes, so answers, step counts
/// and probe streams stay byte-identical to an unevicted (or standalone)
/// run.
///
/// With `Workers = 1, QuantumSteps = 0` a Session degenerates to a plain
/// synchronous `evaluate()` — that configuration is exactly what the CLI
/// uses, so the flag surface and the server cannot skew.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SERVER_SESSION_H
#define MONSEM_SERVER_SESSION_H

#include "interp/Eval.h"
#include "support/Thread.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace monsem {

/// Observer callbacks for one run. All of them fire on worker threads; the
/// embedder is responsible for its own synchronization (the server routes
/// them through a mutex-guarded JSONL writer).
struct RunEvents {
  /// Every probe event, as (cumulative step, canonical journal text) — the
  /// same text JournalingHooks writes, so streamed and journaled event
  /// sequences are byte-identical.
  std::function<void(uint64_t Step, const std::string &Text)> OnProbe;
  /// A checkpoint was captured at a park/requeue boundary; \p Steps is the
  /// checkpoint's SavedSteps (completed transitions).
  std::function<void(uint64_t Steps)> OnCheckpoint;
  /// The run reached a final outcome. Fires exactly once, before outcome()
  /// unblocks; the result reference is valid for the duration of the call.
  std::function<void(const RunResult &R)> OnFinish;
};

namespace detail {

/// Shared state of one submitted run. Lifecycle:
///
///   Queued -> Running -> { Queued (quantum expired, requeued)
///                        | Paused (pause() honored at a boundary)
///                        | Done   (final outcome) }
///
/// orthogonally, a Queued/Paused run with a checkpoint may be Parked
/// (checkpoint spilled to disk, machine freed); the next slice restores
/// it before resuming. Guarded by M except SliceStop, which the governor
/// polls lock-free.
struct RunState {
  enum class Phase : uint8_t { Queued, Running, Paused, Done };

  uint64_t Id = 0;
  EvalMode Mode;              ///< As submitted (user limits, sinks, cascade).
  const Expr *Program = nullptr;
  RunEvents Ev;
  std::string Tenant;         ///< Fair-share queue key; immutable.

  std::mutex M;
  std::condition_variable CV; ///< Signaled on Done.
  Phase Ph = Phase::Queued;
  bool CancelRequested = false;
  bool PauseRequested = false;
  /// Scheduler preemption flag, wired as ResourceLimits::PreemptFlag for
  /// the duration of each slice.
  std::atomic<bool> SliceStop{false};

  /// Latest checkpoint (requeue/park resume point). Valid iff HasCK.
  Checkpoint CK;
  bool HasCK = false;
  /// Checkpoint spilled to ParkPath by memory-pressure eviction; CK is
  /// empty until the next slice restores it.
  bool Parked = false;
  std::string ParkPath;
  /// CK's serialized size, as charged against Session::MaxResidentBytes.
  uint64_t ResidentBytes = 0;
  /// Global slice sequence number of this run's last slice (0 = never
  /// ran); eviction parks the lowest first — coldest-out. Atomic because
  /// maybeEvict() sorts a registry snapshot by it without taking every
  /// run's lock; it is a heuristic, so relaxed reads are fine.
  std::atomic<uint64_t> LastSliceSeq{0};
  /// Completed transitions so far (CK.header().SavedSteps once HasCK).
  uint64_t DoneSteps = 0;
  /// Step count at submit (0, or the resume checkpoint's SavedSteps):
  /// fuel budgets measure steps *since submit*, matching the standalone
  /// rule that a resumed run gets a fresh budget.
  uint64_t BaseSteps = 0;
  /// Wall-clock submit time; per-slice deadlines subtract elapsed time so
  /// a sliced run's total deadline matches an uninterrupted one.
  std::chrono::steady_clock::time_point Start;

  RunResult Result;
  bool HasResult = false;
};

} // namespace detail

class Session;

/// The caller's handle on one submitted run. Copyable; all copies refer to
/// the same run.
class RunHandle {
public:
  RunHandle() = default;

  bool valid() const { return S != nullptr; }
  uint64_t id() const { return S ? S->Id : 0; }

  /// Requests a park at the next governor boundary: the run checkpoints,
  /// leaves the queue, and holds until resume(). No-op on finished runs.
  void pause();

  /// Puts a paused run back on the queue. No-op unless paused.
  void resume();

  /// Finishes the run with Outcome::Cancelled (honored at the next
  /// governor boundary if it is mid-slice). No-op on finished runs.
  void cancel();

  /// True once the run has a final outcome.
  bool done() const;

  /// Blocks until the run finishes and moves the result out. Single-shot:
  /// a second call returns an empty error result.
  RunResult outcome();

private:
  friend class Session;
  RunHandle(Session *Sess, std::shared_ptr<detail::RunState> S)
      : Sess(Sess), S(std::move(S)) {}

  Session *Sess = nullptr;
  std::shared_ptr<detail::RunState> S;
};

/// A fixed worker pool multiplexing monitored runs by time-slicing. See
/// the file comment for the model.
class Session {
public:
  struct Config {
    /// Worker threads. 0 is clamped to 1.
    unsigned Workers = 1;
    /// Scheduler quantum in machine transitions; 0 = run every slice to
    /// completion (no preemptive multiplexing, cancel/pause still work).
    /// Runs on the Direct backend are never sliced — the definitional
    /// interpreter cannot checkpoint.
    uint64_t QuantumSteps = 0;
    /// Admission caps on unfinished runs, total and per tenant; 0 = no
    /// cap. Enforced only for submits that pass an AdmitErr out-param.
    uint64_t MaxLiveRuns = 0;
    uint64_t MaxLivePerTenant = 0;
    /// Memory-pressure eviction: when the summed serialized size of
    /// resident run checkpoints exceeds this, the coldest queued/paused
    /// runs are parked to ParkDir. 0 (or an empty ParkDir) disables
    /// eviction.
    uint64_t MaxResidentBytes = 0;
    /// Directory for park journals (`run-<id>.park`); must exist.
    std::string ParkDir;
  };

  /// One tenant's accounting row, as surfaced by the daemon's `status`.
  struct TenantStats {
    std::string Tenant;  ///< "" is the default tenant.
    uint64_t Queued = 0; ///< Runs waiting for a worker.
    uint64_t Active = 0; ///< Runs executing a slice right now.
    uint64_t Live = 0;   ///< Unfinished runs (queued + active + paused).
    uint64_t UserSteps = 0; ///< Durable transitions credited to the tenant.
    uint64_t Evicted = 0;   ///< Times one of its runs was parked to disk.
    uint64_t Done = 0;      ///< Finished runs.
  };

  Session() : Session(Config{}) {}
  explicit Session(Config Cfg);

  /// Cancels every unfinished run, drains the queue and joins the workers.
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Submits a run under \p Tenant's fair-share queue ("" = the default
  /// tenant). The program, the monitors referenced by the mode's cascade,
  /// and anything the mode's sinks capture must outlive the run (i.e.
  /// until done() or outcome()). Thread-safe.
  ///
  /// When \p AdmitErr is non-null the admission caps are enforced: an
  /// over-cap submit returns an invalid handle with *AdmitErr set.
  /// Passing nullptr bypasses admission (crash recovery must readmit its
  /// own runs unconditionally).
  RunHandle submit(EvalMode Mode, const Expr *Program, RunEvents Ev = {},
                   std::string Tenant = {}, std::string *AdmitErr = nullptr);

  /// Whether a submit for \p Tenant would currently pass admission. A
  /// pre-check for callers that must do work (persist a durable request)
  /// before submitting; exact only while the caller is the sole
  /// submitter.
  bool admissible(const std::string &Tenant, std::string *Why = nullptr) const;

  unsigned workers() const { return NumWorkers; }
  uint64_t quantumSteps() const { return Quantum; }

  /// Runs currently queued, running or paused (not yet Done).
  uint64_t liveRuns() const { return Live.load(std::memory_order_relaxed); }

  /// Runs executing a slice on a worker right now.
  uint64_t activeRuns() const {
    return ActiveSlices.load(std::memory_order_relaxed);
  }

  /// Runs waiting in the scheduler queues for a worker.
  uint64_t queuedRuns() const {
    std::lock_guard<std::mutex> L(QM);
    return QueuedCount;
  }

  /// Cumulative user-program transitions completed across all runs (the
  /// machine's step counter, summed over every slice that made durable
  /// progress — re-executed work after a checkpoint-less preemption is not
  /// double-counted). The daemon's status report derives steps/sec from
  /// this.
  uint64_t totalUserSteps() const {
    return UserSteps.load(std::memory_order_relaxed);
  }

  /// Summed serialized size of in-memory run checkpoints (the eviction
  /// pressure gauge).
  uint64_t residentBytes() const {
    return Resident.load(std::memory_order_relaxed);
  }

  /// Times any run was parked to disk by memory pressure.
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

  /// Per-tenant accounting rows, sorted by tenant id. Tenants persist
  /// after their runs finish so `status` keeps reporting them.
  std::vector<TenantStats> tenantStats() const;

private:
  friend class RunHandle;
  using RunStatePtr = std::shared_ptr<detail::RunState>;

  /// One tenant's scheduler state. Guarded by QM.
  struct TenantState {
    std::deque<RunStatePtr> Q;
    uint64_t Deficit = 0; ///< Unspent dispatch credit, in quantum steps.
    bool InRR = false;    ///< Present in the RR rotation.
    uint64_t LiveRuns = 0;
    uint64_t Active = 0;
    uint64_t Steps = 0;
    uint64_t Evicted = 0;
    uint64_t Done = 0;
  };

  void enqueue(RunStatePtr R);
  void pushLocked(RunStatePtr R);            ///< Caller holds QM.
  RunStatePtr popNextLocked();               ///< Caller holds QM. DRR pick.
  bool admissibleLocked(const std::string &Tenant, std::string *Why) const;
  void workerLoop();
  /// Runs one scheduler quantum of \p R and dispatches on how it stopped.
  void runSlice(RunStatePtr R);
  /// Finalizes \p R with \p Res. Caller holds R.M with Ph != Done.
  void finish(detail::RunState &R, RunResult Res);
  /// Credits \p Delta durable steps to \p R's tenant and refunds unspent
  /// quantum. Caller holds R.M (QM is taken inside; QM is a leaf).
  void creditSteps(detail::RunState &R, uint64_t Delta);
  /// Re-points the resident-bytes gauge at \p R's new checkpoint size.
  /// Caller holds R.M.
  void setResidentLocked(detail::RunState &R, uint64_t Bytes);
  /// Spills R.CK to its park journal and frees it. Caller holds R.M with
  /// HasCK. False (run stays resident) if the spill fails.
  bool parkLocked(detail::RunState &R);
  /// Reloads a parked checkpoint. Caller holds R.M with Parked.
  bool restoreLocked(detail::RunState &R);
  /// Parks coldest runs while resident bytes exceed the cap. Lock-free
  /// entry; takes QM then per-run M.
  void maybeEvict();

  unsigned NumWorkers;
  uint64_t Quantum;
  uint64_t MaxLiveRuns;
  uint64_t MaxLivePerTenant;
  uint64_t MaxResidentBytes;
  std::string ParkDir;
  std::atomic<uint64_t> Live{0};
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> ActiveSlices{0};
  std::atomic<uint64_t> UserSteps{0};
  std::atomic<uint64_t> Resident{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> SliceSeq{0};

  mutable std::mutex QM;
  std::condition_variable QCV;
  /// Fair-share state: per-tenant queues (never erased — stats persist)
  /// and the DRR rotation over tenants with queued runs.
  std::map<std::string, TenantState> Tenants;
  std::vector<std::string> RR;
  size_t RRPos = 0;
  size_t QueuedCount = 0;
  /// Every submitted run (weak, compacted as runs finish); the destructor
  /// uses it to cancel whatever is still live, eviction to find cold runs.
  std::vector<std::weak_ptr<detail::RunState>> AllRuns;
  bool Stopping = false;

  /// Created with programThreadStackBytes() of stack (support/Thread.h).
  std::vector<StackThread> Workers;
};

} // namespace monsem

#endif // MONSEM_SERVER_SESSION_H
