//===- server/Session.cpp - Worker pool and run time-slicing --------------===//

#include "server/Session.h"

#include "support/Journal.h"

#include <algorithm>

#include <unistd.h>

using namespace monsem;
using detail::RunState;
using Phase = detail::RunState::Phase;

//===----------------------------------------------------------------------===//
// RunHandle
//===----------------------------------------------------------------------===//

void RunHandle::pause() {
  if (!S)
    return;
  std::lock_guard<std::mutex> L(S->M);
  if (S->Ph == Phase::Done)
    return;
  S->PauseRequested = true;
  S->SliceStop.store(true, std::memory_order_relaxed);
}

void RunHandle::resume() {
  if (!S)
    return;
  bool Requeue = false;
  {
    std::lock_guard<std::mutex> L(S->M);
    S->PauseRequested = false;
    if (S->Ph == Phase::Paused) {
      S->Ph = Phase::Queued;
      Requeue = true;
    }
  }
  if (Requeue)
    Sess->enqueue(S);
}

void RunHandle::cancel() {
  if (!S)
    return;
  bool Requeue = false;
  {
    std::lock_guard<std::mutex> L(S->M);
    if (S->Ph == Phase::Done)
      return;
    S->CancelRequested = true;
    S->SliceStop.store(true, std::memory_order_relaxed);
    // A paused run is off the queue; put it back so a worker finalizes it.
    if (S->Ph == Phase::Paused) {
      S->Ph = Phase::Queued;
      Requeue = true;
    }
  }
  if (Requeue)
    Sess->enqueue(S);
}

bool RunHandle::done() const {
  if (!S)
    return false;
  std::lock_guard<std::mutex> L(S->M);
  return S->Ph == Phase::Done;
}

RunResult RunHandle::outcome() {
  RunResult R;
  if (!S) {
    R.Error = "invalid run handle";
    return R;
  }
  std::unique_lock<std::mutex> L(S->M);
  S->CV.wait(L, [&] { return S->Ph == Phase::Done; });
  if (!S->HasResult) {
    R.Error = "run outcome already consumed";
    return R;
  }
  S->HasResult = false;
  return std::move(S->Result);
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(Config Cfg)
    : NumWorkers(Cfg.Workers ? Cfg.Workers : 1), Quantum(Cfg.QuantumSteps),
      MaxLiveRuns(Cfg.MaxLiveRuns), MaxLivePerTenant(Cfg.MaxLivePerTenant),
      MaxResidentBytes(Cfg.MaxResidentBytes), ParkDir(std::move(Cfg.ParkDir)) {
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back(programThreadStackBytes(), [this] { workerLoop(); });
}

Session::~Session() {
  std::vector<RunStatePtr> Drain;
  {
    std::lock_guard<std::mutex> L(QM);
    Stopping = true;
    for (const std::weak_ptr<RunState> &W : AllRuns)
      if (RunStatePtr R = W.lock())
        Drain.push_back(std::move(R));
  }
  // Mark every unfinished run cancelled; the workers drain the queues (the
  // pre-slice triage turns a cancelled pop into an immediate finish), so
  // even an unbounded run cannot wedge the join below past its next
  // governor boundary.
  for (const RunStatePtr &R : Drain) {
    std::lock_guard<std::mutex> L(R->M);
    if (R->Ph == Phase::Done)
      continue;
    R->CancelRequested = true;
    R->SliceStop.store(true, std::memory_order_relaxed);
    if (R->Ph == Phase::Paused) {
      R->Ph = Phase::Queued;
      std::lock_guard<std::mutex> QL(QM);
      pushLocked(R);
    }
  }
  QCV.notify_all();
  for (StackThread &T : Workers)
    T.join();
}

bool Session::admissibleLocked(const std::string &Tenant,
                               std::string *Why) const {
  if (MaxLiveRuns && Live.load(std::memory_order_relaxed) >= MaxLiveRuns) {
    if (Why)
      *Why = "session at max live runs";
    return false;
  }
  if (MaxLivePerTenant) {
    auto It = Tenants.find(Tenant);
    if (It != Tenants.end() && It->second.LiveRuns >= MaxLivePerTenant) {
      if (Why)
        *Why = "tenant at max live runs";
      return false;
    }
  }
  return true;
}

bool Session::admissible(const std::string &Tenant, std::string *Why) const {
  std::lock_guard<std::mutex> L(QM);
  return admissibleLocked(Tenant, Why);
}

RunHandle Session::submit(EvalMode Mode, const Expr *Program, RunEvents Ev,
                          std::string Tenant, std::string *AdmitErr) {
  auto R = std::make_shared<RunState>();
  R->Mode = std::move(Mode);
  R->Program = Program;
  R->Ev = std::move(Ev);
  R->Tenant = std::move(Tenant);
  R->Start = std::chrono::steady_clock::now();
  if (R->Mode.ResumeFrom) {
    // Own the resume point so requeued slices can overwrite it in place;
    // the caller's checkpoint need not outlive the run.
    R->CK = *R->Mode.ResumeFrom;
    R->HasCK = true;
    R->BaseSteps = R->DoneSteps = R->CK.header().SavedSteps;
    R->ResidentBytes = R->CK.bytes().size();
    R->Mode.ResumeFrom = nullptr;
  }
  {
    std::lock_guard<std::mutex> L(QM);
    if (AdmitErr && !admissibleLocked(R->Tenant, AdmitErr))
      return RunHandle();
    Live.fetch_add(1, std::memory_order_relaxed);
    Resident.fetch_add(R->ResidentBytes, std::memory_order_relaxed);
    R->Id = NextId.fetch_add(1, std::memory_order_relaxed);
    AllRuns.push_back(R);
    // Compact dead registry entries opportunistically so a long-lived
    // server's registry stays proportional to its live runs.
    if (AllRuns.size() > 64 && AllRuns.size() > 4 * Live.load()) {
      size_t Kept = 0;
      for (std::weak_ptr<RunState> &W : AllRuns)
        if (!W.expired())
          AllRuns[Kept++] = std::move(W);
      AllRuns.resize(Kept);
    }
    ++Tenants[R->Tenant].LiveRuns;
    pushLocked(R);
  }
  QCV.notify_one();
  maybeEvict(); // A resume-submit can push residency over the cap.
  return RunHandle(this, std::move(R));
}

void Session::pushLocked(RunStatePtr R) {
  TenantState &TS = Tenants[R->Tenant];
  if (!TS.InRR) {
    TS.InRR = true;
    RR.push_back(R->Tenant);
  }
  TS.Q.push_back(std::move(R));
  ++QueuedCount;
}

Session::RunStatePtr Session::popNextLocked() {
  if (QueuedCount == 0)
    return nullptr;
  // Deficit round robin with unknown per-slice costs: every slice is
  // charged one quantum up front (creditSteps refunds what it did not
  // use), and each rotation visit grants one quantum of credit, so
  // tenants with many short slices get proportionally more dispatches —
  // not proportionally more steps for whoever queues most.
  const uint64_t Cost = Quantum ? Quantum : 1;
  while (!RR.empty()) {
    if (RRPos >= RR.size())
      RRPos = 0;
    TenantState &TS = Tenants[RR[RRPos]];
    if (TS.Q.empty()) {
      // Tenant went idle: drop it from the rotation (and its credit — an
      // idle tenant must not bank a burst).
      TS.InRR = false;
      TS.Deficit = 0;
      RR.erase(RR.begin() + RRPos);
      continue;
    }
    if (TS.Deficit >= Cost) {
      TS.Deficit -= Cost;
      RunStatePtr R = std::move(TS.Q.front());
      TS.Q.pop_front();
      --QueuedCount;
      return R;
    }
    TS.Deficit += Cost;
    ++RRPos;
  }
  return nullptr;
}

void Session::enqueue(RunStatePtr R) {
  {
    std::lock_guard<std::mutex> L(QM);
    pushLocked(std::move(R));
  }
  QCV.notify_one();
}

void Session::workerLoop() {
  for (;;) {
    RunStatePtr R;
    {
      std::unique_lock<std::mutex> L(QM);
      QCV.wait(L, [&] { return Stopping || QueuedCount > 0; });
      R = popNextLocked();
      if (!R) {
        if (Stopping)
          return; // Stopping and drained.
        continue;
      }
    }
    runSlice(std::move(R));
  }
}

void Session::creditSteps(RunState &R, uint64_t Delta) {
  UserSteps.fetch_add(Delta, std::memory_order_relaxed);
  std::lock_guard<std::mutex> QL(QM);
  TenantState &TS = Tenants[R.Tenant];
  TS.Steps += Delta;
  const uint64_t Cost = Quantum ? Quantum : 1;
  if (Delta < Cost)
    TS.Deficit = std::min(TS.Deficit + (Cost - Delta), 8 * Cost);
}

void Session::setResidentLocked(RunState &R, uint64_t Bytes) {
  if (Bytes >= R.ResidentBytes)
    Resident.fetch_add(Bytes - R.ResidentBytes, std::memory_order_relaxed);
  else
    Resident.fetch_sub(R.ResidentBytes - Bytes, std::memory_order_relaxed);
  R.ResidentBytes = Bytes;
}

bool Session::parkLocked(RunState &R) {
  R.ParkPath = ParkDir + "/run-" + std::to_string(R.Id) + ".park";
  ::unlink(R.ParkPath.c_str());
  std::string Err;
  JournalOptions JO;
  JO.SyncOnCheckpoint = false; // Park files need no crash durability.
  std::unique_ptr<Journal> J = Journal::open(R.ParkPath, Err, JO);
  if (!J || !J->appendCheckpoint(R.CK.bytes())) {
    ::unlink(R.ParkPath.c_str());
    R.ParkPath.clear();
    return false; // Spill failed: the run simply stays resident.
  }
  J.reset(); // Close (and flush) before the checkpoint goes away.
  R.CK = Checkpoint();
  R.HasCK = false;
  R.Parked = true;
  setResidentLocked(R, 0);
  Evictions.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> QL(QM);
    ++Tenants[R.Tenant].Evicted;
  }
  return true;
}

bool Session::restoreLocked(RunState &R) {
  JournalRecovery Rec = recoverJournal(R.ParkPath);
  if (!Rec.Opened || Rec.LastCheckpoint.empty())
    return false;
  std::string Err;
  Checkpoint CK = Checkpoint::fromBytes(Rec.LastCheckpoint, Err);
  if (!CK.valid())
    return false;
  ::unlink(R.ParkPath.c_str());
  R.ParkPath.clear();
  R.Parked = false;
  R.CK = std::move(CK);
  R.HasCK = true;
  setResidentLocked(R, R.CK.bytes().size());
  return true;
}

void Session::maybeEvict() {
  if (!MaxResidentBytes || ParkDir.empty())
    return;
  if (Resident.load(std::memory_order_relaxed) <= MaxResidentBytes)
    return;
  // Snapshot the registry, then park coldest-first until back under the
  // cap. Races with other evictors or with a worker picking the run up
  // are settled by the per-run lock and the Parked/Phase recheck.
  std::vector<RunStatePtr> Cands;
  {
    std::lock_guard<std::mutex> L(QM);
    Cands.reserve(AllRuns.size());
    for (const std::weak_ptr<RunState> &W : AllRuns)
      if (RunStatePtr R = W.lock())
        Cands.push_back(std::move(R));
  }
  std::sort(Cands.begin(), Cands.end(),
            [](const RunStatePtr &A, const RunStatePtr &B) {
              return A->LastSliceSeq.load(std::memory_order_relaxed) <
                     B->LastSliceSeq.load(std::memory_order_relaxed);
            });
  for (const RunStatePtr &R : Cands) {
    if (Resident.load(std::memory_order_relaxed) <= MaxResidentBytes)
      break;
    std::lock_guard<std::mutex> L(R->M);
    if (R->Ph != Phase::Queued && R->Ph != Phase::Paused)
      continue;
    if (!R->HasCK || R->Parked || R->CancelRequested || R->ResidentBytes == 0)
      continue;
    parkLocked(*R);
  }
}

void Session::finish(RunState &R, RunResult Res) {
  // Caller holds R.M with Ph != Done.
  if (!R.ParkPath.empty()) {
    ::unlink(R.ParkPath.c_str());
    R.ParkPath.clear();
  }
  R.Parked = false;
  setResidentLocked(R, 0);
  {
    std::lock_guard<std::mutex> QL(QM);
    TenantState &TS = Tenants[R.Tenant];
    if (TS.LiveRuns)
      --TS.LiveRuns;
    ++TS.Done;
  }
  R.Result = std::move(Res);
  R.HasResult = true;
  R.Ph = Phase::Done;
  // OnFinish fires before the live count drops: a drainer that sees
  // liveRuns() == 0 may then rely on every outcome having been delivered
  // (e.g. queued to a client outbox) already.
  if (R.Ev.OnFinish)
    R.Ev.OnFinish(R.Result);
  Live.fetch_sub(1, std::memory_order_relaxed);
  R.CV.notify_all();
}

std::vector<Session::TenantStats> Session::tenantStats() const {
  std::vector<TenantStats> Out;
  std::lock_guard<std::mutex> L(QM);
  Out.reserve(Tenants.size());
  for (const auto &[Name, TS] : Tenants) {
    TenantStats Row;
    Row.Tenant = Name;
    Row.Queued = TS.Q.size();
    Row.Active = TS.Active;
    Row.Live = TS.LiveRuns;
    Row.UserSteps = TS.Steps;
    Row.Evicted = TS.Evicted;
    Row.Done = TS.Done;
    Out.push_back(std::move(Row));
  }
  return Out; // std::map iteration: already sorted by tenant id.
}

void Session::runSlice(RunStatePtr RP) {
  RunState &R = *RP;
  {
    std::unique_lock<std::mutex> L(R.M);
    if (R.Ph == Phase::Done)
      return;
    if (R.CancelRequested) {
      // Cancelled while queued or paused: finish without running (and
      // without restoring a parked checkpoint nobody will use).
      RunResult Res;
      Res.setOutcome(Outcome::Cancelled);
      Res.Steps = R.DoneSteps;
      finish(R, std::move(Res));
      return;
    }
    if (R.PauseRequested) {
      R.Ph = Phase::Paused; // Parked before the slice started.
      return;
    }
    if (R.Parked && !restoreLocked(R)) {
      RunResult Res;
      Res.setOutcome(Outcome::Error);
      Res.Error = "evicted run could not be restored from " + R.ParkPath;
      Res.Steps = R.DoneSteps;
      finish(R, std::move(Res));
      return;
    }
    R.Ph = Phase::Running;
    R.SliceStop.store(false, std::memory_order_relaxed);
  }

  // Perf counters: this run occupies a worker until runSlice returns, and
  // whatever durable progress the slice makes is credited against the
  // resume point it started from.
  const uint64_t Before = R.DoneSteps;
  ActiveSlices.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> QL(QM);
    ++Tenants[R.Tenant].Active;
  }
  struct SliceGuard {
    Session &S;
    RunState &R;
    ~SliceGuard() {
      S.ActiveSlices.fetch_sub(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> QL(S.QM);
      --S.Tenants[R.Tenant].Active;
    }
  } Guard{*this, R};

  // Assemble this quantum's mode from the submitted one.
  EvalMode Slice = R.Mode;
  Slice.Limits.PreemptFlag = &R.SliceStop;

  // Fuel: the user budget measures steps since submit (a resumed run gets
  // a fresh budget, matching the standalone rule), so the slice gets the
  // remaining budget — or one quantum, whichever is smaller. The Direct
  // backend cannot checkpoint and is never sliced.
  const uint64_t UserFuel = R.Mode.Limits.MaxSteps;
  const uint64_t Progress = R.DoneSteps - R.BaseSteps;
  const uint64_t Remaining =
      UserFuel ? (UserFuel > Progress ? UserFuel - Progress : 1) : 0;
  const bool CanSlice = Quantum != 0 && R.Mode.B != Backend::Direct;
  const bool QuantumLimited =
      CanSlice && (UserFuel == 0 || Quantum < Remaining);
  if (QuantumLimited)
    Slice.Limits.MaxSteps = Quantum;
  else if (UserFuel)
    Slice.Limits.MaxSteps = Remaining;

  // Deadline: wall clock is charged against the whole run, not per slice.
  if (uint64_t D = R.Mode.Limits.DeadlineMs) {
    auto ElapsedMs =
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                  std::chrono::steady_clock::now() - R.Start)
                                  .count());
    Slice.Limits.DeadlineMs = ElapsedMs >= D ? 1 : D - ElapsedMs;
  }

  if (R.HasCK)
    Slice.ResumeFrom = &R.CK;

  // Capture the freshest checkpoint the slice emits so a requeue or park
  // can resume from it; the user's sink (if any) still sees every one.
  Checkpoint Latest;
  bool Got = false;
  if (CanSlice || R.Mode.CheckpointSink) {
    Slice.CheckpointSink = [&Latest, &Got,
                            User = R.Mode.CheckpointSink](const Checkpoint &CK) {
      Latest = CK;
      Got = true;
      if (User)
        User(CK);
    };
    Slice.CheckpointOnStop = R.Mode.CheckpointOnStop || CanSlice;
  }

  // Probe taps compose: the scheduler never swallows the user's own sink.
  if (R.Ev.OnProbe) {
    Slice.EventSink = [Tap = R.Ev.OnProbe, User = R.Mode.EventSink](
                          uint64_t Step, const std::string &Text) {
      Tap(Step, Text);
      if (User)
        User(Step, Text);
    };
  }

  RunResult SR = evaluate(Slice, R.Program);

  std::unique_lock<std::mutex> L(R.M);
  R.LastSliceSeq.store(SliceSeq.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  if (Got) {
    R.CK = std::move(Latest);
    R.HasCK = true;
    setResidentLocked(R, R.CK.bytes().size());
  }
  if (R.Ph == Phase::Done)
    return; // Defensive; finish only happens here, under this lock.

  const bool Preempted = R.SliceStop.load(std::memory_order_relaxed);
  if (SR.St == Outcome::Cancelled && Preempted && !R.CancelRequested) {
    // The scheduler, not the user, stopped the slice.
    if (Got)
      R.DoneSteps = R.CK.header().SavedSteps;
    // else: no checkpoint was captured (Direct backend, or serialization
    // failed) — the run restarts from its previous resume point; the
    // machines are deterministic, so re-execution is exact.
    creditSteps(R, R.DoneSteps - Before);
    uint64_t At = R.DoneSteps;
    auto OnCk = (Got && R.Ev.OnCheckpoint) ? R.Ev.OnCheckpoint : nullptr;
    if (R.PauseRequested) {
      R.Ph = Phase::Paused;
      L.unlock();
      if (OnCk)
        OnCk(At);
      maybeEvict();
      return;
    }
    // A pause raced with a resume: neither request stands, keep going.
    R.Ph = Phase::Queued;
    L.unlock();
    if (OnCk)
      OnCk(At);
    enqueue(std::move(RP));
    maybeEvict();
    return;
  }
  if (SR.St == Outcome::FuelExhausted && QuantumLimited &&
      !R.CancelRequested) {
    // Quantum expired: checkpoint, requeue, let any worker resume it.
    if (Got)
      R.DoneSteps = R.CK.header().SavedSteps;
    creditSteps(R, R.DoneSteps - Before);
    R.Ph = Phase::Queued;
    uint64_t At = R.DoneSteps;
    auto OnCk = (Got && R.Ev.OnCheckpoint) ? R.Ev.OnCheckpoint : nullptr;
    L.unlock();
    if (OnCk)
      OnCk(At);
    enqueue(std::move(RP));
    maybeEvict();
    return;
  }
  // A cancel that lands just as the quantum expires: the slice reports
  // FuelExhausted, but that fuel limit was the scheduler's, not the
  // user's — the run is cancelled, not out of budget.
  if (SR.St == Outcome::FuelExhausted && QuantumLimited && R.CancelRequested)
    SR.setOutcome(Outcome::Cancelled);
  // Final: the program finished, errored, hit a user limit, or was
  // cancelled. Steps/states are cumulative (the machine continues the
  // counter across resumes), so the result matches an uninterrupted run.
  creditSteps(R, SR.Steps > Before ? SR.Steps - Before : 0);
  finish(R, std::move(SR));
}
