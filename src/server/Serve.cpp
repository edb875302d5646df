//===- server/Serve.cpp - the `monsem serve` daemon ------------------------===//
//
// Wiring layers, top to bottom:
//
//   transport (LineChannel/Listener)  — bytes to lines
//   protocol  (parseRequest/Writer)   — lines to requests/responses
//   this file                         — requests to Session runs
//   Session                           — runs to governed evaluate() slices
//
// Response ordering invariants, per run: `accepted` (or `recovered`) is
// written before the run is submitted, so it precedes every probe batch;
// each `checkpoint` record is preceded by a flush of the probe buffer, so
// probes never appear after a checkpoint that covers them; `outcome` is
// last, after a final probe flush. Probe buffers are only ever touched by
// the worker currently running the run's slice (callbacks fire on worker
// threads, and a run is on at most one worker at a time), so they need no
// lock; the channel's writeLine is the single synchronization point.
//
// Socket transports run a poll-driven multiplexer: one serve thread polls
// the listener plus every client channel, ingests complete request lines,
// and drains bounded per-client outboxes. Workers enqueue responses into
// those outboxes through the channels' whole-line-atomic writeLine, so a
// client that stops reading stalls only its own bounded buffer — the
// serve thread and the worker pool never block on a peer. Hostile-client
// policies (request-size caps, slow-reader and idle disconnects,
// per-tenant admission) all live here, on top of Session's fair-share
// scheduler.
//
//===----------------------------------------------------------------------===//

#include "server/Serve.h"

#include "server/Protocol.h"
#include "server/Session.h"
#include "server/Transport.h"

#include "interp/Eval.h"
#include "monitors/AllocProfiler.h"
#include "monitors/CallGraph.h"
#include "monitors/Collecting.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Demon.h"
#include "monitors/FlightRecorder.h"
#include "monitors/Profiler.h"
#include "support/Governor.h"
#include "support/Journal.h"
#include "syntax/Annotator.h"
#include "syntax/Prelude.h"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace monsem;

namespace {

/// Everything owned on behalf of one served run: the parsed program (the
/// AST arena the run's Expr nodes live in), the monitor instances the
/// run's cascade references, the journal for durable runs, and the probe
/// batch buffer. Kept alive by the RunEvents closures until the outcome
/// record is written.
struct ServeRun {
  std::string Id;
  std::unique_ptr<ParsedProgram> P;
  const Expr *Program = nullptr;
  std::vector<std::unique_ptr<Monitor>> Owned;
  std::vector<std::string> MonitorNames; ///< Cascade order = outcome order.
  std::unique_ptr<Journal> J;            ///< Durable runs only.
  std::string ReqPath;    ///< Durable request file; unlinked at outcome.
  std::shared_ptr<LineChannel> Out; ///< Keeps the client channel alive.
  std::vector<std::pair<uint64_t, std::string>> Probes; ///< Worker-local.
  std::atomic<bool> Finished{false}; ///< Outcome written; sweepable.
};

/// A request limit clamped to the server's cap: tighter wins, and a
/// request cannot opt out of a cap by asking for 0 (unlimited).
uint64_t capLimit(uint64_t Requested, uint64_t Cap) {
  if (!Cap)
    return Requested;
  if (!Requested || Requested > Cap)
    return Cap;
  return Requested;
}

void emitError(LineChannel &Out, std::string_view Id, std::string_view Msg) {
  // Diagnostics often end in '\n'; the record is one line, so trim.
  while (!Msg.empty() && (Msg.back() == '\n' || Msg.back() == ' '))
    Msg.remove_suffix(1);
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("error");
  if (!Id.empty()) {
    W.key("id");
    W.str(Id);
  }
  W.key("message");
  W.str(Msg);
  W.endObject();
  Out.writeLine(W.take());
}

void flushProbes(ServeRun &R) {
  if (R.Probes.empty())
    return;
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("probes");
  W.key("id");
  W.str(R.Id);
  W.key("events");
  W.beginArray();
  for (const auto &[Step, Text] : R.Probes) {
    W.beginObject();
    W.key("step");
    W.num(Step);
    W.key("text");
    W.str(Text);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  R.Out->writeLine(W.take());
  R.Probes.clear();
}

void emitOutcome(ServeRun &R, const RunResult &Res) {
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("outcome");
  W.key("id");
  W.str(R.Id);
  W.key("outcome");
  W.str(outcomeName(Res.St));
  W.key("exit_code");
  W.num(static_cast<int64_t>(exitCodeFor(Res.St)));
  W.key("steps");
  W.num(Res.Steps);
  if (Res.St == Outcome::Ok) {
    W.key("value");
    W.str(Res.ValueText);
  } else if (!Res.Error.empty()) {
    W.key("error");
    W.str(Res.Error);
  }
  W.key("monitors");
  W.beginArray();
  for (size_t I = 0;
       I < R.MonitorNames.size() && I < Res.FinalStates.size(); ++I) {
    W.beginObject();
    W.key("name");
    W.str(R.MonitorNames[I]);
    W.key("state");
    W.str(Res.FinalStates[I]->str());
    W.endObject();
  }
  W.endArray();
  W.endObject();
  R.Out->writeLine(W.take());
}

bool writeFileAtomic(const std::string &Path, std::string_view Data,
                     std::string &Err) {
  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Err = "cannot create '" + Tmp + "'";
    return false;
  }
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t W = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Err = "write failed";
      ::close(Fd);
      ::unlink(Tmp.c_str());
      return false;
    }
    Off += static_cast<size_t>(W);
  }
  ::fsync(Fd);
  ::close(Fd);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "rename failed";
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The final line a slow reader sees before its connection is dropped
/// (queued by the channel itself when the outbox overflows).
std::string overflowNoticeLine() {
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("error");
  W.key("message");
  W.str("outbound queue overflowed (slow reader); disconnecting");
  W.endObject();
  return W.take();
}

class Server {
public:
  Server(const ServeOptions &O, std::string SpoolDir)
      : O(O), S(makeConfig(O, std::move(SpoolDir))) {}

  int run();

private:
  struct Entry {
    RunHandle H;
    std::shared_ptr<ServeRun> R;
  };

  /// One multiplexed socket client.
  struct Client {
    std::shared_ptr<LineChannel> Ch;
    std::string Tenant; ///< Default tenant: "c<conn#>".
    std::chrono::steady_clock::time_point LastActivity;
    /// Since when the outbox has been write-blocked without draining a
    /// byte; epoch (time_point{}) = not stalled.
    std::chrono::steady_clock::time_point StallSince{};
    bool ReadClosed = false; ///< Peer EOF; may still be reading outcomes.
    bool Drop = false;       ///< Reap at the end of the cycle.
  };

  static Session::Config makeConfig(const ServeOptions &O,
                                    std::string SpoolDir) {
    Session::Config C;
    C.Workers = O.Workers ? O.Workers : 1;
    C.QuantumSteps = O.QuantumSteps;
    C.MaxLiveRuns = O.MaxLiveRuns;
    C.MaxLivePerTenant = O.MaxRunsPerTenant;
    C.MaxResidentBytes = O.MaxResidentBytes;
    C.ParkDir = std::move(SpoolDir);
    return C;
  }

  bool interrupted() const { return O.Interrupt && O.Interrupt->load(); }
  bool stopRequested() const { return interrupted() || ShutdownReq; }

  void serveChannel(const std::shared_ptr<LineChannel> &Ch);
  void dispatch(const std::string &Line,
                const std::shared_ptr<LineChannel> &Ch,
                const std::string &DefaultTenant);
  void submitRun(const SubmitRequest &Req, const std::string &RawLine,
                 const std::shared_ptr<LineChannel> &Out,
                 const std::string &DefaultTenant, const Checkpoint *Resume,
                 uint64_t ResumeSteps);
  void recoverDurable(const std::shared_ptr<LineChannel> &Out);
  void emitStatus(LineChannel &Out);
  void emitOverloaded(LineChannel &Out, const std::string &Id,
                      const std::string &Tenant, const std::string &Why);
  void sweepFinished();
  void cancelAllLive();
  int drainAndExit(bool CancelAll, LineChannel &Out);

  int runMux(const std::shared_ptr<LineChannel> &Stdio, Listener &L);
  void serviceClient(Client &C);
  void reapClients(std::vector<Client> &Clients);
  int drainMux(std::vector<Client> &Clients, bool CancelAll,
               LineChannel &Stdio);

  const ServeOptions &O;
  /// Daemon start, for the status report's steps/sec rate.
  const std::chrono::steady_clock::time_point StartTime =
      std::chrono::steady_clock::now();
  std::mutex RM;
  std::map<std::string, Entry> Registry;
  std::atomic<uint64_t> DoneCount{0};
  uint64_t NextConn = 0;    ///< Serve thread only.
  bool ShutdownReq = false; ///< Main thread only.
  /// Declared last: destroyed first, so the worker pool is joined while
  /// the registry (and the ServeRuns its callbacks reference) still exist.
  Session S;
};

void Server::emitStatus(LineChannel &Out) {
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("status");
  W.key("live");
  W.num(S.liveRuns());
  W.key("done");
  W.num(DoneCount.load(std::memory_order_relaxed));
  W.key("workers");
  W.num(static_cast<uint64_t>(S.workers()));
  // Perf counters: scheduler occupancy and cumulative user-program
  // transitions, plus the average rate since the daemon started
  // (integer steps/sec — the counters are exact, the rate is a summary).
  W.key("active");
  W.num(S.activeRuns());
  W.key("queued");
  W.num(S.queuedRuns());
  uint64_t Steps = S.totalUserSteps();
  W.key("user_steps");
  W.num(Steps);
  auto ElapsedMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
  W.key("steps_per_sec");
  W.num(ElapsedMs ? Steps * 1000 / ElapsedMs : 0);
  // Memory pressure: summed serialized size of resident run checkpoints
  // (the --max-resident-bytes gauge) and how often eviction fired.
  W.key("resident_bytes");
  W.num(S.residentBytes());
  W.key("evictions");
  W.num(S.evictions());
  // Fair-share accounting, one row per tenant ever seen.
  W.key("tenants");
  W.beginArray();
  for (const Session::TenantStats &T : S.tenantStats()) {
    W.beginObject();
    W.key("tenant");
    W.str(T.Tenant);
    W.key("queued");
    W.num(T.Queued);
    W.key("active");
    W.num(T.Active);
    W.key("live");
    W.num(T.Live);
    W.key("user_steps");
    W.num(T.UserSteps);
    W.key("evicted");
    W.num(T.Evicted);
    W.key("done");
    W.num(T.Done);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  Out.writeLine(W.take());
}

void Server::emitOverloaded(LineChannel &Out, const std::string &Id,
                            const std::string &Tenant,
                            const std::string &Why) {
  // Backpressure, not failure: the client should retry after the hint.
  // The hint scales with queue depth per worker, capped so a client never
  // backs off absurdly far.
  uint64_t Queued = S.queuedRuns();
  uint64_t RetryMs = 100 * (1 + Queued / (S.workers() ? S.workers() : 1));
  RetryMs = std::min<uint64_t>(RetryMs, 5000);
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("overloaded");
  W.key("id");
  W.str(Id);
  W.key("tenant");
  W.str(Tenant);
  W.key("reason");
  W.str(Why);
  W.key("queued");
  W.num(Queued);
  W.key("retry_after_ms");
  W.num(RetryMs);
  W.endObject();
  Out.writeLine(W.take());
}

void Server::sweepFinished() {
  std::lock_guard<std::mutex> Lock(RM);
  for (auto It = Registry.begin(); It != Registry.end();) {
    if (It->second.R->Finished.load(std::memory_order_acquire))
      It = Registry.erase(It);
    else
      ++It;
  }
}

void Server::cancelAllLive() {
  // Copy the handles out under the lock, cancel without it: RunHandle
  // methods take the run's own mutex, and a worker's OnFinish callback
  // must never find this thread holding RM while it wants a run lock.
  std::vector<RunHandle> Handles;
  {
    std::lock_guard<std::mutex> Lock(RM);
    Handles.reserve(Registry.size());
    for (auto &[Id, E] : Registry)
      Handles.push_back(E.H);
  }
  for (RunHandle &H : Handles)
    H.cancel();
}

void Server::submitRun(const SubmitRequest &Req, const std::string &RawLine,
                       const std::shared_ptr<LineChannel> &Out,
                       const std::string &DefaultTenant,
                       const Checkpoint *Resume, uint64_t ResumeSteps) {
  // The client may name its tenant (a cooperating pool of connections);
  // an unnamed submit is billed to the connection's own tenant.
  const std::string Tenant = Req.Tenant.empty() ? DefaultTenant : Req.Tenant;

  // Admission, before any parsing or persistence: a rejected submit must
  // be cheap and leave no trace. Recovery resumes bypass admission — the
  // daemon readmits its own durable obligations unconditionally. The
  // dispatch thread is the only submitter, so the pre-check is exact.
  if (!Resume) {
    std::string Why;
    if (!S.admissible(Tenant, &Why)) {
      emitOverloaded(*Out, Req.Id, Tenant, Why);
      return;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(RM);
    auto It = Registry.find(Req.Id);
    if (It != Registry.end()) {
      if (!It->second.R->Finished.load(std::memory_order_acquire)) {
        emitError(*Out, Req.Id, "run id already live");
        return;
      }
      Registry.erase(It);
    }
  }

  auto R = std::make_shared<ServeRun>();
  R->Id = Req.Id;
  R->Out = Out;

  R->P = ParsedProgram::parse(Req.Program);
  if (!R->P->ok()) {
    emitError(*Out, Req.Id, R->P->diags().str());
    return;
  }
  const Expr *Program = R->P->root();
  if (Req.Prelude) {
    DiagnosticSink PD;
    Program = wrapWithPrelude(R->P->context(), Program, PD);
    if (!Program) {
      emitError(*Out, Req.Id, PD.str());
      return;
    }
  }

  EvalMode Mode;
  if (Req.Backend == "vm")
    Mode.B = Backend::VM;
  else if (Req.Backend == "vm-reg")
    Mode.B = Backend::VMRegister;
  else if (Req.Backend == "vm-aot")
    Mode.B = Backend::VMAot;
  else if (Req.Backend == "direct")
    Mode.B = Backend::Direct;
  else
    Mode.B = Backend::CEK;
  if (Req.Strategy == "name")
    Mode.Strat = Strategy::CallByName;
  else if (Req.Strategy == "need")
    Mode.Strat = Strategy::CallByNeed;
  else
    Mode.Strat = Strategy::Strict;
  if ((Mode.B == Backend::VM || Mode.B == Backend::VMRegister ||
       Mode.B == Backend::VMAot) &&
      Mode.Strat != Strategy::Strict) {
    emitError(*Out, Req.Id,
              "the bytecode backends support the strict strategy only");
    return;
  }

  // The monitor grant set, deny-by-default. Auto-annotation mirrors the
  // CLI (one qualifier per monitor kind keeps cascaded syntaxes disjoint);
  // interactive monitors are refused — there is no terminal to serve them
  // on, and probe events already stream to the client.
  std::vector<Symbol> Names;
  for (const std::string &N : Req.Names)
    Names.push_back(Symbol::intern(N));
  auto Annotate = [&](const char *Qual, bool WithParams) {
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern(Qual);
    AO.WithParams = WithParams;
    Program = annotateFunctionBodies(R->P->context(), Program, Names, AO);
  };
  for (const std::string &Kind : Req.Monitors) {
    std::unique_ptr<Monitor> M;
    if (Kind == "profile") {
      Annotate("profile", /*WithParams=*/false);
      M = std::make_unique<CallProfiler>();
    } else if (Kind == "cost") {
      Annotate("cost", /*WithParams=*/false);
      M = std::make_unique<CostProfiler>();
    } else if (Kind == "alloc") {
      Annotate("alloc", /*WithParams=*/false);
      M = std::make_unique<AllocProfiler>();
    } else if (Kind == "callgraph") {
      Annotate("callgraph", /*WithParams=*/false);
      M = std::make_unique<CallGraphMonitor>();
    } else if (Kind == "record") {
      Annotate("record", /*WithParams=*/true);
      M = std::make_unique<FlightRecorder>(16);
    } else if (Kind == "collect") {
      M = std::make_unique<CollectingMonitor>();
    } else if (Kind == "demon") {
      M = std::make_unique<Demon>(Demon::unsortedLists());
    } else if (Kind == "coverage") {
      unsigned NumPoints = 0;
      Program = labelProgramPoints(R->P->context(), Program, "p",
                                   Symbol::intern("cover"), &NumPoints);
      M = std::make_unique<CoverageMonitor>(NumPoints);
    } else if (Kind == "trace" || Kind == "step" || Kind == "debug") {
      emitError(*Out, Req.Id,
                "monitor '" + Kind +
                    "' is interactive and not served; probe events already "
                    "stream to the client");
      return;
    } else {
      emitError(*Out, Req.Id,
                "unknown monitor '" + Kind +
                    "'; served kinds: profile, cost, alloc, callgraph, "
                    "record, collect, demon, coverage");
      return;
    }
    R->MonitorNames.push_back(std::string(M->name()));
    Mode.C.use(*M);
    R->Owned.push_back(std::move(M));
  }
  R->Program = Program;

  Mode = Mode & maxSteps(capLimit(Req.MaxSteps, O.MaxSteps)) &
         deadlineMs(capLimit(Req.DeadlineMs, O.DeadlineMs)) &
         maxArenaBytes(capLimit(Req.MaxBytes, O.MaxBytes)) &
         maxDepth(capLimit(Req.MaxDepth, O.MaxDepth));

  if (Req.Durable) {
    if (O.JournalDir.empty()) {
      emitError(*Out, Req.Id,
                "durability not granted; start serve with --journal=DIR");
      return;
    }
    if (Mode.B == Backend::Direct) {
      emitError(*Out, Req.Id,
                "the direct backend cannot checkpoint; durable runs need "
                "cek or vm");
      return;
    }
    R->ReqPath = O.JournalDir + "/" + Req.Id + ".req.json";
    std::string Err;
    // Persist the request *before* acknowledging it: once the client sees
    // `accepted`, a crash must be recoverable.
    if (!Resume && !writeFileAtomic(R->ReqPath, RawLine + "\n", Err)) {
      emitError(*Out, Req.Id, "cannot persist request: " + Err);
      return;
    }
    R->J = Journal::open(O.JournalDir + "/" + Req.Id + ".journal", Err);
    if (!R->J) {
      emitError(*Out, Req.Id, "cannot open journal: " + Err);
      return;
    }
    Mode = Mode & journalInto(*R->J);
    Mode.CheckpointOnStop = true;
  }

  if (Resume) {
    Mode = Mode & resumeFrom(*Resume);
    // Backend and strategy travel in the checkpoint header; adopt them so
    // a recovered run continues the way it was started (a VM checkpoint is
    // tier-portable: an explicit vm, vm-reg or vm-aot request keeps that
    // tier).
    if (Resume->header().Backend == CheckpointBackend::VM) {
      if (Mode.B != Backend::VM && Mode.B != Backend::VMRegister &&
          Mode.B != Backend::VMAot)
        Mode.B = Backend::VM;
    } else {
      Mode.B = Backend::CEK;
    }
    Mode.Strat = static_cast<Strategy>(Resume->header().Strategy);
  }

  {
    json::Writer W;
    W.beginObject();
    W.key("event");
    W.str(Resume ? "recovered" : "accepted");
    W.key("id");
    W.str(Req.Id);
    if (Resume) {
      W.key("steps");
      W.num(ResumeSteps);
    }
    W.endObject();
    Out->writeLine(W.take());
  }

  RunEvents Ev;
  Ev.OnProbe = [R](uint64_t Step, const std::string &Text) {
    R->Probes.emplace_back(Step, Text);
    if (R->Probes.size() >= 256)
      flushProbes(*R);
  };
  Ev.OnCheckpoint = [R](uint64_t Steps) {
    flushProbes(*R);
    json::Writer W;
    W.beginObject();
    W.key("event");
    W.str("checkpoint");
    W.key("id");
    W.str(R->Id);
    W.key("steps");
    W.num(Steps);
    W.endObject();
    R->Out->writeLine(W.take());
  };
  // NOTE: fires on a worker thread while the run's own lock is held — it
  // only writes output and flips Finished; it must not (and does not)
  // touch the registry or call RunHandle methods.
  Ev.OnFinish = [this, R](const RunResult &Res) {
    flushProbes(*R);
    emitOutcome(*R, Res);
    if (!R->ReqPath.empty())
      ::unlink(R->ReqPath.c_str());
    R->J.reset();
    DoneCount.fetch_add(1, std::memory_order_relaxed);
    R->Finished.store(true, std::memory_order_release);
  };

  RunHandle H = S.submit(Mode, R->Program, std::move(Ev), Tenant);
  {
    std::lock_guard<std::mutex> Lock(RM);
    Registry.insert_or_assign(Req.Id, Entry{H, R});
  }
}

void Server::recoverDurable(const std::shared_ptr<LineChannel> &Out) {
  DIR *D = ::opendir(O.JournalDir.c_str());
  if (!D)
    return;
  static constexpr std::string_view Suffix = ".req.json";
  std::vector<std::string> Ids;
  while (dirent *E = ::readdir(D)) {
    std::string_view Name(E->d_name);
    if (Name.size() > Suffix.size() &&
        Name.substr(Name.size() - Suffix.size()) == Suffix)
      Ids.emplace_back(Name.substr(0, Name.size() - Suffix.size()));
  }
  ::closedir(D);
  std::sort(Ids.begin(), Ids.end()); // readdir order is not deterministic.

  for (const std::string &Id : Ids) {
    if (!validRunId(Id))
      continue;
    std::string Raw = readWholeFile(O.JournalDir + "/" + Id + Suffix.data());
    while (!Raw.empty() && (Raw.back() == '\n' || Raw.back() == '\r'))
      Raw.pop_back();
    Request Req;
    std::string Err, ErrId;
    if (Raw.empty() || !parseRequest(Raw, Req, Err, ErrId) ||
        Req.O != Request::Op::Submit || Req.Submit.Id != Id) {
      emitError(*Out, Id, "unrecoverable durable request: " + Err);
      continue;
    }
    // Resume from the journal's last durable checkpoint; a journal with
    // no checkpoint yet (crash before the first quantum expired) restarts
    // the run from the beginning — same at-least-once rule as --supervise.
    JournalRecovery Rec = recoverJournal(O.JournalDir + "/" + Id + ".journal");
    Checkpoint CK;
    uint64_t Steps = 0;
    if (Rec.Opened && !Rec.LastCheckpoint.empty()) {
      std::string CErr;
      CK = Checkpoint::fromBytes(Rec.LastCheckpoint, CErr);
      if (CK.valid())
        Steps = CK.header().SavedSteps;
    }
    submitRun(Req.Submit, Raw, Out, /*DefaultTenant=*/"stdio",
              CK.valid() ? &CK : nullptr, Steps);
  }
}

void Server::dispatch(const std::string &Line,
                      const std::shared_ptr<LineChannel> &Ch,
                      const std::string &DefaultTenant) {
  Request Req;
  std::string Err, ErrId;
  if (!parseRequest(Line, Req, Err, ErrId)) {
    emitError(*Ch, ErrId, Err);
    return;
  }
  switch (Req.O) {
  case Request::Op::Submit:
    submitRun(Req.Submit, Line, Ch, DefaultTenant, /*Resume=*/nullptr, 0);
    break;
  case Request::Op::Cancel: {
    RunHandle H;
    {
      std::lock_guard<std::mutex> Lock(RM);
      auto It = Registry.find(Req.CancelId);
      if (It != Registry.end())
        H = It->second.H;
    }
    if (!H.valid())
      emitError(*Ch, Req.CancelId, "no such live run");
    else
      H.cancel(); // The outcome record is the acknowledgement.
    break;
  }
  case Request::Op::Status:
    emitStatus(*Ch);
    break;
  case Request::Op::Shutdown:
    ShutdownReq = true;
    break;
  }
}

void Server::serveChannel(const std::shared_ptr<LineChannel> &Ch) {
  std::string Line;
  for (;;) {
    LineChannel::ReadStatus St =
        Ch->readLine(Line, [this] { return stopRequested(); });
    if (St == LineChannel::ReadStatus::TooLong) {
      emitError(*Ch, {},
                "request line exceeds " + std::to_string(O.MaxRequestBytes) +
                    " bytes; disconnecting");
      return;
    }
    if (St != LineChannel::ReadStatus::Line)
      return;
    sweepFinished();
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    dispatch(Line, Ch, /*DefaultTenant=*/"stdio");
    if (ShutdownReq)
      return;
  }
}

int Server::drainAndExit(bool CancelAll, LineChannel &Out) {
  if (CancelAll)
    cancelAllLive();
  while (S.liveRuns() > 0) {
    if (!CancelAll && interrupted()) {
      // ^C during a graceful drain escalates to a cancel-drain; a second
      // ^C within the grace window hard-exits via the CLI's handler.
      CancelAll = true;
      cancelAllLive();
    }
    ::usleep(20 * 1000);
  }
  sweepFinished();
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("shutdown");
  W.key("done");
  W.num(DoneCount.load(std::memory_order_relaxed));
  W.endObject();
  Out.writeLine(W.take());
  return interrupted() ? 130 : 0;
}

//===----------------------------------------------------------------------===//
// Socket multiplexer
//===----------------------------------------------------------------------===//

void Server::serviceClient(Client &C) {
  const auto Now = std::chrono::steady_clock::now();

  // Writes first: draining the outbox both frees space for this cycle's
  // responses and feeds the slow-reader stall detector.
  switch (C.Ch->flushOut()) {
  case LineChannel::Flush::Error:
    C.Drop = true;
    return;
  case LineChannel::Flush::Blocked:
    if (C.StallSince == std::chrono::steady_clock::time_point{})
      C.StallSince = Now;
    break;
  case LineChannel::Flush::Idle:
  case LineChannel::Flush::Progress:
    C.StallSince = {};
    break;
  }

  // Reads: bounded rounds so one firehose client cannot monopolize the
  // serve thread; whatever is left is picked up next poll cycle.
  std::string Line;
  for (int Round = 0; Round < 16; ++Round) {
    while (C.Ch->nextLine(Line)) {
      C.LastActivity = Now;
      if (Line.find_first_not_of(" \t\r") == std::string::npos)
        continue;
      dispatch(Line, C.Ch, C.Tenant);
      if (ShutdownReq)
        return;
    }
    if (C.ReadClosed)
      return;
    switch (C.Ch->pumpIn()) {
    case LineChannel::Pump::Progress:
      C.LastActivity = Now;
      continue;
    case LineChannel::Pump::WouldBlock:
      return;
    case LineChannel::Pump::Eof:
      // Half-close: the client is done submitting but may still be
      // reading outcomes; drain remaining buffered lines, then keep the
      // connection for its pending responses.
      C.ReadClosed = true;
      continue;
    case LineChannel::Pump::TooLong:
      emitError(*C.Ch, {},
                "request line exceeds " + std::to_string(O.MaxRequestBytes) +
                    " bytes; disconnecting");
      C.Ch->flushOut(); // Best effort: get the verdict onto the wire.
      C.Drop = true;
      return;
    case LineChannel::Pump::Error:
      C.Drop = true;
      return;
    }
  }
}

void Server::reapClients(std::vector<Client> &Clients) {
  const auto Now = std::chrono::steady_clock::now();
  for (Client &C : Clients) {
    if (C.Drop || C.Ch->dead())
      continue;
    const bool OutIdle = !C.Ch->wantsWrite();
    // use_count() == 1 means no live run still holds this channel for its
    // responses — only the client table references it.
    const bool NoRuns = C.Ch.use_count() == 1;
    if (C.Ch->overflowed() && OutIdle) {
      // The overflow notice has drained (or died trying); cut the cord.
      C.Drop = true;
      continue;
    }
    if (C.ReadClosed && NoRuns && OutIdle) {
      C.Drop = true; // Clean finish: EOF seen, every response delivered.
      continue;
    }
    if (O.SlowReaderMs && C.StallSince != std::chrono::steady_clock::time_point{} &&
        Now - C.StallSince > std::chrono::milliseconds(O.SlowReaderMs)) {
      // Write-blocked with zero drain for the whole window. The error
      // record is almost certainly undeliverable (the pipe is full), but
      // queue it anyway for the post-mortem read() a dying client might do.
      emitError(*C.Ch, {}, "slow reader: no drain for " +
                               std::to_string(O.SlowReaderMs) +
                               " ms; disconnecting");
      C.Drop = true;
      continue;
    }
    if (O.IdleTimeoutMs && !C.ReadClosed && NoRuns && OutIdle &&
        Now - C.LastActivity > std::chrono::milliseconds(O.IdleTimeoutMs)) {
      emitError(*C.Ch, {}, "idle timeout after " +
                               std::to_string(O.IdleTimeoutMs) +
                               " ms; disconnecting");
      C.Ch->flushOut();
      C.Drop = true;
      continue;
    }
  }
  for (Client &C : Clients)
    if (C.Drop)
      C.Ch->shutdownNow(); // Workers holding the channel see dead() and
                           // drop their output; the fd is gone now.
  Clients.erase(std::remove_if(Clients.begin(), Clients.end(),
                               [](const Client &C) { return C.Drop; }),
                Clients.end());
}

int Server::runMux(const std::shared_ptr<LineChannel> &Stdio, Listener &L) {
  std::vector<Client> Clients;
  std::vector<pollfd> P;
  while (!stopRequested()) {
    sweepFinished();

    P.clear();
    P.push_back({L.fd(), POLLIN, 0});
    for (const Client &C : Clients) {
      short Ev = 0;
      if (!C.ReadClosed)
        Ev |= POLLIN;
      if (C.Ch->wantsWrite())
        Ev |= POLLOUT;
      P.push_back({C.Ch->fd(), Ev, 0});
    }
    // 200ms cap keeps the loop responsive to SIGINT and to timers even
    // when poll reports nothing.
    if (::poll(P.data(), P.size(), 200) < 0 && errno != EINTR)
      break;

    // Accept a bounded batch of new connections per cycle.
    for (int I = 0; I < 32; ++I) {
      std::string AErr;
      std::unique_ptr<LineChannel> Ch = L.acceptOne(AErr);
      if (!Ch) {
        if (!AErr.empty())
          emitError(*Stdio, {}, "accept failed: " + AErr);
        break;
      }
      Ch->setMaxLineBytes(O.MaxRequestBytes);
      Ch->setNonBlocking(O.MaxOutboxBytes, overflowNoticeLine());
      if (O.SockSndbufBytes) {
        // Bound kernel-side buffering so a slow reader exerts backpressure
        // on the outbox (where the overflow/stall policy lives) instead of
        // hiding behind megabytes of autotuned socket buffer.
        int Buf = static_cast<int>(
            std::min<uint64_t>(O.SockSndbufBytes, 1u << 30));
        ::setsockopt(Ch->fd(), SOL_SOCKET, SO_SNDBUF, &Buf, sizeof(Buf));
      }
      Client C;
      C.Ch = std::move(Ch);
      C.Tenant = "c" + std::to_string(++NextConn);
      C.LastActivity = std::chrono::steady_clock::now();
      Clients.push_back(std::move(C));
    }

    for (Client &C : Clients) {
      serviceClient(C);
      if (ShutdownReq)
        break;
    }
    reapClients(Clients);
    if (ShutdownReq)
      break;
  }
  return drainMux(Clients, stopRequested(), *Stdio);
}

int Server::drainMux(std::vector<Client> &Clients, bool CancelAll,
                     LineChannel &Stdio) {
  if (CancelAll)
    cancelAllLive();
  for (;;) {
    bool Pending = false;
    for (Client &C : Clients) {
      if (C.Ch->dead())
        continue;
      if (C.Ch->flushOut() == LineChannel::Flush::Error)
        C.Ch->shutdownNow();
      else if (C.Ch->wantsWrite())
        Pending = true;
    }
    if (S.liveRuns() == 0 && !Pending)
      break;
    if (!CancelAll && interrupted()) {
      // ^C during a graceful drain escalates to a cancel-drain; a second
      // ^C within the grace window hard-exits via the CLI's handler.
      CancelAll = true;
      cancelAllLive();
    }
    ::usleep(20 * 1000);
  }
  sweepFinished();
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("shutdown");
  W.key("done");
  W.num(DoneCount.load(std::memory_order_relaxed));
  W.endObject();
  std::string Line = W.take();
  for (Client &C : Clients) {
    if (C.Ch->dead())
      continue;
    C.Ch->writeLine(Line);
    C.Ch->flushOut(); // Best effort; a blocked peer forfeits the record.
    C.Ch->shutdownNow();
  }
  Stdio.writeLine(Line);
  return interrupted() ? 130 : 0;
}

int Server::run() {
  // Workers write to client sockets; a hung-up peer must surface as a
  // writeLine failure, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  auto Stdio = std::make_shared<LineChannel>(0, 1, /*OwnsFds=*/false);
  Stdio->setMaxLineBytes(O.MaxRequestBytes);
  if (!O.JournalDir.empty())
    recoverDurable(Stdio);

  if (!O.UnixPath.empty() || O.TcpPort >= 0) {
    std::string Err;
    std::unique_ptr<Listener> L =
        !O.UnixPath.empty()
            ? Listener::listenUnix(O.UnixPath, Err)
            : Listener::listenTcp(static_cast<uint16_t>(O.TcpPort), Err);
    if (!L) {
      emitError(*Stdio, {}, "cannot listen: " + Err);
      return 1;
    }
    // Announce the endpoint on stdout — with --listen-tcp=0 this is how
    // the client learns the picked port.
    {
      json::Writer W;
      W.beginObject();
      W.key("event");
      W.str("listening");
      W.key("transport");
      W.str(!O.UnixPath.empty() ? "unix" : "tcp");
      if (!O.UnixPath.empty()) {
        W.key("path");
        W.str(O.UnixPath);
      } else {
        W.key("port");
        W.num(static_cast<uint64_t>(L->boundPort()));
      }
      W.endObject();
      Stdio->writeLine(W.take());
    }
    return runMux(Stdio, *L);
  }

  serveChannel(Stdio);
  // stdin EOF drains gracefully (runs finish, outcomes flush, exit 0);
  // shutdown/^C cancel what is in flight first — every live run still
  // gets its final outcome record before the process exits.
  return drainAndExit(interrupted() || ShutdownReq, *Stdio);
}

} // namespace

int monsem::runServe(const ServeOptions &O) {
  if (!O.JournalDir.empty())
    ::mkdir(O.JournalDir.c_str(), 0777); // EEXIST is the common case.
  // Eviction spills into the journal directory when one was granted, else
  // into a private per-process spool under TMPDIR.
  std::string SpoolDir;
  bool OwnSpool = false;
  if (O.MaxResidentBytes) {
    if (!O.JournalDir.empty()) {
      SpoolDir = O.JournalDir;
    } else {
      const char *Tmp = std::getenv("TMPDIR");
      SpoolDir = std::string(Tmp && *Tmp ? Tmp : "/tmp") +
                 "/monsem-serve-spool-" + std::to_string(::getpid());
      ::mkdir(SpoolDir.c_str(), 0700);
      OwnSpool = true;
    }
  }
  int Rc;
  {
    Server Srv(O, SpoolDir);
    Rc = Srv.run();
  } // Session joined: every park file is unlinked by now.
  if (OwnSpool)
    ::rmdir(SpoolDir.c_str());
  return Rc;
}
