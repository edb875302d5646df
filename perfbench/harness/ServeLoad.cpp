//===- perfbench/harness/ServeLoad.cpp - The serve load of the layer sweep -===//
//
// A short open loop against `monsem serve`, run by the per-layer sweep of
// every traced run. One generator thread drives four unix-socket
// connections, one tenant each. Three interactive tenants submit short
// monitored runs (profile, or profile & cost & callgraph, on cek or vm-reg)
// that stream probes and finish within one quantum, as seeded Poisson
// arrivals at kRate per second; one bulk tenant submits unmonitored runs
// spanning many quanta, a seeded quarter of them durable. Every request is
// timed from its due time, not its send time, so a stall also charges the
// requests queued behind it; the generator's own lateness is reported.
//
// Each outcome is checked: answer, step count, monitor finals and the hash
// of the streamed probe texts, against expected.tsv. Every key this load
// adds to the record starts with "serve.", apart from the in-process
// Session baseline's "session_latency_ms".
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "server/Protocol.h"
#include "server/Session.h"
#include "syntax/Annotator.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace monsem;
using namespace pb;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kWorkers = 2;
constexpr uint64_t kQuantum = 65536;
/// Small enough that parked bulk runs exceed it, so eviction fires.
constexpr uint64_t kMaxResidentBytes = 64 * 1024;
/// Interactive and bulk arrivals per second.
constexpr double kRate = 3000;
constexpr double kBulkRate = 3;
/// The load lasts this share of --seconds.
constexpr double kShareOfSeconds = 0.1;
/// How long after the last due time outstanding requests may still finish.
constexpr double kDrainS = 5;
/// Connection i serves tenant kTenants[i]; the last one is the bulk tenant.
const char *const kTenants[] = {"i1", "i2", "i3", "bulk"};

struct ServeCfg {
  Kernel K;
  Density D = Density::None;
  std::string Backend;
  std::string Key;
  Expected E;
  std::vector<std::string> Names;
  bool Interactive = false;
};

struct Req {
  double DueS = 0;
  int Conn = 0;
  size_t Cfg = 0;
  bool Durable = false;
  std::string Line;
  // Observed.
  uint64_t SendNs = 0, AcceptNs = 0, FirstProbeNs = 0, LastProbeNs = 0;
  uint64_t DoneNs = 0;
  uint64_t ProbeHash = 0, Events = 0, Checkpoints = 0;
  bool Done = false;
  std::string Fail; ///< Empty = passed every check.
  uint64_t Steps = 0;
};

std::vector<ServeCfg> serveConfigs(const ExpectTable &T) {
  std::vector<ServeCfg> Out;
  for (const Kernel &K : serveInteractiveSizes())
    for (Density D : {Density::Sparse, Density::Medium})
      for (const char *B : {"cek", "vm-reg"}) {
        ServeCfg C;
        C.K = K;
        C.D = D;
        C.Backend = B;
        C.Key = configKey("serve", K, D, "*");
        C.E.Answer = K.reference();
        C.E.Steps = T.get(C.Key, B);
        C.E.FinalsHash =
            T.get(C.Key, std::string(B) == "cek" ? "finals-cek" : "finals-vm");
        C.E.ProbeHash = T.get(C.Key, "probes");
        C.E.HasFinals = C.E.HasProbes = true;
        C.Names = D == Density::Sparse
                      ? std::vector<std::string>{"profile"}
                      : std::vector<std::string>{"profile", "cost",
                                                 "callgraph"};
        C.Interactive = true;
        Out.push_back(C);
      }
  for (const Kernel &K : serveBulkSizes()) {
    ServeCfg C;
    C.K = K;
    C.Backend = "cek";
    C.Key = configKey("serve", K, Density::None, "*");
    C.E.Answer = K.reference();
    C.E.Steps = T.get(C.Key, "cek");
    Out.push_back(C);
  }
  return Out;
}

std::string requestLine(const ServeCfg &C, const std::string &Id,
                        const std::string &Tenant, bool Durable) {
  json::Writer W;
  W.beginObject();
  W.key("op");
  W.str("submit");
  W.key("id");
  W.str(Id);
  W.key("program");
  W.str(C.K.source());
  W.key("monitors");
  W.beginArray();
  for (const std::string &N : C.Names)
    W.str(N);
  W.endArray();
  W.key("backend");
  W.str(C.Backend);
  W.key("tenant");
  W.str(Tenant);
  if (Durable) {
    W.key("durable");
    W.boolean(true);
  }
  W.endObject();
  return W.take() + "\n";
}

/// The requests of a load lasting \p Seconds. Interactive arrivals are a
/// Poisson process conditioned on its count (kRate * Seconds), so every
/// seed offers exactly the same load; bulk arrivals are evenly spaced from
/// a seeded offset.
std::vector<Req> schedule(double Seconds, const std::vector<ServeCfg> &Cfgs,
                          Rng &R) {
  std::vector<size_t> Inter, Bulk;
  for (size_t I = 0; I < Cfgs.size(); ++I)
    (Cfgs[I].Interactive ? Inter : Bulk).push_back(I);
  // Configurations and connections go round robin from seeded offsets, so
  // the mix is exact too.
  size_t NextCfg = R.below(Inter.size()), NextConn = R.below(3);
  std::vector<double> Due(static_cast<size_t>(std::lround(kRate * Seconds)));
  for (double &X : Due)
    X = R.unit() * Seconds;
  std::sort(Due.begin(), Due.end());
  std::vector<Req> Out;
  for (double T : Due) {
    Req Q;
    Q.DueS = T;
    Q.Conn = static_cast<int>(NextConn++ % 3);
    Q.Cfg = Inter[NextCfg++ % Inter.size()];
    Out.push_back(Q);
  }
  size_t NB = static_cast<size_t>(std::lround(kBulkRate * Seconds));
  size_t I = R.below(Bulk.size());
  double Offset = R.unit();
  for (size_t K = 0; K < NB; ++K) {
    Req Q;
    Q.DueS = (K + Offset) / kBulkRate;
    Q.Conn = 3;
    Q.Cfg = Bulk[I % Bulk.size()];
    Q.Durable = (I / Bulk.size()) % 4 == 0;
    ++I;
    Out.push_back(Q);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Req &A, const Req &B) { return A.DueS < B.DueS; });
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I].Line = requestLine(Cfgs[Out[I].Cfg], "r" + std::to_string(I),
                              kTenants[Out[I].Conn], Out[I].Durable);
  return Out;
}

/// One client connection: a nonblocking unix socket with line buffers.
struct Conn {
  int Fd = -1;
  std::string In, Out;

  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool connectTo(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(A.sun_path))
      return false;
    std::memcpy(A.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0)
      return false;
    ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
    return true;
  }
  /// False once the peer is gone.
  bool flush() {
    while (!Out.empty()) {
      ssize_t N = ::write(Fd, Out.data(), Out.size());
      if (N < 0)
        return errno == EAGAIN || errno == EINTR;
      Out.erase(0, static_cast<size_t>(N));
    }
    return true;
  }
  /// Reads what is available; false on EOF or error.
  bool fill() {
    char Buf[65536];
    for (;;) {
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N > 0) {
        In.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N == 0)
        return false;
      return errno == EAGAIN || errno == EINTR;
    }
  }
  bool nextLine(std::string &Line) {
    size_t NL = In.find('\n');
    if (NL == std::string::npos)
      return false;
    Line = In.substr(0, NL);
    In.erase(0, NL + 1);
    return true;
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

/// The daemon process: spawned with its stdout on a pipe so the harness
/// sees `listening`, reaped (killed if it will not exit) on destruction.
class Daemon {
public:
  bool start(const Options &O) {
    int P[2];
    if (pipe(P) != 0)
      return false;
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, P[1], 1);
    posix_spawn_file_actions_addclose(&FA, P[0]);
    posix_spawn_file_actions_addclose(&FA, P[1]);
    posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
    std::vector<std::string> Argv = {
        O.Monsem,
        "serve",
        "--workers=" + std::to_string(kWorkers),
        "--quantum-steps=" + std::to_string(kQuantum),
        "--journal=journal",
        "--max-resident-bytes=" + std::to_string(kMaxResidentBytes),
        "--listen-unix=serve.sock"};
    std::vector<char *> A;
    for (std::string &S : Argv)
      A.push_back(S.data());
    A.push_back(nullptr);
    // On four or more CPUs the daemon gets all but the first, which the
    // generator keeps: neither steals the other's CPU mid-measurement.
    // The daemon inherits the mask at spawn, before it starts its threads.
    cpu_set_t All, Gen, Daemon;
    bool Pin = sched_getaffinity(0, sizeof(All), &All) == 0 &&
               CPU_COUNT(&All) >= 4;
    if (Pin) {
      CPU_ZERO(&Gen);
      Daemon = All;
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &All)) {
          CPU_SET(C, &Gen);
          CPU_CLR(C, &Daemon);
          break;
        }
      sched_setaffinity(0, sizeof(Daemon), &Daemon);
    }
    int Rc = posix_spawn(&Pid, A[0], &FA, nullptr, A.data(), environ);
    if (Pin)
      sched_setaffinity(0, sizeof(Gen), &Gen);
    posix_spawn_file_actions_destroy(&FA);
    close(P[1]);
    if (Rc != 0) {
      close(P[0]);
      Pid = -1;
      return false;
    }
    OutFd = P[0];
    std::string Buf;
    char C;
    while (::read(OutFd, &C, 1) == 1) {
      if (C != '\n') {
        Buf.push_back(C);
        continue;
      }
      if (Buf.find("\"listening\"") != std::string::npos)
        return true;
      Buf.clear();
    }
    return false;
  }
  /// Waits up to \p Ms for the daemon to exit, then kills it.
  void stop(int Ms) {
    if (Pid <= 0)
      return;
    int Status;
    for (int I = 0; I < Ms / 10; ++I) {
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        break;
      }
      usleep(10 * 1000);
    }
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      Pid = -1;
    }
    if (OutFd >= 0)
      close(OutFd);
    OutFd = -1;
  }
  ~Daemon() { stop(0); }

private:
  pid_t Pid = -1;
  int OutFd = -1;
};

uint64_t finalsHashOf(const json::Value &Monitors) {
  uint64_t H = fnv1a("finals");
  for (const json::Value &M : Monitors.Elems) {
    const json::Value *N = M.field("name"), *S = M.field("state");
    H = fnv1a(std::string(N ? N->strOr() : "") + ": " +
                  std::string(S ? S->strOr() : "") + "\n",
              H);
  }
  return H;
}

/// The fast path for `probes` records, which are most of the traffic: the
/// daemon writes them as {"event":"probes","id":..,"events":[{"step":..,
/// "text":".."},..]}, so the texts are found by scanning rather than by
/// building a JSON tree, which keeps the generator from falling behind.
/// Returns false (the caller parses the line in full) for anything else,
/// including texts with escapes.
bool scanProbes(const std::string &L, std::vector<Req> &Reqs, char IdPrefix) {
  static const std::string Head = "{\"event\":\"probes\",\"id\":\"";
  if (L.compare(0, Head.size(), Head) != 0 ||
      L.find('\\') != std::string::npos)
    return false;
  size_t P = Head.size();
  if (P >= L.size() || L[P] != IdPrefix)
    return false;
  size_t IdEnd = L.find('"', P);
  if (IdEnd == std::string::npos)
    return false;
  size_t Idx = std::strtoull(L.c_str() + P + 1, nullptr, 10);
  if (Idx >= Reqs.size())
    return true;
  Req &Q = Reqs[Idx];
  if (Q.Done)
    return true;
  uint64_t Now = nowNs();
  if (!Q.FirstProbeNs)
    Q.FirstProbeNs = Now;
  Q.LastProbeNs = Now;
  static const std::string Key = "\"text\":\"";
  for (size_t T = L.find(Key, IdEnd); T != std::string::npos;
       T = L.find(Key, T)) {
    T += Key.size();
    size_t E = L.find('"', T);
    if (E == std::string::npos)
      break;
    Q.ProbeHash = fnv1a(std::string_view(L).substr(T, E - T), Q.ProbeHash);
    Q.ProbeHash = fnv1a("\n", Q.ProbeHash);
    ++Q.Events;
    T = E;
  }
  return true;
}

/// What the generator sees besides the requests' own records: probe events
/// delivered, and the daemon's `status` polled while the load runs.
struct Observed {
  uint64_t ProbeEvents = 0;
  double MaxResidentBytes = 0;
  double Evictions = 0;
  /// Per poll: the minimum over tenants of delivered ÷ demanded steps.
  std::vector<double> Fairness;
  /// When the schedule's time zero was: request i is due at
  /// StartNs + DueS * 1e9.
  uint64_t StartNs = 0;
};

/// Drives \p Reqs through \p C until every one has an outcome or the drain
/// deadline passes.
void drive(std::vector<Req> &Reqs, std::vector<Conn> &C,
           const std::vector<ServeCfg> &Cfgs, Observed &Obs, char IdPrefix) {
  size_t Next = 0, Outstanding = 0;
  double LastDue = Reqs.empty() ? 0 : Reqs.back().DueS;
  uint64_t T0 = nowNs(), NextStatus = T0;
  Obs.StartNs = T0;
  std::map<std::string, double> Demand; // Steps of the requests sent.
  std::map<std::string, double> Credited; // Steps credited before the load.
  bool SawStatus = false;
  std::string Line;
  auto Handle = [&](const std::string &L) {
    if (scanProbes(L, Reqs, IdPrefix))
      return;
    json::Value V;
    std::string Err;
    if (!json::parse(L, V, Err))
      return;
    const json::Value *Ev = V.field("event"), *Id = V.field("id");
    if (Ev && Ev->strOr() == "status") {
      if (const json::Value *R = V.field("resident_bytes"))
        Obs.MaxResidentBytes =
            std::max(Obs.MaxResidentBytes, static_cast<double>(R->intOr()));
      if (const json::Value *E = V.field("evictions"))
        Obs.Evictions = static_cast<double>(E->intOr());
      // The first poll goes out before any request: it gives the steps
      // already credited (the warm-up), which later polls subtract.
      bool First = !SawStatus;
      SawStatus = true;
      double Min = -1;
      if (const json::Value *Ts = V.field("tenants"))
        for (const json::Value &T : Ts->Elems) {
          const json::Value *N = T.field("tenant"), *S = T.field("user_steps");
          if (!N || !S)
            continue;
          std::string Name(N->strOr());
          double Steps = static_cast<double>(S->intOr());
          if (First) {
            Credited[Name] = Steps;
            continue;
          }
          auto It = Demand.find(Name);
          if (It == Demand.end())
            continue;
          double Share = std::min(1.0, (Steps - Credited[Name]) / It->second);
          Min = Min < 0 ? Share : std::min(Min, Share);
        }
      if (Min >= 0)
        Obs.Fairness.push_back(Min);
      return;
    }
    if (!Ev || !Id)
      return;
    std::string_view IdS = Id->strOr();
    if (IdS.size() < 2 || IdS[0] != IdPrefix)
      return;
    size_t Idx = std::stoull(std::string(IdS.substr(1)));
    if (Idx >= Reqs.size() || Reqs[Idx].Done)
      return;
    Req &Q = Reqs[Idx];
    uint64_t Now = nowNs();
    std::string_view E = Ev->strOr();
    if (E == "accepted") {
      Q.AcceptNs = Now;
    } else if (E == "probes") {
      if (!Q.FirstProbeNs)
        Q.FirstProbeNs = Now;
      Q.LastProbeNs = Now;
      if (const json::Value *Es = V.field("events"))
        for (const json::Value &P : Es->Elems) {
          const json::Value *T = P.field("text");
          Q.ProbeHash =
              fnv1a(std::string(T ? T->strOr() : "") + "\n", Q.ProbeHash);
          ++Q.Events;
        }
    } else if (E == "checkpoint") {
      ++Q.Checkpoints;
    } else if (E == "outcome") {
      Q.DoneNs = Now;
      Q.Done = true;
      --Outstanding;
      const ServeCfg &Cf = Cfgs[Q.Cfg];
      const json::Value *O = V.field("outcome"), *Val = V.field("value"),
                        *St = V.field("steps"), *Mons = V.field("monitors");
      Q.Steps = St ? static_cast<uint64_t>(St->intOr()) : 0;
      if (!O || O->strOr() != "ok")
        Q.Fail = "outcome";
      else if (!Val || Val->strOr() != Cf.E.Answer)
        Q.Fail = "answer";
      else if (Q.Steps != Cf.E.Steps)
        Q.Fail = "steps";
      else if (Cf.E.HasFinals && (!Mons || finalsHashOf(*Mons) !=
                                               Cf.E.FinalsHash))
        Q.Fail = "finals";
      else if (Cf.E.HasProbes && Q.ProbeHash != Cf.E.ProbeHash)
        Q.Fail = "probes";
    } else if (E == "overloaded" || E == "error") {
      Q.DoneNs = Now;
      Q.Done = true;
      Q.Fail = std::string(E);
      --Outstanding;
    }
  };
  std::vector<pollfd> P(C.size());
  for (;;) {
    double NowS = (nowNs() - T0) * 1e-9;
    while (Next < Reqs.size() && Reqs[Next].DueS <= NowS) {
      Req &Q = Reqs[Next++];
      C[Q.Conn].Out += Q.Line;
      Q.SendNs = nowNs();
      ++Outstanding;
      Demand[kTenants[Q.Conn]] += static_cast<double>(Cfgs[Q.Cfg].E.Steps);
    }
    if (nowNs() >= NextStatus) {
      C[0].Out += "{\"op\":\"status\"}\n";
      NextStatus = nowNs() + 250'000'000;
    }
    for (Conn &K : C)
      K.flush();
    if (Next == Reqs.size() && (Outstanding == 0 || NowS > LastDue + kDrainS))
      break;
    double WaitS = Next < Reqs.size() ? Reqs[Next].DueS - NowS : 0.05;
    WaitS = std::clamp(WaitS, 0.0, 0.05);
    for (size_t I = 0; I < C.size(); ++I)
      P[I] = {C[I].Fd, static_cast<short>(POLLIN | (C[I].Out.empty()
                                                        ? 0
                                                        : POLLOUT)),
              0};
    timespec TS{0, static_cast<long>(WaitS * 1e9)};
    if (ppoll(P.data(), P.size(), &TS, nullptr) < 0 && errno != EINTR)
      break;
    for (size_t I = 0; I < C.size(); ++I) {
      if (!(P[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      bool Alive = C[I].fill();
      while (C[I].nextLine(Line))
        Handle(Line);
      if (!Alive)
        return; // Disconnects fail the rest.
    }
  }
  for (const Req &Q : Reqs)
    Obs.ProbeEvents += Q.Events;
}

/// Sends one control request on \p C and returns the first line whose
/// event is \p Want.
bool control(Conn &C, const std::string &Line, const std::string &Want,
             json::Value &Out) {
  C.Out += Line + "\n";
  uint64_t Deadline = nowNs() + 5'000'000'000ull;
  std::string L;
  while (nowNs() < Deadline) {
    C.flush();
    while (C.nextLine(L)) {
      std::string Err;
      if (json::parse(L, Out, Err) && Out.field("event") &&
          Out.field("event")->strOr() == Want)
        return true;
    }
    pollfd P{C.Fd, POLLIN, 0};
    ::poll(&P, 1, 50);
    if (!C.fill())
      return false;
  }
  return false;
}

/// The in-process baseline: the same mix and schedule submitted straight to
/// a Session configured like the daemon.
void sessionBaseline(const std::vector<Req> &Reqs,
                     const std::vector<ServeCfg> &Cfgs, Report &Rep) {
  fs::create_directories("session-park");
  Session::Config SC;
  SC.Workers = kWorkers;
  SC.QuantumSteps = kQuantum;
  SC.MaxResidentBytes = kMaxResidentBytes;
  SC.ParkDir = "session-park";
  Session S(SC);
  struct Run {
    std::unique_ptr<Prepared> P;
    RunHandle H;
    uint64_t DueNs = 0;
    std::atomic<uint64_t> DoneNs{0};
  };
  std::vector<std::unique_ptr<Run>> Runs;
  uint64_t T0 = nowNs();
  for (const Req &Q : Reqs) {
    uint64_t Due = T0 + static_cast<uint64_t>(Q.DueS * 1e9);
    while (nowNs() < Due)
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<uint64_t>((Due - nowNs()) / 1000, 1000)));
    const ServeCfg &C = Cfgs[Q.Cfg];
    auto R = std::make_unique<Run>();
    R->DueNs = Due;
    R->P = prepare(C.K, C.D, "*", nullptr);
    EvalMode M = R->P->cascade(false);
    M.B = backendFromName(C.Backend);
    RunEvents Ev;
    Run *Raw = R.get();
    Ev.OnProbe = [](uint64_t, const std::string &) {};
    Ev.OnFinish = [Raw](const RunResult &) { Raw->DoneNs = nowNs(); };
    R->H = S.submit(M, R->P->Root, std::move(Ev), kTenants[Q.Conn]);
    Runs.push_back(std::move(R));
  }
  std::vector<double> &Lat = Rep.samples("session_latency_ms");
  for (size_t I = 0; I < Runs.size(); ++I) {
    Run *R = Runs[I].get();
    RunResult Res = R->H.outcome();
    const ServeCfg &C = Cfgs[Reqs[I].Cfg];
    if (Res.St != Outcome::Ok || Res.ValueText != C.E.Answer) {
      Rep.fail("session");
      Rep.Correct = false;
    }
    if (C.Interactive)
      Lat.push_back((R->DoneNs - R->DueNs) * 1e-6);
  }
}

} // namespace

int pb::runServeLoad(const Options &O, Report &Rep) {
  ExpectTable Table;
  if (!Table.load(O.Steps)) {
    std::cerr << "perfbench: cannot read " << O.Steps << '\n';
    return 2;
  }
  std::vector<ServeCfg> Cfgs = serveConfigs(Table);
  for (const ServeCfg &C : Cfgs)
    if (!C.E.Steps) {
      std::cerr << "perfbench: no expected values for " << C.Key << '\n';
      return 2;
    }
  const double Seconds = kShareOfSeconds * O.Seconds;
  Rng R(O.Seed);
  std::vector<Req> Reqs = schedule(Seconds, Cfgs, R);

  // The daemon runs in the work directory: the socket path stays short.
  fs::path Prev = fs::current_path();
  fs::current_path(O.Work);
  struct Back {
    fs::path P;
    ~Back() { fs::current_path(P); }
  } Restore{Prev};
  fs::remove_all("journal");
  Daemon D;
  if (!D.start(O)) {
    std::cerr << "perfbench: monsem serve did not start\n";
    return 2;
  }
  std::vector<Conn> C(4);
  for (Conn &K : C)
    if (!K.connectTo("serve.sock")) {
      std::cerr << "perfbench: cannot connect to monsem serve\n";
      return 2;
    }
  // Every configuration once before the load, so each outcome is checked
  // even if the schedule misses one; not timed.
  {
    std::vector<Req> Warm;
    for (size_t I = 0; I < Cfgs.size(); ++I) {
      Req Q;
      Q.Cfg = I;
      Q.Conn = Cfgs[I].Interactive ? static_cast<int>(I % 3) : 3;
      Q.Line = requestLine(Cfgs[I], "w" + std::to_string(I),
                           kTenants[Q.Conn], false);
      Warm.push_back(Q);
    }
    Observed Ignored;
    drive(Warm, C, Cfgs, Ignored, 'w');
    for (const Req &Q : Warm) {
      ++Rep.Attempted;
      if (!Q.Done || !Q.Fail.empty()) {
        Rep.fail("serve.warm-up:" + Cfgs[Q.Cfg].Key);
        Rep.Correct = Rep.Correct && !Q.Done;
      }
    }
  }

  Observed Obs;
  drive(Reqs, C, Cfgs, Obs, 'r');

  // Latency runs from the due time.
  uint64_t Base = Obs.StartNs, LastNs = Base;
  uint64_t Overloaded = 0;
  std::vector<double> &Lat = Rep.samples("serve.latency_ms");
  std::vector<double> &Lag = Rep.samples("serve.lag_ms");
  std::vector<double> &Accept = Rep.samples("serve.accept_ms");
  std::vector<double> &First = Rep.samples("serve.first_probe_ms");
  std::vector<double> &AfterLast =
      Rep.samples("serve.outcome_after_last_probe_ms");
  std::vector<double> &Slices = Rep.samples("serve.slices_per_run");
  for (const Req &Q : Reqs) {
    uint64_t Due = Base + static_cast<uint64_t>(Q.DueS * 1e9);
    bool Bulk = !Cfgs[Q.Cfg].Interactive;
    Lag.push_back((static_cast<double>(Q.SendNs) - Due) * 1e-6);
    ++Rep.Attempted;
    if (!Q.Done) {
      Rep.fail("serve.timeout");
      continue;
    }
    LastNs = std::max(LastNs, Q.DoneNs);
    if (!Q.Fail.empty()) {
      bool Wrong = Q.Fail != "overloaded" && Q.Fail != "error";
      Overloaded += Q.Fail == "overloaded";
      if (Wrong)
        Rep.Correct = false;
      Rep.fail("serve." + Q.Fail + ":" + Cfgs[Q.Cfg].Key);
      continue;
    }
    if (!Bulk)
      Lat.push_back((Q.DoneNs - Due) * 1e-6);
    if (Q.AcceptNs)
      Accept.push_back((Q.AcceptNs - Q.SendNs) * 1e-6);
    if (Q.FirstProbeNs)
      First.push_back((Q.FirstProbeNs - Q.SendNs) * 1e-6);
    if (Q.LastProbeNs)
      AfterLast.push_back((Q.DoneNs - Q.LastProbeNs) * 1e-6);
    if (Bulk)
      Slices.push_back(static_cast<double>(Q.Checkpoints));
  }
  // From the first due time to the last outcome.
  Rep.num("serve.wall_s", std::max(1e-9, (LastNs - Base) * 1e-9));
  Rep.num("serve.probe_events", static_cast<double>(Obs.ProbeEvents));
  Rep.num("serve.overloaded", static_cast<double>(Overloaded));
  Rep.num("serve.submits", static_cast<double>(Reqs.size()));
  Rep.num("serve.evictions", Obs.Evictions);
  Rep.num("serve.resident_bytes_max", Obs.MaxResidentBytes);
  Rep.samples("serve.fairness") = Obs.Fairness;
  json::Value V;
  control(C[0], "{\"op\":\"shutdown\"}", "shutdown", V);
  D.stop(10000);

  // Same mix, same schedule, no daemon: the protocol and transport cost is
  // the gap.
  Rng R2(O.Seed);
  sessionBaseline(schedule(Seconds, Cfgs, R2), Cfgs, Rep);
  return 0;
}
