//===- perfbench/harness/Programs.cpp -------------------------------------===//

#include "Programs.h"

#include "interp/Direct.h"
#include "monitor/Hooks.h"
#include "monitors/CallGraph.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"
#include "syntax/Annotator.h"

#include <algorithm>
#include <fstream>
#include <pthread.h>
#include <stdexcept>

using namespace monsem;
using namespace pb;

namespace {

const char *familyName(Family F) {
  switch (F) {
  case Family::Fib:
    return "fib";
  case Family::Tak:
    return "tak";
  case Family::Ack:
    return "ack";
  case Family::Down:
    return "down";
  case Family::SumList:
    return "sumlist";
  case Family::MSort:
    return "msort";
  }
  return "?";
}

/// The mergesort input for size \p N: fixed per size, so a size names one
/// program (and one expected step count).
std::vector<int64_t> msortInput(int64_t N) {
  Rng R(static_cast<uint64_t>(N) * 7919 + 17);
  std::vector<int64_t> L;
  for (int64_t I = 0; I < N; ++I)
    L.push_back(static_cast<int64_t>(R.below(1000)));
  return L;
}

std::string listText(const std::vector<int64_t> &L) {
  std::string S = "[";
  for (size_t I = 0; I < L.size(); ++I) {
    if (I)
      S += ", ";
    S += std::to_string(L[I]);
  }
  return S + "]";
}

int64_t tak(int64_t X, int64_t Y, int64_t Z) {
  if (Y < X)
    return tak(tak(X - 1, Y, Z), tak(Y - 1, Z, X), tak(Z - 1, X, Y));
  return Z;
}

int64_t ack(int64_t M, int64_t N) {
  switch (M) {
  case 0:
    return N + 1;
  case 1:
    return N + 2;
  case 2:
    return 2 * N + 3;
  case 3:
    return (int64_t(1) << (N + 3)) - 3;
  }
  throw std::runtime_error("ack: no closed form for m > 3");
}

} // namespace

std::string Kernel::key() const {
  std::string S = familyName(F);
  S += ':';
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      S += ',';
    S += std::to_string(Args[I]);
  }
  return S;
}

std::string Kernel::source() const {
  auto A = [&](size_t I) { return std::to_string(Args.at(I)); };
  std::string Defs, Call;
  switch (F) {
  case Family::Fib:
    Defs = "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + "
           "fib (n - 2)";
    Call = "fib " + A(0);
    break;
  case Family::Tak:
    Defs = "letrec tak = lambda x y z. if y < x then tak (tak (x - 1) y z) "
           "(tak (y - 1) z x) (tak (z - 1) x y) else z";
    Call = "tak " + A(0) + " " + A(1) + " " + A(2);
    break;
  case Family::Ack:
    Defs = "letrec ack = lambda m n. if m = 0 then n + 1 else if n = 0 then "
           "ack (m - 1) 1 else ack (m - 1) (ack m (n - 1))";
    Call = "ack " + A(0) + " " + A(1);
    break;
  case Family::Down:
    Defs = "letrec down = lambda n. if n = 0 then 0 else down (n - 1)";
    Call = "down " + A(0);
    break;
  case Family::SumList:
    Defs = "letrec build = lambda n acc. if n = 0 then acc else "
           "build (n - 1) (n : acc) in "
           "letrec sum = lambda l acc. if l = [] then acc else "
           "sum (tl l) (acc + hd l)";
    Call = "sum (build " + A(0) + " []) 0";
    break;
  case Family::MSort:
    Defs = "letrec merge = lambda a b. if a = [] then b else if b = [] then a "
           "else if hd a <= hd b then hd a : merge (tl a) b "
           "else hd b : merge a (tl b) in "
           "letrec split = lambda l. if l = [] then [[], []] "
           "else if tl l = [] then [l, []] "
           "else letrec rest = split (tl (tl l)) in "
           "(hd l : hd rest) : (hd (tl l) : hd (tl rest)) : [] in "
           "letrec msort = lambda l. if l = [] then [] "
           "else if tl l = [] then l "
           "else letrec halves = split l in "
           "merge (msort (hd halves)) (msort (hd (tl halves)))";
    Call = "msort " + listText(msortInput(Args.at(0)));
    break;
  }
  // The entry function `main`, called once, is what the sparse density
  // profiles: its monitoring activity is two probe events per run.
  return Defs + " in letrec main = lambda u. " + Call + " in main 0";
}

std::string Kernel::reference() const {
  switch (F) {
  case Family::Fib: {
    int64_t A = 0, B = 1;
    for (int64_t I = 0; I < Args.at(0); ++I) {
      int64_t T = A + B;
      A = B;
      B = T;
    }
    return std::to_string(A);
  }
  case Family::Tak:
    return std::to_string(tak(Args.at(0), Args.at(1), Args.at(2)));
  case Family::Ack:
    return std::to_string(ack(Args.at(0), Args.at(1)));
  case Family::Down:
    return "0";
  case Family::SumList: {
    int64_t N = Args.at(0);
    return std::to_string(N * (N + 1) / 2);
  }
  case Family::MSort: {
    std::vector<int64_t> L = msortInput(Args.at(0));
    std::sort(L.begin(), L.end());
    return listText(L);
  }
  }
  return "";
}

// Sizes: each job draws one of its family's three sizes from the seed
// (InProc.cpp). Each kernels job runs long enough that the front end is a
// small share of it, and sumlist/msort reach MB-scale arenas, past L2. Monitored
// jobs are smaller: every probe costs far more than a step, and the dense
// tracer indents by call depth, so its output grows with the square of the
// depth of the tail loops (down, build, sum).
std::vector<Kernel> pb::kernelSizes() {
  return {
      {Family::Fib, {18}},          {Family::Fib, {19}},
      {Family::Fib, {20}},          {Family::Tak, {14, 9, 4}},
      {Family::Tak, {16, 10, 5}},   {Family::Tak, {18, 12, 6}},
      {Family::Ack, {2, 300}},      {Family::Ack, {2, 600}},
      {Family::Ack, {3, 6}},        {Family::Down, {200000}},
      {Family::Down, {400000}},     {Family::Down, {600000}},
      {Family::SumList, {40000}},   {Family::SumList, {80000}},
      {Family::SumList, {160000}},  {Family::MSort, {400}},
      {Family::MSort, {800}},       {Family::MSort, {1600}},
  };
}

std::vector<Kernel> pb::monitoredSizes() {
  return {
      {Family::Fib, {12}},       {Family::Fib, {13}},
      {Family::Fib, {14}},       {Family::Tak, {9, 6, 3}},
      {Family::Tak, {12, 8, 4}}, {Family::Tak, {14, 9, 4}},
      {Family::Ack, {2, 40}},    {Family::Ack, {2, 80}},
      {Family::Ack, {3, 3}},     {Family::Down, {300}},
      {Family::Down, {600}},     {Family::Down, {1200}},
      {Family::SumList, {200}},  {Family::SumList, {400}},
      {Family::SumList, {800}},  {Family::MSort, {40}},
      {Family::MSort, {80}},     {Family::MSort, {160}},
  };
}

std::vector<Kernel> pb::serveInteractiveSizes() {
  return {{Family::Fib, {7}},   {Family::Fib, {8}}, {Family::Fib, {9}},
          {Family::MSort, {10}}, {Family::MSort, {20}}};
}

std::vector<Kernel> pb::serveBulkSizes() {
  return {{Family::Down, {100000}}, {Family::SumList, {10000}}};
}

const char *pb::densityName(Density D) {
  switch (D) {
  case Density::None:
    return "none";
  case Density::Sparse:
    return "sparse";
  case Density::Medium:
    return "medium";
  case Density::Dense:
    return "dense";
  }
  return "?";
}

void TimedMonitor::pre(const MonitorEvent &Ev, MonitorState &State) const {
  uint64_t T0 = nowNs();
  Inner.pre(Ev, State);
  PreNs += nowNs() - T0;
  ++PreCalls;
  if (ProbeHash)
    *ProbeHash = fnv1a(probePreText(Ev.Ann) + "\n", *ProbeHash);
}

void TimedMonitor::post(const MonitorEvent &Ev, Value Result,
                        MonitorState &State) const {
  uint64_t T0 = nowNs();
  Inner.post(Ev, Result, State);
  PostNs += nowNs() - T0;
  ++PostCalls;
  if (ProbeHash)
    *ProbeHash = fnv1a(probePostText(Ev.Ann, Result) + "\n", *ProbeHash);
}

uint64_t TimedMonitor::clockOverheadNs() {
  // What the wrapper's window reads around an empty call: the median of
  // back-to-back clock pairs.
  std::vector<uint64_t> D(20001);
  for (uint64_t &X : D) {
    uint64_t A = nowNs();
    X = nowNs() - A;
  }
  std::nth_element(D.begin(), D.begin() + D.size() / 2, D.end());
  return D[D.size() / 2];
}

Cascade Prepared::cascade(bool UseTimed) {
  Cascade C;
  if (UseTimed) {
    if (Timed.empty())
      for (const auto &M : Monitors)
        Timed.push_back(std::make_unique<TimedMonitor>(*M, &ProbeHash));
    for (const auto &T : Timed)
      C.use(*T);
  } else {
    for (const auto &M : Monitors)
      C.use(*M);
  }
  return C;
}

std::unique_ptr<Prepared> pb::prepare(const Kernel &K, Density D,
                                      const std::string &Target,
                                      std::ostream *Discard, Spans *S,
                                      uint64_t Job) {
  static Spans Off;
  Spans &Sp = S ? *S : Off;
  auto Out = std::make_unique<Prepared>();
  std::string Source = K.source();
  {
    Scope Parse(Sp, "syntax.parse", Job);
    Out->P = ParsedProgram::parse(Source);
  }
  if (!Out->P->ok())
    throw std::runtime_error("cannot parse " + K.key() + ": " +
                             Out->P->diags().str());
  const Expr *Root = Out->P->root();
  AstContext &Ctx = Out->P->context();
  auto Annotate = [&](const char *Qual, bool WithParams,
                      std::vector<Symbol> Names) {
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern(Qual);
    AO.WithParams = WithParams;
    Root = annotateFunctionBodies(Ctx, Root, Names, AO);
  };
  auto Add = [&](std::unique_ptr<Monitor> M) {
    Out->Names.emplace_back(M->name());
    Out->Monitors.push_back(std::move(M));
  };
  Scope Ann(Sp, "syntax.annotate", Job);
  switch (D) {
  case Density::None:
    break;
  case Density::Sparse:
    // "*" profiles every function, as `monsem serve` does for "profile".
    Annotate("profile", false,
             Target == "*" ? std::vector<Symbol>{}
                           : std::vector<Symbol>{Symbol::intern(Target)});
    Add(std::make_unique<CallProfiler>());
    break;
  case Density::Medium:
    Annotate("profile", false, {});
    Annotate("cost", false, {});
    Annotate("callgraph", false, {});
    Add(std::make_unique<CallProfiler>());
    Add(std::make_unique<CostProfiler>());
    Add(std::make_unique<CallGraphMonitor>());
    break;
  case Density::Dense: {
    Annotate("trace", true, {});
    unsigned Points = 0;
    Root = labelProgramPoints(Ctx, Root, "p", Symbol::intern("cover"),
                              &Points);
    Add(std::make_unique<Tracer>(Discard));
    Add(std::make_unique<CoverageMonitor>(Points));
    break;
  }
  }
  Out->Root = Root;
  return Out;
}

uint64_t pb::finalsHash(const std::vector<std::string> &Names,
                        const RunResult &R) {
  uint64_t H = fnv1a("finals");
  for (size_t I = 0; I < Names.size() && I < R.FinalStates.size(); ++I)
    H = fnv1a(Names[I] + ": " + R.FinalStates[I]->str() + "\n", H);
  return H;
}

bool pb::checkRun(const RunResult &R, const Expected &E,
                  const std::vector<std::string> &Names, uint64_t ProbeHash,
                  std::string &Why) {
  if (R.St != Outcome::Ok) {
    Why = "outcome";
    return false;
  }
  if (R.ValueText != E.Answer) {
    Why = "answer";
    return false;
  }
  if (E.Steps && R.Steps != E.Steps) {
    Why = "steps";
    return false;
  }
  if (E.HasFinals && finalsHash(Names, R) != E.FinalsHash) {
    Why = "finals";
    return false;
  }
  if (E.HasProbes && ProbeHash != E.ProbeHash) {
    Why = "probes";
    return false;
  }
  return true;
}

void pb::runOnBigStack(const std::function<void()> &Fn, size_t StackBytes) {
  struct Ctx {
    const std::function<void()> *Fn;
    std::exception_ptr Err;
  } C{&Fn, nullptr};
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, StackBytes);
  pthread_t T;
  auto Entry = [](void *P) -> void * {
    auto *C = static_cast<Ctx *>(P);
    try {
      (*C->Fn)();
    } catch (...) {
      C->Err = std::current_exception();
    }
    return nullptr;
  };
  if (pthread_create(&T, &Attr, Entry, &C) != 0) {
    pthread_attr_destroy(&Attr);
    throw std::runtime_error("cannot start the oracle thread");
  }
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
  if (C.Err)
    std::rethrow_exception(C.Err);
}

RunResult pb::runOracle(const Expr *Prog, const Cascade &C) {
  RunResult R;
  runOnBigStack([&] {
    if (!C.empty()) {
      DiagnosticSink Diags;
      if (!C.validateFor(Prog, Diags)) {
        R.setOutcome(Outcome::Error);
        R.Error = Diags.str();
        return;
      }
    }
    DirectOptions D;
    D.CallBudget = 0; // Unbounded: the big stack is the bound.
    R = runDirect(Prog, C.empty() ? nullptr : &C, D);
  });
  return R;
}

bool ExpectTable::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t T2 = Line.rfind('\t');
    if (Line.empty() || Line[0] == '#' || T2 == std::string::npos)
      continue;
    Rows[Line.substr(0, T2)] = std::stoull(Line.substr(T2 + 1));
  }
  return true;
}

uint64_t ExpectTable::get(const std::string &Key,
                        const std::string &Backend) const {
  auto It = Rows.find(Key + "\t" + Backend);
  return It == Rows.end() ? 0 : It->second;
}

bool ExpectTable::save(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "# config\tbackend\tsteps (regenerate: pbharness gen-expected)\n";
  for (const auto &[K, V] : Rows)
    Out << K << '\t' << V << '\n';
  return static_cast<bool>(Out);
}

Backend pb::backendFromName(const std::string &Name) {
  if (Name == "vm")
    return Backend::VM;
  if (Name == "vm-reg")
    return Backend::VMRegister;
  if (Name == "vm-aot")
    return Backend::VMAot;
  if (Name == "direct")
    return Backend::Direct;
  return Backend::CEK;
}
