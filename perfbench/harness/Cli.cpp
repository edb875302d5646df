//===- perfbench/harness/Cli.cpp - The cli-corpus workload -----------------===//
//
// A closed loop with one client that execs `monsem` serially over
// examples/programs: every .lam file with and without --prelude (quicksort
// needs it), on cek, vm, vm-reg and vm-aot, unmonitored and with --profile;
// every .imp file unmonitored and with --imp-profile. Each round runs every
// combination once in seeded order. vm-aot jobs use a cache warmed during
// set-up, except a fixed seeded share (one in kColdEvery) that points
// --aot-cache at an empty directory, so `cc` runs before the first step.
//
// A job is timed from spawn to exit. Its stdout must hash to the value in
// expected.tsv, which gen-expected takes from all four backends agreeing
// (and `--backend=direct` where that finishes).
//
// After each job the loop also execs a process-start reference (pbref, a C++
// program that starts like monsem and exits; none of monsem's code) and
// records its time beside the job's; at the start of each round it runs a
// compiler reference, the command a cold job runs, on a fixed one-line C
// file. The cost of starting a process
// and of running `cc` drift by tens of percent over seconds to minutes on a
// shared host; run.py divides the first out of the warm jobs, which are
// mostly process start, and the second out of the cold ones, which are
// mostly `cc` (see metrics.py).
//
// The traced run also replays each job in-process through the calls
// runFunctional makes (parse, prelude, annotate, resolve, compile, lower,
// AOT load, run) and reports what the replay does not explain.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Resolver.h"
#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "monitors/Profiler.h"
#include "syntax/Annotator.h"
#include "syntax/Prelude.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace monsem;
using namespace pb;
namespace fs = std::filesystem;

namespace {

/// One vm-aot job in this many runs against an empty cache.
constexpr unsigned kColdEvery = 16;


/// The input every .imp program reads (only average.imp reads any).
const char *kImpInput = "--input=3,10,20,12";

struct CliJob {
  std::string File; ///< Path relative to the repository root.
  bool Imp = false;
  bool Prelude = false;
  bool Profile = false;
  std::string Backend; ///< "" for .imp programs.

  std::string key() const {
    return "cli|" + fs::path(File).filename().string() + "|" +
           (Prelude ? "prelude" : "-") + "|" + (Profile ? "profile" : "-");
  }
  std::vector<std::string> argv(const Options &O,
                                const std::string &AotDir) const {
    std::vector<std::string> A = {O.Monsem, O.Root + "/" + File};
    if (Imp) {
      A.push_back("--imp");
      A.push_back(kImpInput);
      if (Profile)
        A.push_back("--imp-profile");
      return A;
    }
    if (Prelude)
      A.push_back("--prelude");
    A.push_back("--backend=" + Backend);
    if (Profile)
      A.push_back("--profile");
    if (Backend == "vm-aot")
      A.push_back("--aot-cache=" + AotDir);
    return A;
  }
};

std::vector<CliJob> corpus(const Options &O,
                           const std::vector<std::string> &Backends) {
  std::vector<std::string> Files;
  for (const auto &E : fs::directory_iterator(O.Root + "/examples/programs"))
    Files.push_back("examples/programs/" + E.path().filename().string());
  std::sort(Files.begin(), Files.end());
  std::vector<CliJob> Jobs;
  for (const std::string &F : Files) {
    bool Imp = fs::path(F).extension() == ".imp";
    for (bool Profile : {false, true}) {
      if (Imp) {
        Jobs.push_back({F, true, false, Profile, ""});
        continue;
      }
      for (bool Prelude : {false, true}) {
        // The one corpus program that needs the prelude's list functions.
        if (!Prelude && fs::path(F).filename() == "quicksort.lam")
          continue;
        for (const std::string &B : Backends)
          Jobs.push_back({F, false, Prelude, Profile, B});
      }
    }
  }
  return Jobs;
}

} // namespace

ExecResult pb::execCapture(const std::vector<std::string> &Argv) {
  ExecResult R;
  int P[2];
  if (pipe(P) != 0)
    return R;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, P[1], 1);
  posix_spawn_file_actions_addclose(&FA, P[0]);
  posix_spawn_file_actions_addclose(&FA, P[1]);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  uint64_t T0 = nowNs();
  pid_t Pid;
  int Rc = posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  close(P[1]);
  if (Rc != 0) {
    close(P[0]);
    return R;
  }
  char Buf[4096];
  ssize_t N;
  while ((N = read(P[0], Buf, sizeof(Buf))) > 0 || (N < 0 && errno == EINTR))
    if (N > 0)
      R.Out.append(Buf, static_cast<size_t>(N));
  close(P[0]);
  int Status = 0;
  rusage RU{};
  while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  R.WallNs = nowNs() - T0;
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  R.MaxRssMb = RU.ru_maxrss / 1024.0;
  return R;
}

namespace {

/// The in-process replay of one job: the calls runFunctional (or
/// runImperative) makes, each under its own span. Returns the run.
RunResult replay(const CliJob &J, const std::string &Source,
                 const std::string &AotDir, Spans &S, uint64_t Job) {
  if (J.Imp) {
    ImpContext Ctx;
    DiagnosticSink Diags;
    const Cmd *Prog;
    {
      Scope Sp(S, "syntax.parse", Job);
      Prog = parseImpProgram(Ctx, Source, Diags);
    }
    ImpStmtProfiler Prof;
    ImpCascade C;
    if (J.Profile)
      C.use(Prof);
    ImpRunOptions Opts;
    Opts.Input = {3, 10, 20, 12};
    RunResult Out;
    Scope Sp(S, "interp.imp", Job);
    ImpRunResult R = runImp(C, Prog, Opts);
    Out.setOutcome(R.Ok ? Outcome::Ok : Outcome::Error);
    Out.Steps = R.Steps;
    return Out;
  }
  std::unique_ptr<ParsedProgram> P;
  {
    Scope Sp(S, "syntax.parse", Job);
    P = ParsedProgram::parse(Source);
  }
  const Expr *Prog = P->root();
  if (J.Prelude) {
    Scope Sp(S, "syntax.prelude", Job);
    DiagnosticSink PD;
    Prog = wrapWithPrelude(P->context(), Prog, PD);
  }
  CallProfiler Prof;
  EvalMode Mode;
  if (J.Profile) {
    Scope Sp(S, "syntax.annotate", Job);
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    Prog = annotateFunctionBodies(P->context(), Prog, {}, AO);
    Mode.C.use(Prof);
  }
  Mode.B = backendFromName(J.Backend);
  Mode.AotCacheDir = AotDir;
  {
    Scope Sp(S, "analysis.resolve", Job);
    resolveProgramCached(Prog);
  }
  if (Mode.B == Backend::CEK) {
    Scope Sp(S, "interp.cek", Job);
    return evaluate(Mode, Prog);
  }
  RunOptions Opts = Mode.runOptions();
  DiagnosticSink Diags;
  CompileOptions CO;
  CO.Instrument = !Mode.C.empty();
  std::unique_ptr<CompiledProgram> CP;
  {
    Scope Sp(S, "compile.bytecode", Job);
    CP = compileProgram(Prog, Diags, CO);
  }
  std::unique_ptr<RegProgram> RP;
  if (Mode.B != Backend::VM) {
    Scope Sp(S, "compile.lower", Job);
    RP = lowerToRegisters(*CP);
  }
  std::shared_ptr<const AotLibrary> Lib;
  if (Mode.B == Backend::VMAot && RP) {
    Scope Sp(S, "compile.aot_load", Job);
    Lib = aotLoad(*RP, AotDir, nullptr);
  }
  std::unique_ptr<RuntimeCascade> RC;
  if (!Mode.C.empty())
    RC = std::make_unique<RuntimeCascade>(Mode.C);
  RunResult R;
  Scope Sp(S,
           Mode.B == Backend::VM      ? "interp.vm"
           : Mode.B == Backend::VMAot ? "interp.vm_aot"
                                      : "interp.vm_reg",
           Job);
  if (Lib)
    R = runAotProgram(*RP, *Lib, RC.get(), Opts);
  else if (RP)
    R = runRegisterProgram(*RP, RC.get(), Opts);
  else
    R = runCompiled(*CP, RC.get(), Opts);
  return R;
}

/// The size of the C that a cold vm-aot run of \p J hands to `cc`: the
/// front end of replay(), then aotEmitSource.
size_t aotSourceBytes(const CliJob &J, const std::string &Source) {
  std::unique_ptr<ParsedProgram> P = ParsedProgram::parse(Source);
  const Expr *Prog = P->root();
  DiagnosticSink Diags;
  if (J.Prelude)
    Prog = wrapWithPrelude(P->context(), Prog, Diags);
  if (J.Profile) {
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    Prog = annotateFunctionBodies(P->context(), Prog, {}, AO);
  }
  resolveProgramCached(Prog);
  CompileOptions CO;
  CO.Instrument = J.Profile;
  std::unique_ptr<CompiledProgram> CP = compileProgram(Prog, Diags, CO);
  std::unique_ptr<RegProgram> RP = CP ? lowerToRegisters(*CP) : nullptr;
  return RP ? aotEmitSource(*RP).size() : 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Runs \p Jobs' vm-aot entries once each into \p AotDir, four at a time.
void warmAot(const Options &O, const std::vector<CliJob> &Jobs,
             const std::string &AotDir) {
  std::vector<const CliJob *> Aot;
  for (const CliJob &J : Jobs)
    if (J.Backend == "vm-aot")
      Aot.push_back(&J);
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&] {
      for (size_t I; (I = Next++) < Aot.size();)
        execCapture(Aot[I]->argv(O, AotDir));
    });
  for (std::thread &T : Ts)
    T.join();
}

} // namespace

int pb::runCliCorpus(const Options &O, Report &Rep) {
  Rng R(O.Seed);
  ExpectTable Table;
  if (!Table.load(O.Steps)) {
    std::cerr << "perfbench: cannot read " << O.Steps << '\n';
    return 2;
  }
  std::vector<CliJob> Jobs = corpus(O, {"cek", "vm", "vm-reg", "vm-aot"});
  std::vector<uint64_t> Want(Jobs.size()), Steps(Jobs.size());
  std::vector<std::string> Sources(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const CliJob &J = Jobs[I];
    Want[I] = Table.get(J.key(), "stdout");
    Steps[I] = Table.get(J.key(), J.Imp ? "imp" : J.Backend);
    Sources[I] = readFile(O.Root + "/" + J.File);
    if (!Want[I] || !Steps[I]) {
      std::cerr << "perfbench: no expected values for " << J.key() << '\n';
      return 2;
    }
  }
  // The cold share: each vm-aot combination is cold in one round out of
  // every kColdEvery. A cold job costs a hundred warm ones and its cost
  // follows the size of its C (several times larger with --prelude and
  // without --profile), and a run ends partway through a cycle of
  // kColdEvery rounds. So the combinations are dealt to the rounds by that
  // size: the K-th largest goes to round (7K + seeded offset) mod
  // kColdEvery, and any stretch of consecutive rounds gets large and small
  // ones alike. A run's tail then does not depend on where it ends.
  std::vector<size_t> AotJobs;
  std::vector<size_t> CBytes(Jobs.size(), 0);
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (Jobs[I].Backend == "vm-aot") {
      AotJobs.push_back(I);
      CBytes[I] = aotSourceBytes(Jobs[I], Sources[I]);
    }
  std::stable_sort(AotJobs.begin(), AotJobs.end(), [&](size_t A, size_t B) {
    return CBytes[A] > CBytes[B];
  });
  uint64_t ColdOffset = R.below(kColdEvery);
  std::vector<unsigned> ColdSlot(Jobs.size(), kColdEvery);
  for (size_t K = 0; K < AotJobs.size(); ++K)
    ColdSlot[AotJobs[K]] =
        static_cast<unsigned>((7 * K + ColdOffset) % kColdEvery);

  std::string WarmDir = O.Work + "/aot-warm";
  warmAot(O, Jobs, WarmDir);
  // The process-start reference, built beside this binary (Ref.cpp).
  std::string HostRef =
      (fs::read_symlink("/proc/self/exe").parent_path() / "pbref").string();
  // The compiler reference: the command AotEmit.cpp runs, with the same
  // compiler, on a C file that no change to monsem can alter.
  std::string CcRef;
  {
    std::string CPath = O.Work + "/cc-ref.c", SoPath = O.Work + "/cc-ref.so";
    std::ofstream(CPath) << "int monsem_bench_ref(int x) { return x + 1; }\n";
    const char *Cc = std::getenv("MONSEM_AOT_CC");
    CcRef = "'" + std::string(Cc && *Cc ? Cc : "cc") +
            "' -O2 -fPIC -shared -fexceptions -w -o '" + SoPath + "' '" +
            CPath + "' 2>/dev/null";
  }
  Rep.num("setup_s", sinceStartS(O));
  if (O.SetupOnly) {
    Rep.Attempted = 1;
    return 1;
  }

  Spans S;
  uint64_t NextJob = 0, Round = 0;
  std::vector<size_t> Order;
  double MaxRss = 0;
  auto Loop = [&](double Seconds, uint64_t MinPerClass, bool Traced,
                  const std::string &Pfx) {
    S.On = Traced;
    // Per passing job, in order: its time, the host reference's time just
    // after it, whether it is in the heavy (--prelude) half of the mix, and
    // whether it ran cold.
    std::vector<double> &Lat = Rep.samples(Pfx + "latency_ms");
    std::vector<double> &Ref = Rep.samples(Pfx + "host_ref_ms");
    std::vector<double> &Heavy = Rep.samples(Pfx + "job_heavy");
    std::vector<double> &ColdJob = Rep.samples(Pfx + "job_cold");
    // Per round: the compiler reference's time, and how many passing jobs
    // came before it.
    std::vector<double> &CcRefMs = Rep.samples(Pfx + "cc_ref_ms");
    std::vector<double> &CcRefAt = Rep.samples(Pfx + "cc_ref_at");
    std::vector<double> &Resid = Rep.samples(Pfx + "residual_ms");
    std::vector<double> &JobT = Rep.samples(Pfx + "job_t_s");
    std::vector<double> &JobSteps = Rep.samples(Pfx + "job_steps");
    double StepSum = 0;
    uint64_t Done = 0, Cold = 0, NLow = 0, NHigh = 0;
    uint64_t T0 = nowNs();
    for (size_t Pos = Order.size();; ++Pos) {
      double El = (nowNs() - T0) * 1e-9;
      bool Enough =
          Done >= kMinJobs && NLow >= MinPerClass && NHigh >= MinPerClass;
      if ((El >= Seconds && Enough) || El >= 3 * Seconds)
        break;
      if (Pos >= Order.size()) {
        Order.resize(Jobs.size());
        for (size_t I = 0; I < Jobs.size(); ++I)
          Order[I] = I;
        for (size_t I = Jobs.size(); I > 1; --I)
          std::swap(Order[I - 1], Order[R.below(I)]);
        Pos = 0;
        ++Round;
        ExecResult CcE = execCapture({"/bin/sh", "-c", CcRef});
        if (CcE.Exit == 0) {
          CcRefMs.push_back(CcE.WallNs * 1e-6);
          CcRefAt.push_back(static_cast<double>(Lat.size()));
        }
      }
      size_t Idx = Order[Pos];
      const CliJob &J = Jobs[Idx];
      uint64_t Job = NextJob++;
      bool IsCold = ColdSlot[Idx] == Round % kColdEvery;
      std::string Dir =
          IsCold ? O.Work + "/aot-cold-" + std::to_string(Job) : WarmDir;
      ExecResult E;
      {
        Scope Root(S, "bench.job", Job);
        Scope Ex(S, "tools.exec", Job);
        E = execCapture(J.argv(O, Dir));
      }
      ExecResult RefE = execCapture({HostRef});
      if (RefE.Exit != 0) {
        std::cerr << "perfbench: " << HostRef << " failed\n";
        std::exit(2);
      }
      if (IsCold) {
        std::error_code EC;
        fs::remove_all(Dir, EC);
        ++Cold;
      }
      ++Done;
      ++Rep.Attempted;
      // Every corpus job exits 0 on every backend (gen-expected checks it),
      // so any other exit, a crash included, is a wrong answer.
      if (E.Exit != 0) {
        Rep.fail("exit:" + J.key() + ":" + J.Backend);
        Rep.Correct = false;
        continue;
      }
      if (fnv1a(E.Out) != Want[Idx]) {
        Rep.fail("stdout:" + J.key() + ":" + J.Backend);
        Rep.Correct = false;
        continue;
      }
      double Ms = E.WallNs * 1e-6;
      Lat.push_back(Ms);
      Ref.push_back(RefE.WallNs * 1e-6);
      Heavy.push_back(J.Prelude ? 1 : 0);
      ColdJob.push_back(IsCold ? 1 : 0);
      ++(J.Prelude ? NHigh : NLow);
      StepSum += static_cast<double>(Steps[Idx]);
      JobT.push_back((nowNs() - T0) * 1e-9);
      JobSteps.push_back(static_cast<double>(Steps[Idx]));
      MaxRss = std::max(MaxRss, E.MaxRssMb);
      if (Traced) {
        // The same job in-process, warm: what exec costs beyond it is the
        // residual (process start, dynamic linking, dlopen, output).
        uint64_t R0 = nowNs();
        Scope Rp(S, "bench.replay", Job);
        RunResult RR = replay(J, Sources[Idx], WarmDir, S, Job);
        double ReplayMs = (nowNs() - R0) * 1e-6;
        if (RR.St != Outcome::Ok || RR.Steps != Steps[Idx]) {
          Rep.fail("replay:" + J.key() + ":" + J.Backend);
          Rep.Correct = false;
        }
        if (!IsCold)
          Resid.push_back(Ms - ReplayMs);
      }
    }
    Rep.num(Pfx + "wall_s", (nowNs() - T0) * 1e-9);
    Rep.num(Pfx + "jobs", static_cast<double>(Done));
    Rep.num(Pfx + "cold_jobs", static_cast<double>(Cold));
    Rep.num(Pfx + "steps", StepSum);
  };

  if (!O.Trace) {
    Loop(O.Seconds, kMinJobs, false, "");
  } else {
    Loop(O.Seconds / 2, 0, false, "untraced.");
    Loop(O.Seconds / 2, 0, true, "traced.");
    S.writeJsonl(O.SpansOut);
    runLayerSweep(O, Rep);
  }
  Rep.num("peak_rss_mb", MaxRss);
  return 0;
}

/// Expected values of the corpus: stdout hashes from all four backends
/// agreeing (and Direct, where it finishes), step counts from the replay.
int pb::genCliExpected(const Options &O, ExpectTable &T) {
  std::string AotDir = O.Work + "/aot-gen";
  Spans Off;
  for (const CliJob &J : corpus(O, {"cek"})) {
    std::vector<std::string> Backends = {"cek", "vm", "vm-reg", "vm-aot"};
    if (J.Imp)
      Backends = {""};
    uint64_t Hash = 0;
    std::string Source = readFile(O.Root + "/" + J.File);
    for (const std::string &B : Backends) {
      CliJob K = J;
      K.Backend = B;
      ExecResult E = execCapture(K.argv(O, AotDir));
      uint64_t H = fnv1a(E.Out);
      if (E.Exit != 0 || (Hash && H != Hash)) {
        std::cerr << "gen-expected: " << J.key() << " on " << B
                  << " disagrees (exit " << E.Exit << ")\n";
        return 1;
      }
      Hash = H;
      RunResult R = replay(K, Source, AotDir, Off, 0);
      if (R.St != Outcome::Ok) {
        std::cerr << "gen-expected: replay of " << J.key() << " failed\n";
        return 1;
      }
      T.put(J.key(), J.Imp ? "imp" : B, R.Steps);
    }
    T.put(J.key(), "stdout", Hash);
    uint64_t Confirmed = 0;
    if (!J.Imp) {
      CliJob K = J;
      K.Backend = "direct";
      ExecResult E = execCapture(K.argv(O, AotDir));
      if (E.Exit == 0) {
        if (fnv1a(E.Out) != Hash) {
          std::cerr << "gen-expected: " << J.key() << " disagrees with "
                    << "Direct\n";
          return 1;
        }
        Confirmed = 1;
      }
    }
    T.put(J.key(), "direct", Confirmed);
  }
  return 0;
}
