//===- perfbench/harness/InProc.cpp - kernels and monitored workloads ------===//
//
// Both workloads are closed loops with one in-process caller. A job is one
// program run from source: parse (and, for `monitored`, annotate), then
// evaluate on one backend. Jobs come in rounds: each round runs every
// (family, density, backend) once, at a size the seed draws from the
// family's range, in seeded order. So every run sees the same mix of
// families, densities and backends, and the sizes vary with the seed.
//
// With --trace the loop runs twice, untraced then traced: the traced half
// calls the layers one by one (parse, annotate, resolve, compile, lower,
// AOT load, run) with a span around each, and wraps every monitor in a
// timing wrapper, so the per-layer self time and the tracing overhead come
// from the same mix.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Resolver.h"
#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <streambuf>
#include <tuple>

using namespace monsem;
using namespace pb;

namespace {

/// The dense density's tracer writes here: every byte is formatted, none
/// is kept.
class NullBuf : public std::streambuf {
protected:
  int overflow(int C) override { return C; }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    return N;
  }
};
NullBuf GNullBuf;
std::ostream GDiscard(&GNullBuf);

struct Config {
  Kernel K;
  Density D = Density::None;
  std::string Target;
  std::string Backend;
  std::string Key; ///< Expected-steps key without the backend.
  Expected E;
  /// Which half of the mix the job belongs to, for latency_ms_p99_low and
  /// latency_ms_p99_high: 0 light, 1 heavy, -1 neither.
  int Class = -1;
};

/// Configurations up to this many CEK steps are also checked against the
/// Direct interpreter when expected values are generated.
constexpr uint64_t kDirectMaxSteps = 20000;

/// The sparse density profiles the entry function, which every program
/// calls once: a recursive function would make it as dense as medium.
const char *const kSparseTarget = "main";

std::string stepKey(const char *Workload, const Kernel &K, Density D,
                    const std::string &Target) {
  std::string S = std::string(Workload) + "|" + K.key();
  if (D != Density::None)
    S += std::string("|") + densityName(D) + "|" + Target;
  return S;
}

/// The answers of the closed forms must agree with the paper's functional
/// where it can run; this pins the references the large sizes rely on.
void referencesAgreeWithDirect(Report &Rep) {
  const std::vector<Kernel> Small = {
      {Family::Fib, {10}},    {Family::Tak, {6, 4, 2}},
      {Family::Ack, {2, 3}},  {Family::Ack, {3, 2}},
      {Family::Down, {50}},   {Family::SumList, {30}},
      {Family::MSort, {12}},
  };
  for (const Kernel &K : Small) {
    auto P = ParsedProgram::parse(K.source());
    RunResult R = runOracle(P->root(), Cascade());
    ++Rep.Attempted;
    if (R.St != Outcome::Ok || R.ValueText != K.reference()) {
      std::cerr << "perfbench: closed form disagrees with Direct on "
                << K.key() << ": " << R.ValueText << " vs " << K.reference()
                << '\n';
      Rep.fail("reference");
      Rep.Correct = false;
    }
  }
}

EvalMode modeFor(const Config &C, Prepared &P, bool Timed,
                 const std::string &AotDir) {
  EvalMode M = P.cascade(Timed);
  M.B = backendFromName(C.Backend);
  M.AotCacheDir = AotDir;
  return M;
}

/// The traced job: each layer called on its own, as evaluate() would.
RunResult runLayered(const Config &C, Prepared &P, const std::string &AotDir,
                     Spans &S, uint64_t Job) {
  EvalMode Mode = modeFor(C, P, /*Timed=*/true, AotDir);
  {
    Scope Sp(S, "analysis.resolve", Job);
    resolveProgramCached(P.Root);
  }
  uint64_t MonBefore = 0;
  for (const auto &T : P.Timed)
    MonBefore += T->PreNs + T->PostNs;
  auto MonitorNs = [&] {
    uint64_t N = 0;
    for (const auto &T : P.Timed)
      N += T->PreNs + T->PostNs;
    return N - MonBefore;
  };
  if (Mode.B == Backend::CEK) {
    Scope Sp(S, "interp.cek", Job);
    RunResult R = evaluate(Mode, P.Root);
    S.exclude(Sp.index(), "monitor.hooks", MonitorNs());
    return R;
  }
  RunOptions Opts = Mode.runOptions();
  DiagnosticSink Diags;
  CompileOptions CO;
  CO.Instrument = !Mode.C.empty();
  std::unique_ptr<CompiledProgram> CP;
  {
    Scope Sp(S, "compile.bytecode", Job);
    CP = compileProgram(P.Root, Diags, CO);
  }
  if (!CP) {
    RunResult R;
    R.Error = Diags.str();
    return R;
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
  const char *Name = Mode.B == Backend::VM         ? "interp.vm"
                     : Mode.B == Backend::VMAot ? "interp.vm_aot"
                                                   : "interp.vm_reg";
  RunResult R;
  {
    Scope Sp(S, Name, Job);
    if (Lib)
      R = runAotProgram(*RP, *Lib, RC.get(), Opts);
    else if (RP)
      R = runRegisterProgram(*RP, RC.get(), Opts);
    else
      R = runCompiled(*CP, RC.get(), Opts);
    S.exclude(Sp.index(), "monitor.hooks", MonitorNs());
  }
  if (RC)
    R.FinalStates = RC->takeStates();
  return R;
}

struct Loop {
  Report &Rep;
  std::vector<Config> &Cfgs;
  std::vector<size_t> Order;
  std::string AotDir;
  Spans S;
  uint64_t NextJob = 0;

  /// Runs jobs until \p Seconds have passed and every latency class holds
  /// \p MinPerClass samples (capped at three times \p Seconds). Samples go
  /// to arrays named with \p Prefix.
  void run(double Seconds, uint64_t MinPerClass, bool Traced,
           const std::string &Prefix) {
    S.On = Traced;
    std::vector<double> &Lat = Rep.samples(Prefix + "latency_ms");
    std::vector<double> &Low = Rep.samples(Prefix + "latency_ms_low");
    std::vector<double> &High = Rep.samples(Prefix + "latency_ms_high");
    // Per passing job, in order: when it finished and its steps, so
    // run.py can take medians over segments of the run.
    std::vector<double> &JobT = Rep.samples(Prefix + "job_t_s");
    std::vector<double> &JobSteps = Rep.samples(Prefix + "job_steps");
    double Steps = 0;
    uint64_t Jobs = 0;
    uint64_t T0 = nowNs();
    for (;;) {
      double El = (nowNs() - T0) * 1e-9;
      bool Enough = Jobs >= kMinJobs &&
                    Low.size() >= MinPerClass && High.size() >= MinPerClass;
      if ((El >= Seconds && Enough) || El >= 3 * Seconds)
        break;
      const Config &C = Cfgs[Order[NextJob % Order.size()]];
      uint64_t Job = NextJob++;
      std::string Why;
      uint64_t Start = nowNs();
      RunResult R;
      std::unique_ptr<Prepared> P;
      {
        Scope Root(S, "bench.job", Job);
        P = prepare(C.K, C.D, C.Target, &GDiscard, Traced ? &S : nullptr,
                    Job);
        if (Traced) {
          R = runLayered(C, *P, AotDir, S, Job);
        } else {
          EvalMode M = modeFor(C, *P, false, AotDir);
          R = evaluate(M, P->Root);
        }
      }
      double Ms = (nowNs() - Start) * 1e-6;
      ++Jobs;
      ++Rep.Attempted;
      // Probe streams are checked by verifyProbes, outside the timed loop.
      Expected E = C.E;
      E.HasProbes = false;
      if (!checkRun(R, E, P->Names, 0, Why)) {
        Rep.fail(Why + ":" + C.Key + ":" + C.Backend);
        Rep.Correct = false;
        continue;
      }
      Lat.push_back(Ms);
      if (C.Class == 0)
        Low.push_back(Ms);
      else if (C.Class == 1)
        High.push_back(Ms);
      Steps += static_cast<double>(R.Steps);
      JobT.push_back((nowNs() - T0) * 1e-9);
      JobSteps.push_back(static_cast<double>(R.Steps));
      Rep.add(Prefix + "events", static_cast<double>(eventsOf(*P)));
      if (Traced && C.D != Density::None) {
        // Probe events per step, per density: the span F11 is about.
        std::string D = densityName(C.D);
        Rep.add(Prefix + "events." + D, static_cast<double>(eventsOf(*P)));
        Rep.add(Prefix + "steps." + D, static_cast<double>(R.Steps));
      }
    }
    Rep.num(Prefix + "wall_s", (nowNs() - T0) * 1e-9);
    Rep.num(Prefix + "jobs", static_cast<double>(Jobs));
    Rep.num(Prefix + "steps", Steps);
  }

  static uint64_t eventsOf(const Prepared &P) {
    uint64_t N = 0;
    for (const auto &T : P.Timed)
      N += T->PreCalls + T->PostCalls;
    return N;
  }
};

/// Probe streams are checked outside the timed loop: once per
/// configuration, with hashing wrappers, against the Direct oracle.
void verifyProbes(std::vector<Config> &Cfgs, const std::string &AotDir,
                  Report &Rep) {
  for (const Config &C : Cfgs) {
    if (!C.E.HasProbes)
      continue;
    auto P = prepare(C.K, C.D, C.Target, &GDiscard);
    EvalMode M = modeFor(C, *P, /*Timed=*/true, AotDir);
    RunResult R = evaluate(M, P->Root);
    std::string Why;
    ++Rep.Attempted;
    if (!checkRun(R, C.E, P->Names, P->ProbeHash, Why)) {
      Rep.fail(Why + ":" + C.Key + ":" + C.Backend);
      Rep.Correct = false;
    }
  }
}

/// Compiles every vm-aot program into a fresh cache directory and runs one
/// step of each, so the timed loop starts with loaded native code.
void warmAot(const std::vector<Config> &Cfgs, const std::string &AotDir) {
  std::vector<std::string> Seen;
  for (const Config &C : Cfgs) {
    if (C.Backend != "vm-aot")
      continue;
    std::string Id = C.Key;
    if (std::find(Seen.begin(), Seen.end(), Id) != Seen.end())
      continue;
    Seen.push_back(Id);
    auto P = prepare(C.K, C.D, C.Target, &GDiscard);
    Cascade Cas = P->cascade(false);
    EvalMode M = EvalMode(Cas) & kVMAot & maxSteps(1);
    M.AotCacheDir = AotDir;
    evaluate(M, P->Root);
  }
}

/// \p Rounds rounds of jobs: each group of configurations that differ only
/// in size adds one member, drawn by \p R, and the round is shuffled.
std::vector<size_t> drawOrder(const std::vector<Config> &Cfgs, Rng &R,
                              size_t Rounds) {
  std::map<std::tuple<int, int, std::string>, std::vector<size_t>> Groups;
  for (size_t I = 0; I < Cfgs.size(); ++I)
    Groups[{static_cast<int>(Cfgs[I].K.F), static_cast<int>(Cfgs[I].D),
            Cfgs[I].Backend}]
        .push_back(I);
  std::vector<size_t> Order;
  for (size_t Round = 0; Round < Rounds; ++Round) {
    size_t From = Order.size();
    for (const auto &[Key, Members] : Groups)
      Order.push_back(Members[R.below(Members.size())]);
    for (size_t I = Order.size() - From; I > 1; --I)
      std::swap(Order[From + I - 1], Order[From + R.below(I)]);
  }
  return Order;
}

int finishSetup(const Options &O, Report &Rep) {
  Rep.num("setup_s", sinceStartS(O));
  if (O.SetupOnly) {
    Rep.Attempted = std::max<uint64_t>(Rep.Attempted, 1);
    return 1;
  }
  return 0;
}

int runInProc(const Options &O, Report &Rep, bool Monitored) {
  Rng R(O.Seed);
  ExpectTable Table;
  if (!Table.load(O.Steps)) {
    std::cerr << "perfbench: cannot read " << O.Steps << '\n';
    return 2;
  }
  const char *W = Monitored ? "monitored" : "kernels";
  std::vector<std::string> Backends =
      Monitored ? std::vector<std::string>{"cek", "vm-reg", "vm-aot"}
                : std::vector<std::string>{"cek", "vm", "vm-reg", "vm-aot"};
  std::vector<Density> Ds =
      Monitored ? std::vector<Density>{Density::Sparse, Density::Medium,
                                       Density::Dense}
                : std::vector<Density>{Density::None};

  referencesAgreeWithDirect(Rep);

  std::vector<Config> Cfgs;
  std::vector<Kernel> Sizes = Monitored ? monitoredSizes() : kernelSizes();
  for (const Kernel &K : Sizes) {
    for (Density D : Ds) {
      for (const std::string &B : Backends) {
        Config C;
        C.K = K;
        C.D = D;
        C.Target = D == Density::Sparse ? kSparseTarget : "*";
        C.Backend = B;
        C.Key = stepKey(W, K, D, C.Target);
        C.E.Answer = K.reference();
        C.E.Steps = Table.get(C.Key, B);
        if (Monitored) {
          C.E.FinalsHash =
              Table.get(C.Key, B == "cek" ? "finals-cek" : "finals-vm");
          C.E.ProbeHash = Table.get(C.Key, "probes");
          C.E.HasFinals = C.E.HasProbes = true;
        }
        if (!C.E.Steps) {
          std::cerr << "perfbench: no expected values for " << C.Key
                    << " on " << B << '\n';
          return 2;
        }
        if (Monitored)
          C.Class = D == Density::Sparse ? 0 : D == Density::Dense ? 1 : -1;
        Cfgs.push_back(std::move(C));
      }
    }
  }
  if (!Monitored) {
    // Light and heavy halves of the mix, split at the median step count.
    std::vector<uint64_t> Steps;
    for (const Config &C : Cfgs)
      Steps.push_back(C.E.Steps);
    std::sort(Steps.begin(), Steps.end());
    uint64_t Mid = Steps[Steps.size() / 2];
    for (Config &C : Cfgs)
      C.Class = C.E.Steps < Mid ? 0 : 1;
  }

  Loop L{Rep, Cfgs, drawOrder(Cfgs, R, 512), O.Work + "/aot", {}};
  warmAot(Cfgs, L.AotDir);
  if (int Rc = finishSetup(O, Rep))
    return Rc;

  if (!O.Trace) {
    L.run(O.Seconds, kMinJobs, false, "");
  } else {
    L.run(O.Seconds / 2, 0, false, "untraced.");
    L.run(O.Seconds / 2, 0, true, "traced.");
    L.S.writeJsonl(O.SpansOut);
    runLayerSweep(O, Rep);
  }
  verifyProbes(Cfgs, L.AotDir, Rep);
  Rep.num("peak_rss_mb", selfPeakRssMb());
  return 0;
}

} // namespace

int pb::runKernels(const Options &O, Report &Rep) {
  return runInProc(O, Rep, false);
}

int pb::runMonitored(const Options &O, Report &Rep) {
  return runInProc(O, Rep, true);
}

namespace {

int disagree(const std::string &Key, const std::string &B,
             const std::string &What) {
  std::cerr << "gen-expected: " << Key << " on " << B << ": " << What << '\n';
  return 1;
}

/// Rows for one workload's kernels: steps per backend; for monitored
/// densities also finals (per backend class) and the probe-stream hash.
/// \p SparseTarget: the function the sparse density profiles ("*": all).
int genKernelRows(ExpectTable &T, const char *W,
                  const std::vector<Kernel> &Sizes,
                  const std::vector<Density> &Ds,
                  const std::string &SparseTarget,
                  const std::string &AotDir) {
  for (const Kernel &K : Sizes) {
    for (Density D : Ds) {
      std::string Tg = D == Density::Sparse ? SparseTarget : "*";
      std::string Key = stepKey(W, K, D, Tg);
      uint64_t VmSteps = 0, CekSteps = 0;
      std::vector<std::pair<uint64_t, uint64_t>> Seen; // finals, probes
      for (const char *B : {"cek", "vm", "vm-reg", "vm-aot"}) {
        auto P = prepare(K, D, Tg, &GDiscard);
        EvalMode M = P->cascade(true);
        M.B = backendFromName(B);
        M.AotCacheDir = AotDir;
        RunResult R = evaluate(M, P->Root);
        if (R.St != Outcome::Ok || R.ValueText != K.reference())
          return disagree(Key, B, "answer " + R.ValueText + R.Error);
        // The three bytecode tiers promise identical step counts.
        if (std::string(B) != "cek") {
          if (VmSteps && VmSteps != R.Steps)
            return disagree(Key, B, "steps");
          VmSteps = R.Steps;
        } else {
          CekSteps = R.Steps;
        }
        T.put(Key, B, R.Steps);
        // Probe streams agree across all backends; finals agree across
        // the bytecode tiers (the cost monitor counts backend steps).
        Seen.emplace_back(finalsHash(P->Names, R), P->ProbeHash);
        if (Seen.back().second != Seen.front().second ||
            (Seen.size() > 2 && Seen.back().first != Seen[1].first))
          return disagree(Key, B, "finals or probes");
      }
      if (D == Density::None)
        continue;
      T.put(Key, "finals-cek", Seen[0].first);
      T.put(Key, "finals-vm", Seen[1].first);
      T.put(Key, "probes", Seen[0].second);
      // Where the paper's functional can run, its probe stream must agree
      // too; its CPS needs C stack and heap in proportion to the whole
      // run, so only the small configurations are confirmed.
      uint64_t Confirmed = 0;
      if (CekSteps <= kDirectMaxSteps) {
        auto P = prepare(K, D, Tg, &GDiscard);
        RunResult R = runOracle(P->Root, P->cascade(true));
        if (R.ValueText != K.reference() || P->ProbeHash != Seen[0].second)
          return disagree(Key, "direct", "answer or probes");
        Confirmed = 1;
      }
      T.put(Key, "direct", Confirmed);
    }
  }
  return 0;
}

} // namespace

std::string pb::configKey(const char *Workload, const Kernel &K, Density D,
                          const std::string &Target) {
  return stepKey(Workload, K, D, Target);
}

int pb::genExpected(const Options &O) {
  ExpectTable T;
  std::string AotDir = O.Work + "/aot";
  if (genKernelRows(T, "kernels", kernelSizes(), {Density::None}, "*",
                    AotDir) ||
      genKernelRows(T, "monitored", monitoredSizes(),
                    {Density::Sparse, Density::Medium, Density::Dense},
                    kSparseTarget, AotDir) ||
      genKernelRows(T, "serve", serveInteractiveSizes(),
                    {Density::Sparse, Density::Medium}, "*", AotDir) ||
      genKernelRows(T, "serve", serveBulkSizes(), {Density::None}, "*",
                    AotDir))
    return 1;
  if (O.Monsem.empty()) {
    std::cerr << "gen-expected: --monsem and --root are required\n";
    return 1;
  }
  if (genCliExpected(O, T))
    return 1;
  if (!T.save(O.Steps))
    return 1;
  std::cout << "wrote " << T.size() << " rows to " << O.Steps << '\n';
  return 0;
}

int pb::selfTest(const Options &O) {
  // The profile monitor counts calls, which every backend and the Direct
  // interpreter agree on, so Direct's finals are the expectation here.
  Kernel K{Family::Fib, {10}};
  auto P = prepare(K, Density::Sparse, "*", &GDiscard);
  RunResult Ref = runOracle(P->Root, P->cascade(true));
  Expected E;
  E.Answer = K.reference();
  E.FinalsHash = finalsHash(P->Names, Ref);
  E.HasFinals = E.HasProbes = true;
  E.ProbeHash = P->ProbeHash;

  int Bad = 0;
  auto Expect = [&](bool Got, bool Want, const char *What) {
    if (Got != Want) {
      std::cout << "FAIL " << What << '\n';
      ++Bad;
    } else {
      std::cout << "ok   " << What << '\n';
    }
  };
  for (const char *B : {"cek", "vm-reg"}) {
    auto Q = prepare(K, Density::Sparse, "*", &GDiscard);
    EvalMode M = Q->cascade(true);
    M.B = backendFromName(B);
    M.AotCacheDir = O.Work + "/aot";
    RunResult R = evaluate(M, Q->Root);
    std::string Why;
    Expect(checkRun(R, E, Q->Names, Q->ProbeHash, Why), true,
           "a correct run passes");
    Expected Wrong = E;
    Wrong.Answer = "56";
    Expect(checkRun(R, Wrong, Q->Names, Q->ProbeHash, Why) ||
               Why != "answer",
           false, "a wrong answer is rejected");
    Wrong = E;
    Wrong.Steps = R.Steps + 1;
    Expect(checkRun(R, Wrong, Q->Names, Q->ProbeHash, Why) || Why != "steps",
           false, "a wrong step count is rejected");
    Wrong = E;
    Wrong.FinalsHash ^= 1;
    Expect(checkRun(R, Wrong, Q->Names, Q->ProbeHash, Why) ||
               Why != "finals",
           false, "wrong monitor finals are rejected");
    Expect(checkRun(R, E, Q->Names, Q->ProbeHash ^ 1, Why) ||
               Why != "probes",
           false, "a wrong probe stream is rejected");
  }
  return Bad ? 1 : 0;
}
