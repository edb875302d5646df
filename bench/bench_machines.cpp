//===- bench/bench_machines.cpp - A3: evaluator comparison ------------------===//
//
// Ablation A3 (DESIGN.md): the three evaluators on the same programs —
// the direct CPS definitional interpreter (the paper's semantics,
// literally), the CEK machine (production interpreter), and the bytecode
// register tier (the compiled residual). Also: the three evaluation
// strategies ("language modules") on the CEK machine.
//
// Ablation A6: self-tail-call frame reuse on the CEK machine,
// superinstruction fusion on the register tier, and the native tier.
// Every measurement is also emitted as a JSONL record (--json=PATH,
// default BENCH_machines.json in the working directory); --quick shrinks
// the workloads and skips the google-benchmark micros so CI can smoke-test
// the runner.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Direct.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

using namespace monsem;
using namespace monsem::bench;

namespace {

// Small enough for the CPS reference interpreter's C-stack budget.
const char *SmallSrc = "letrec fib = lambda n. if n < 2 then n else "
                       "fib (n - 1) + fib (n - 2) in fib 11";

// Larger workload for CEK vs bytecode.
const char *LargeSrc = "letrec fib = lambda n. if n < 2 then n else "
                       "fib (n - 1) + fib (n - 2) in fib 20";

// A list-heavy workload.
const char *ListSrc =
    "letrec build = lambda n. if n = 0 then [] else n : build (n - 1) in "
    "letrec sum = lambda l. if l = [] then 0 else hd l + sum (tl l) in "
    "letrec go = lambda i. if i = 0 then 0 else "
    "sum (build 60) + go (i - 1) in go 200";

struct Workload {
  const char *Name;
  std::string Src;
};

std::vector<Workload> deepWorkloads(bool Quick) {
  auto Fib = [](int N) {
    return "letrec fib = lambda n. if n < 2 then n else "
           "fib (n - 1) + fib (n - 2) in fib " +
           std::to_string(N);
  };
  auto Tak = [](int X, int Y, int Z) {
    return "letrec tak = lambda x y z. if y < x then "
           "tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y) "
           "else z in tak " +
           std::to_string(X) + " " + std::to_string(Y) + " " +
           std::to_string(Z);
  };
  auto Ack = [](int M, int N) {
    return "letrec ack = lambda m n. if m = 0 then n + 1 else "
           "if n = 0 then ack (m - 1) 1 else ack (m - 1) (ack m (n - 1)) "
           "in ack " +
           std::to_string(M) + " " + std::to_string(N);
  };
  auto Down = [](int N) {
    return "letrec down = lambda n. if n = 0 then 0 else down (n - 1) in "
           "down " +
           std::to_string(N);
  };
  if (Quick)
    return {{"fib 14", Fib(14)},
            {"tak 12 8 4", Tak(12, 8, 4)},
            {"ack 2 6", Ack(2, 6)},
            {"down 20000", Down(20000)},
            {"list sums", ListSrc}};
  return {{"fib 20", Fib(20)},
          {"tak 18 12 6", Tak(18, 12, 6)},
          {"ack 3 5", Ack(3, 5)},
          {"down 100000", Down(100000)},
          {"list sums", ListSrc}};
}

struct Measurement {
  double Ms = 0;
  uint64_t Steps = 0;
  uint64_t ArenaBytes = 0;
};

/// Times one workload on the strict standard semantics, with or without
/// self-tail-call frame reuse. The machine is constructed directly (not
/// via evaluate) so the run's arena footprint is observable.
Measurement measureCEK(const Expr *Prog, bool ReuseTailFrames, int Reps) {
  RunOptions Opts;
  Opts.ReuseTailFrames = ReuseTailFrames;
  Measurement M;
  M.Ms = medianMs(
      [&] {
        StandardMachine Mach(Prog, Opts);
        RunResult R = Mach.run();
        M.Steps = R.Steps;
        M.ArenaBytes = Mach.arenaBytes();
      },
      Reps);
  return M;
}

const char *strategyLabel(Strategy S) { return strategyName(S); }

//===----------------------------------------------------------------------===//
// A6 — self-tail-call frame reuse (CEK) and bytecode fusion
//===----------------------------------------------------------------------===//

/// CEK machine with and without self-tail-call frame reuse. The win is
/// concentrated in loop-shaped workloads (`down N` never grows the arena
/// once reuse is on); call-tree workloads mostly measure "no regression".
void reportTailReuse(JsonlWriter &W, bool Quick) {
  const int Reps = Quick ? 3 : 9;

  std::printf("A6a — CEK self-tail-call frame reuse (strict, no monitor)\n");
  printRule();
  for (const Workload &WL : deepWorkloads(Quick)) {
    auto P = parseOrDie(WL.Src);
    Measurement Base = measureCEK(P->root(), /*ReuseTailFrames=*/false, Reps);
    Measurement On = measureCEK(P->root(), /*ReuseTailFrames=*/true, Reps);
    if (On.Steps != Base.Steps) {
      std::fprintf(stderr, "FAIL: tail-reuse changed step count on %s\n",
                   WL.Name);
      std::exit(1);
    }
    W.write({WL.Name, "tail-reuse", strategyLabel(Strategy::Strict),
             On.Ms * 1e6, On.Steps, On.ArenaBytes});
    std::printf("%-14s no reuse %8.3f ms   reuse %8.3f ms   %.2fx   "
                "arena %.2f -> %.2f MB\n",
                WL.Name, Base.Ms, On.Ms, Base.Ms / On.Ms,
                Base.ArenaBytes / 1048576.0, On.ArenaBytes / 1048576.0);
  }
  printRule();
  std::putchar('\n');
}

/// Superinstruction fusion on the register tier: unfused vs. fused
/// bytecode (+ frame reuse), each compiled once outside the timed region.
/// The fused run must agree with the unfused baseline on answer AND step
/// count — Cost accounting makes fused programs report source-machine
/// steps — before its timing is recorded. Returns the interleaved
/// fused-pipeline speedup on the fib workload so CI can assert a floor on
/// it.
double reportVM(JsonlWriter &W, bool Quick) {
  std::printf("A6b — superinstruction fusion on the register tier\n");
  printRule();
  std::printf("%-14s %12s %12s %9s\n", "workload", "unfused ms", "fused ms",
              "speedup");
  printRule();

  double FibSpeedup = 0;
  bool First = true;
  for (const Workload &WL : deepWorkloads(Quick)) {
    auto P = parseOrDie(WL.Src);
    DiagnosticSink Diags;
    CompileOptions RawCO;
    RawCO.Fuse = false;
    auto Raw = compileProgram(P->root(), Diags, RawCO);
    auto Fused = compileProgram(P->root(), Diags);
    if (!Raw || !Fused) {
      std::fprintf(stderr, "compile failed for %s\n", WL.Name);
      std::exit(1);
    }
    RegProgram RawRP(*Raw);
    RegProgram FusedRP(*Fused);

    RunOptions RefOpts;
    RefOpts.ReuseTailFrames = false;
    RunOptions FusedOpts;
    FusedOpts.ReuseTailFrames = true;
    RunResult Ref = runRegisterProgram(RawRP, nullptr, RefOpts);
    RunResult R = runRegisterProgram(FusedRP, nullptr, FusedOpts);
    if (R.Ok != Ref.Ok || R.ValueText != Ref.ValueText ||
        R.Steps != Ref.Steps) {
      std::fprintf(stderr,
                   "FAIL: fused code disagrees with unfused code on %s "
                   "(%s/%s, %llu vs %llu steps)\n",
                   WL.Name, R.ValueText.c_str(), Ref.ValueText.c_str(),
                   static_cast<unsigned long long>(R.Steps),
                   static_cast<unsigned long long>(Ref.Steps));
      std::exit(1);
    }
    double RawMs = medianMs(
        [&] { runRegisterProgram(RawRP, nullptr, RefOpts); }, Quick ? 3 : 9);
    double FusedMs =
        medianMs([&] { runRegisterProgram(FusedRP, nullptr, FusedOpts); },
                 Quick ? 3 : 9);
    // The fused row continues the `vm-reg-threaded` series (the register
    // tier's rows since the switch loop was deleted).
    W.write({WL.Name, "vm-reg-unfused", "strict", RawMs * 1e6, Ref.Steps,
             Ref.ArenaBytes});
    W.write({WL.Name, "vm-reg-threaded", "strict", FusedMs * 1e6, R.Steps,
             R.ArenaBytes});

    // Interleaved ratio, robust against clock drift: median of
    // (unfused-baseline time / fused-pipeline time).
    double Speedup = medianRatio(
        [&] { runRegisterProgram(FusedRP, nullptr, FusedOpts); },
        [&] { runRegisterProgram(RawRP, nullptr, RefOpts); }, Quick ? 9 : 11);
    if (First) {
      FibSpeedup = Speedup;
      First = false;
    }
    std::printf("%-14s %12.3f %12.3f %8.2fx\n", WL.Name, RawMs, FusedMs,
                Speedup);
  }
  printRule();
  std::printf("unfused = one register instruction per core opcode, no frame "
              "reuse;\nfused = superinstructions + tail-call frame reuse. "
              "Identical step counts\neverywhere: fused instructions "
              "advance the counter by their source-step Cost.\n\n");
  return FibSpeedup;
}

/// Native AOT tier: the same register programs compiled to C and run
/// through the trampoline driver. Answers and step counts must be
/// identical to the register interpreter (the native tier is a pure
/// implementation refinement) before any timing is recorded; compilation
/// happens once outside the timed region, the way a warm cache behaves.
/// Returns the interleaved vm-aot / vm-reg speedups for the fib, down, and
/// list rows so CI can assert the tier pays for itself on at least two of
/// them (tak and ack call through curried/non-leaf blocks, so they ride
/// the interpreter and sit at parity by construction).
std::vector<double> reportAotVM(JsonlWriter &W, bool Quick) {
  std::printf("A6d — native AOT tier vs register interpreter\n");
  printRule();
  if (!aotAvailable()) {
    std::printf("vm-aot unavailable (no C compiler); skipping\n");
    printRule();
    std::printf("\n");
    return {};
  }
  std::printf("%-14s %12s %12s %9s\n", "workload", "reg ms", "aot ms",
              "speedup");
  printRule();

  std::vector<double> GateSpeedups;
  for (const Workload &WL : deepWorkloads(Quick)) {
    auto P = parseOrDie(WL.Src);
    DiagnosticSink Diags;
    auto Fused = compileProgram(P->root(), Diags);
    if (!Fused) {
      std::fprintf(stderr, "compile failed for %s\n", WL.Name);
      std::exit(1);
    }
    RegProgram RP(*Fused);
    std::string Why;
    auto Lib = aotLoad(RP, /*CacheDir=*/"", &Why);
    if (!Lib) {
      std::fprintf(stderr, "aotLoad failed for %s: %s\n", WL.Name,
                   Why.c_str());
      std::exit(1);
    }

    RunOptions Opts;
    Opts.ReuseTailFrames = true;
    RunResult Ref = runRegisterProgram(RP, nullptr, Opts);
    RunResult R = runAotProgram(RP, *Lib, nullptr, Opts);
    if (R.Ok != Ref.Ok || R.ValueText != Ref.ValueText ||
        R.Steps != Ref.Steps) {
      std::fprintf(stderr,
                   "FAIL: vm-aot disagrees with vm-reg on %s "
                   "(%s/%s, %llu vs %llu steps)\n",
                   WL.Name, R.ValueText.c_str(), Ref.ValueText.c_str(),
                   static_cast<unsigned long long>(R.Steps),
                   static_cast<unsigned long long>(Ref.Steps));
      std::exit(1);
    }

    double RegMs = medianMs([&] { runRegisterProgram(RP, nullptr, Opts); },
                            Quick ? 3 : 9);
    double AotMs = medianMs([&] { runAotProgram(RP, *Lib, nullptr, Opts); },
                            Quick ? 3 : 9);
    W.write({WL.Name, "vm-aot", "strict", AotMs * 1e6, R.Steps,
             R.ArenaBytes});

    // Interleaved ratio: median of (register time / native time).
    double Speedup = medianRatio(
        [&] { runAotProgram(RP, *Lib, nullptr, Opts); },
        [&] { runRegisterProgram(RP, nullptr, Opts); }, Quick ? 9 : 11);
    if (std::strncmp(WL.Name, "fib", 3) == 0 ||
        std::strncmp(WL.Name, "down", 4) == 0 ||
        std::strncmp(WL.Name, "list", 4) == 0)
      GateSpeedups.push_back(Speedup);
    std::printf("%-14s %12.3f %12.3f %8.2fx\n", WL.Name, RegMs, AotMs,
                Speedup);
  }
  printRule();
  std::printf("vm-aot = eligible leaf blocks compiled to C (%s),\nrun from "
              "the trampoline driver; identical step counts, probe "
              "streams,\nand checkpoint coordinates — every governor pause "
              "fires in the\ninterpreter. speedup = vm-reg / vm-aot, "
              "interleaved.\n\n",
              aotCompilerId().c_str());
  return GateSpeedups;
}

//===----------------------------------------------------------------------===//
// Governor overhead
//===----------------------------------------------------------------------===//

/// The resource governor's fast path is one compare per machine step; its
/// slow path (deadline clock read, memory/depth checks) runs every
/// CheckInterval steps. This section measures an armed governor — every
/// limit set, all far too high to trip — against the unarmed default on
/// the same workloads, interleaved. Returns the median armed/unarmed
/// ratio across workloads so CI can assert a bound on it.
double reportGovernor(JsonlWriter &W, bool Quick) {
  std::printf("governor — armed (untripped limits) vs unarmed\n");
  printRule();

  RunOptions Armed;
  Armed.Limits.MaxSteps = UINT64_MAX / 2;
  Armed.Limits.DeadlineMs = 3600 * 1000;
  Armed.Limits.MaxArenaBytes = UINT64_MAX / 2;
  Armed.Limits.MaxDepth = UINT64_MAX / 2;

  std::vector<double> Ratios;
  for (const Workload &WL : deepWorkloads(Quick)) {
    auto P = parseOrDie(WL.Src);
    RunOptions Plain;
    double Ratio = medianRatio(
        [&] { evaluate(P->root(), Plain); },
        [&] { evaluate(P->root(), Armed); }, Quick ? 9 : 11);
    Ratios.push_back(Ratio);
    RunResult R = evaluate(P->root(), Armed);
    W.write({WL.Name, "governor-armed", "strict",
             /*NsPerOp=*/0, R.Steps, 0});
    std::printf("%-14s armed/unarmed %.4fx\n", WL.Name, Ratio);
  }
  printRule();
  std::sort(Ratios.begin(), Ratios.end());
  double Median = Ratios.empty() ? 1.0 : Ratios[Ratios.size() / 2];
  std::printf("median governor overhead: %+.2f%%\n\n", (Median - 1) * 100);
  return Median;
}

//===----------------------------------------------------------------------===//
// Checkpoint overhead
//===----------------------------------------------------------------------===//

/// Cost of arming periodic checkpointing (journaling off): the per-step
/// path gains one decrement in the governor, and every CheckpointEveryNSteps
/// transitions the live machine state is serialized into a discarded
/// Checkpoint. Interleaved against the plain run on the same workloads;
/// returns the median armed/plain ratio so CI can assert a bound
/// (--assert-checkpoint-overhead=PCT).
double reportCheckpoint(JsonlWriter &W, bool Quick) {
  std::printf("checkpoint — periodic (every 64k steps, discarded) vs off\n");
  printRule();

  RunOptions Armed;
  Armed.CheckpointEveryNSteps = 65536;
  Armed.CheckpointSink = [](const Checkpoint &CK) {
    benchmark::DoNotOptimize(CK.bytes().data());
  };

  std::vector<double> Ratios;
  for (const Workload &WL : deepWorkloads(Quick)) {
    auto P = parseOrDie(WL.Src);
    RunOptions Plain;
    double Ratio = medianRatio(
        [&] { evaluate(P->root(), Plain); },
        [&] { evaluate(P->root(), Armed); }, Quick ? 9 : 11);
    Ratios.push_back(Ratio);
    RunResult R = evaluate(P->root(), Armed);
    W.write({WL.Name, "checkpoint-armed", "strict",
             /*NsPerOp=*/0, R.Steps, 0});
    std::printf("%-14s armed/off %.4fx\n", WL.Name, Ratio);
  }
  printRule();
  std::sort(Ratios.begin(), Ratios.end());
  double Median = Ratios.empty() ? 1.0 : Ratios[Ratios.size() / 2];
  std::printf("median checkpoint overhead: %+.2f%%\n\n", (Median - 1) * 100);

  // Durable variant: the same cadence, but every checkpoint goes through
  // the hardened atomic-replace path (write temp, fsync, rename, fsync the
  // directory). This is what `--checkpoint-out` actually pays, so the same
  // overhead bound gates it; the fsyncs amortize across the 64k-step
  // window.
  std::printf(
      "checkpoint — durable (fsync-disciplined save, every 64k steps)\n");
  printRule();
  std::string CkPath = "bench_durable.ck";
  RunOptions Durable;
  Durable.CheckpointEveryNSteps = 65536;
  Durable.CheckpointSink = [&CkPath](const Checkpoint &CK) {
    std::string Err;
    if (!CK.saveFile(CkPath, Err, /*Fsync=*/true))
      std::fprintf(stderr, "bench: durable checkpoint failed: %s\n",
                   Err.c_str());
  };

  std::vector<double> DurableRatios;
  for (const Workload &WL : deepWorkloads(Quick)) {
    auto P = parseOrDie(WL.Src);
    RunOptions Plain;
    double Ratio = medianRatio(
        [&] { evaluate(P->root(), Plain); },
        [&] { evaluate(P->root(), Durable); }, Quick ? 9 : 11);
    DurableRatios.push_back(Ratio);
    RunResult R = evaluate(P->root(), Durable);
    W.write({WL.Name, "checkpoint-durable", "strict",
             /*NsPerOp=*/0, R.Steps, 0});
    std::printf("%-14s durable/off %.4fx\n", WL.Name, Ratio);
  }
  std::remove(CkPath.c_str());
  printRule();
  std::sort(DurableRatios.begin(), DurableRatios.end());
  double DurableMedian =
      DurableRatios.empty() ? 1.0 : DurableRatios[DurableRatios.size() / 2];
  std::printf("median durable checkpoint overhead: %+.2f%%\n\n",
              (DurableMedian - 1) * 100);

  // One bound covers both paths: the gate fails if either the in-memory
  // or the fsync-disciplined variant drifts.
  return Median > DurableMedian ? Median : DurableMedian;
}

} // namespace

static void reportTable() {
  auto Small = parseOrDie(SmallSrc);
  auto Large = parseOrDie(LargeSrc);
  auto List = parseOrDie(ListSrc);

  DiagnosticSink Diags;
  auto SmallCP = compileProgram(Small->root(), Diags);
  auto LargeCP = compileProgram(Large->root(), Diags);
  auto ListCP = compileProgram(List->root(), Diags);
  RegProgram SmallVM(*SmallCP);
  RegProgram LargeVM(*LargeCP);
  RegProgram ListVM(*ListCP);

  std::printf("A3 — evaluators (standard semantics, strict)\n");
  printRule();
  std::printf("%-14s %16s %14s %14s\n", "workload", "direct CPS ms",
              "CEK ms", "bytecode ms");
  printRule();

  double DirSmall =
      medianMs([&] { runDirect(Small->root(), nullptr, 100000); });
  double CekSmall = medianMs([&] { evaluate(Small->root()); });
  double VmSmall = medianMs([&] { runRegisterProgram(SmallVM); });
  std::printf("%-14s %16.3f %14.3f %14.3f\n", "fib 11", DirSmall, CekSmall,
              VmSmall);

  double CekLarge = medianMs([&] { evaluate(Large->root()); });
  double VmLarge = medianMs([&] { runRegisterProgram(LargeVM); });
  std::printf("%-14s %16s %14.3f %14.3f\n", "fib 20", "-", CekLarge,
              VmLarge);

  double CekList = medianMs([&] { evaluate(List->root()); });
  double VmList = medianMs([&] { runRegisterProgram(ListVM); });
  std::printf("%-14s %16s %14.3f %14.3f\n", "list sums", "-", CekList,
              VmList);
  printRule();
  std::printf("speedups on fib 20: bytecode is %.2fx the CEK machine\n\n",
              CekLarge / VmLarge);

  std::printf("A3b — evaluation strategies (CEK machine, fib 16)\n");
  printRule();
  auto Mid = parseOrDie("letrec fib = lambda n. if n < 2 then n else "
                        "fib (n - 1) + fib (n - 2) in fib 16");
  for (Strategy S :
       {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
    RunOptions Opts;
    Opts.Strat = S;
    double Ms = medianMs([&] { evaluate(Mid->root(), Opts); });
    std::printf("%-14s %10.3f ms\n", strategyName(S), Ms);
  }
  printRule();
  std::printf("expected shape: direct CPS slowest (std::function overhead);"
              "\nbytecode fastest; call-by-name pays re-evaluation, "
              "call-by-need memoizes.\n\n");
}

static void BM_DirectCPS(benchmark::State &State) {
  auto P = parseOrDie(SmallSrc);
  for (auto _ : State)
    benchmark::DoNotOptimize(runDirect(P->root(), nullptr, 100000));
}
BENCHMARK(BM_DirectCPS)->Unit(benchmark::kMillisecond);

static void BM_CEK(benchmark::State &State) {
  auto P = parseOrDie(LargeSrc);
  for (auto _ : State)
    benchmark::DoNotOptimize(evaluate(P->root()));
}
BENCHMARK(BM_CEK)->Unit(benchmark::kMillisecond);

static void BM_Bytecode(benchmark::State &State) {
  auto P = parseOrDie(LargeSrc);
  DiagnosticSink Diags;
  auto Prog = compileProgram(P->root(), Diags);
  RegProgram RP(*Prog);
  for (auto _ : State)
    benchmark::DoNotOptimize(runRegisterProgram(RP));
}
BENCHMARK(BM_Bytecode)->Unit(benchmark::kMillisecond);

static void BM_Strategy(benchmark::State &State) {
  auto P = parseOrDie("letrec fib = lambda n. if n < 2 then n else "
                      "fib (n - 1) + fib (n - 2) in fib 16");
  RunOptions Opts;
  Opts.Strat = static_cast<Strategy>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(evaluate(P->root(), Opts));
}
BENCHMARK(BM_Strategy)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bool Quick = false;
  double MaxGovernorPct = -1;    // <0: report only, no assertion.
  double MinFusionSpeedup = -1;  // <0: report only, no assertion.
  double MinAotSpeedup = -1;     // <0: report only, no assertion.
  double MaxCheckpointPct = -1;  // <0: report only, no assertion.
  std::string JsonPath = "BENCH_machines.json";
  // Strip our flags before handing argv to google-benchmark.
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else if (std::strncmp(argv[I], "--assert-governor-overhead=", 27) == 0)
      MaxGovernorPct = std::atof(argv[I] + 27);
    else if (std::strncmp(argv[I], "--assert-vm-fusion-speedup=", 27) == 0)
      MinFusionSpeedup = std::atof(argv[I] + 27);
    else if (std::strncmp(argv[I], "--assert-vm-aot-speedup=", 24) == 0)
      MinAotSpeedup = std::atof(argv[I] + 24);
    else if (std::strncmp(argv[I], "--assert-checkpoint-overhead=", 29) == 0)
      MaxCheckpointPct = std::atof(argv[I] + 29);
    else if (std::strncmp(argv[I], "--assert-", 9) == 0) {
      // A retired or misspelt gate must not pass by being ignored.
      std::fprintf(stderr, "error: unknown gate %s\n", argv[I]);
      return 2;
    } else
      argv[Kept++] = argv[I];
  }
  argc = Kept;

  JsonlWriter W(JsonPath);
  reportTailReuse(W, Quick);
  double FusionSpeedup = reportVM(W, Quick);
  std::vector<double> AotSpeedups = reportAotVM(W, Quick);
  double GovMedian = reportGovernor(W, Quick);
  double CkMedian = reportCheckpoint(W, Quick);
  if (MaxCheckpointPct >= 0 && CkMedian > 1.0 + MaxCheckpointPct / 100.0) {
    std::fprintf(
        stderr, "FAIL: checkpoint overhead %.2f%% exceeds the %.2f%% bound\n",
        (CkMedian - 1) * 100, MaxCheckpointPct);
    return 1;
  }
  if (MaxGovernorPct >= 0 && GovMedian > 1.0 + MaxGovernorPct / 100.0) {
    std::fprintf(stderr,
                 "FAIL: governor overhead %.2f%% exceeds the %.2f%% bound\n",
                 (GovMedian - 1) * 100, MaxGovernorPct);
    return 1;
  }
  if (MinFusionSpeedup >= 0 && FusionSpeedup < MinFusionSpeedup) {
    std::fprintf(stderr,
                 "FAIL: fusion speedup %.2fx below the %.2fx floor\n",
                 FusionSpeedup, MinFusionSpeedup);
    return 1;
  }
  if (MinAotSpeedup >= 0) {
    // Asserting the native tier's floor presumes a working C compiler; a
    // no-compiler environment must not silently pass the gate.
    if (AotSpeedups.empty()) {
      std::fprintf(stderr,
                   "FAIL: --assert-vm-aot-speedup set but the native tier "
                   "is unavailable in this environment\n");
      return 1;
    }
    // The native tier must clear the floor on at least two of the three
    // gate workloads (fib / down / list sums).
    int Cleared = 0;
    for (double S : AotSpeedups)
      if (S >= MinAotSpeedup)
        ++Cleared;
    if (Cleared < 2) {
      std::fprintf(stderr,
                   "FAIL: vm-aot cleared the %.2fx floor on %d of %zu gate "
                   "workloads (need 2)\n",
                   MinAotSpeedup, Cleared, AotSpeedups.size());
      return 1;
    }
  }
  if (Quick)
    return 0;
  reportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
