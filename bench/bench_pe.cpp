//===- bench/bench_pe.cpp - P1: specialization to partial input -------------===//
//
// Reproduces the paper's third specialization level (Section 9.1, Fig. 10):
// specializing an (instrumented) program with respect to partial input and
// measuring the residual's speedup, on the interpreter and on the VM.
//
// Workloads:
//   * power b 16, exponent static — the recursion unfolds completely;
//   * a monitored dot-product-style loop with a static vector length;
//   * the monitored factorial of Section 8, specialized (annotations are
//     dynamic, so the residual keeps every probe: the measured gap is
//     exactly the removable interpretive overhead around the monitoring).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "compile/Compiler.h"
#include "compile/VM.h"
#include "monitors/Profiler.h"
#include "pe/PartialEval.h"
#include "syntax/Printer.h"

#include <benchmark/benchmark.h>

using namespace monsem;
using namespace monsem::bench;

namespace {

const char *PowerLoop =
    "lambda b. "
    "letrec power = lambda bb e. if e = 0 then 1 else "
    "bb * power bb (e - 1) in "
    "letrec loop = lambda i. if i = 0 then 0 else "
    "power b 16 + loop (i - 1) in loop 400";

const char *MonitoredFac =
    "letrec fac = lambda x. {fac}: if x = 0 then 1 else "
    "x * fac (x - 1) in "
    "letrec loop = lambda i. if i = 0 then 0 else "
    "fac 12 + loop (i - 1) in loop 100";

struct Residual {
  AstContext Out;
  PEResult R;
};

std::unique_ptr<Residual> specialize(const Expr *E, PEOptions Opts = {}) {
  auto S = std::make_unique<Residual>();
  S->R = partialEvaluate(S->Out, E, Opts);
  if (S->R.GaveUp) {
    std::fprintf(stderr, "specializer gave up; benchmark invalid\n");
    std::abort();
  }
  return S;
}

} // namespace

static void reportTable() {
  std::printf("P1 — specialization with respect to partial input "
              "(level 3)\n");
  printRule();
  std::printf("%-26s %12s %12s %10s %12s\n", "workload", "original ms",
              "residual ms", "speedup", "PE unfolds");
  printRule();

  {
    // power: b dynamic, exponent 16 static, 400 calls per run.
    auto P = parseOrDie(PowerLoop);
    auto S = specialize(P->root());
    AstContext App1, App2;
    const Expr *Orig = App1.mkApp(cloneExpr(App1, P->root()), App1.mkInt(3));
    const Expr *Res =
        App2.mkApp(cloneExpr(App2, S->R.Residual), App2.mkInt(3));
    RunResult RO = evaluate(Orig), RR = evaluate(Res);
    if (!RO.Ok || RO.ValueText != RR.ValueText) {
      std::fprintf(stderr, "mismatch\n");
      std::abort();
    }
    double TO = medianMs([&] { evaluate(Orig); });
    double TR = medianMs([&] { evaluate(Res); });
    std::printf("%-26s %12.3f %12.3f %9.2fx %12u\n",
                "power^16 (interp)", TO, TR, TO / TR, S->R.Unfolds);

    DiagnosticSink Diags;
    CompileOptions NoInstr;
    NoInstr.Instrument = false;
    auto OrigCP = compileProgram(Orig, Diags, NoInstr);
    auto ResCP = compileProgram(Res, Diags, NoInstr);
    // Compiled once, outside the timers.
    double VO = medianMs([&] { runCompiled(*OrigCP); });
    double VR = medianMs([&] { runCompiled(*ResCP); });
    std::printf("%-26s %12.3f %12.3f %9.2fx %12s\n",
                "power^16 (bytecode)", VO, VR, VO / VR, "-");
  }

  {
    // Monitored factorial: the probes survive specialization (they are
    // the dynamic part); the residual still reports the same profile.
    auto P = parseOrDie(MonitoredFac);
    PEOptions Opts;
    Opts.MaxUnfoldDepth = 8; // Keep part of the recursion residual.
    auto S = specialize(P->root(), Opts);
    CallProfiler Prof;
    Cascade C;
    C.use(Prof);
    RunResult RO = evaluate(C, P->root());
    RunResult RR = evaluate(C, S->R.Residual);
    if (!RO.Ok || !RR.Ok ||
        RO.FinalStates[0]->str() != RR.FinalStates[0]->str()) {
      std::fprintf(stderr, "monitor-state mismatch\n");
      std::abort();
    }
    double TO = medianMs([&] { evaluate(C, P->root()); });
    double TR = medianMs([&] { evaluate(C, S->R.Residual); });
    std::printf("%-26s %12.3f %12.3f %9.2fx %12u\n",
                "monitored fac (interp)", TO, TR, TO / TR, S->R.Unfolds);
    std::printf("  (profiler state preserved: %s)\n",
                RR.FinalStates[0]->str().c_str());
  }

  printRule();
  std::printf("expected shape: residuals win wherever static computation "
              "existed; the\nmonitoring events themselves are dynamic and "
              "are never specialized away.\n\n");
}

static void BM_PowerOriginal(benchmark::State &State) {
  auto P = parseOrDie(PowerLoop);
  AstContext App;
  const Expr *Orig = App.mkApp(cloneExpr(App, P->root()), App.mkInt(3));
  for (auto _ : State)
    benchmark::DoNotOptimize(evaluate(Orig));
}
BENCHMARK(BM_PowerOriginal)->Unit(benchmark::kMillisecond);

static void BM_PowerResidual(benchmark::State &State) {
  auto P = parseOrDie(PowerLoop);
  auto S = specialize(P->root());
  AstContext App;
  const Expr *Res = App.mkApp(cloneExpr(App, S->R.Residual), App.mkInt(3));
  for (auto _ : State)
    benchmark::DoNotOptimize(evaluate(Res));
}
BENCHMARK(BM_PowerResidual)->Unit(benchmark::kMillisecond);

static void BM_Specializer(benchmark::State &State) {
  auto P = parseOrDie(PowerLoop);
  for (auto _ : State) {
    AstContext Out;
    benchmark::DoNotOptimize(partialEvaluate(Out, P->root()));
  }
}
BENCHMARK(BM_Specializer)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  reportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
