//===- tests/programs_test.cpp - Sample-program corpus ---------------------===//
//
// Runs every shipped sample program (examples/programs) through all the
// evaluators and checks they agree — an end-to-end differential test over
// realistic programs rather than generated ones. The partially evaluated
// residual of each sample must be a tree and run on every backend too.
//
//===----------------------------------------------------------------------===//

#include "analysis/Resolver.h"
#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpParser.h"
#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "pe/PartialEval.h"
#include "syntax/Annotator.h"
#include "syntax/Prelude.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace monsem;

#ifndef MONSEM_SOURCE_DIR
#error "MONSEM_SOURCE_DIR must be defined by the build"
#endif

namespace {

std::string readFile(const std::string &Rel) {
  std::string Path = std::string(MONSEM_SOURCE_DIR) + "/" + Rel;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct Sample {
  const char *File;
  const char *Expected;
};

const Sample Samples[] = {
    {"examples/programs/fac.lam", "3628800"},
    {"examples/programs/fib.lam", "2584"},
    {"examples/programs/sort.lam", "[1, 3, 5, 7, 9]"},
    {"examples/programs/collect.lam", "120"},
    {"examples/programs/church.lam", "12"},
    {"examples/programs/ackermann.lam", "9"},
    {"examples/programs/mergesort.lam", "[1, 2, 3, 4, 7, 8, 9]"},
    {"examples/programs/primes.lam",
     "[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]"},
};

// Without this, gtest prints a Sample as the raw bytes of its two
// pointers, and CTest bakes those (ASLR-dependent) bytes into every
// discovered test name, so the names change from build to build.
void PrintTo(const Sample &S, std::ostream *OS) {
  std::string File = S.File;
  *OS << File.substr(File.rfind('/') + 1);
}

} // namespace

class SampleProgramTest : public ::testing::TestWithParam<Sample> {};

TEST_P(SampleProgramTest, AllEvaluatorsAgree) {
  const Sample &S = GetParam();
  auto P = ParsedProgram::parse(readFile(S.File));
  ASSERT_TRUE(P->ok()) << P->diags().str();

  // CEK, strict.
  RunResult Strict = evaluate(P->root());
  ASSERT_TRUE(Strict.Ok) << Strict.Error;
  EXPECT_EQ(Strict.ValueText, S.Expected) << S.File;

  // CEK, lazy strategies. Call-by-name re-evaluates thunks, which is
  // legitimately exponential on some programs (mergesort's repeated list
  // destructuring), so the lazy runs carry fuel and exhaustion skips the
  // comparison rather than failing it.
  for (Strategy St : {Strategy::CallByName, Strategy::CallByNeed}) {
    RunOptions Opts;
    Opts.Strat = St;
    Opts.MaxSteps = 3000000;
    RunResult R = evaluate(P->root(), Opts);
    if (R.FuelExhausted)
      continue;
    ASSERT_TRUE(R.Ok) << S.File << " under " << strategyName(St) << ": "
                      << R.Error;
    EXPECT_EQ(R.ValueText, S.Expected);
  }

  // Bytecode VM.
  Cascade Empty;
  RunResult VM = evaluateCompiled(Empty, P->root());
  ASSERT_TRUE(VM.Ok) << VM.Error;
  EXPECT_EQ(VM.ValueText, S.Expected);

  // Direct CPS reference (may exhaust its call budget or its C stack on
  // big samples; any governance stop skips the comparison).
  RunResult Direct = runDirect(P->root());
  if (!Direct.stoppedByGovernor()) {
    ASSERT_TRUE(Direct.Ok) << Direct.Error;
    EXPECT_EQ(Direct.ValueText, S.Expected);
  }

  // Partial evaluation: the residual is a tree and computes the same
  // answer on every backend and strategy.
  AstContext Out;
  PEResult PR = partialEvaluate(Out, P->root());
  ASSERT_TRUE(resolveProgram(PR.Residual)->ok()) << S.File;
  for (Strategy St :
       {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
    RunResult R = evaluate(EvalMode(StrategyTag{St}) & maxSteps(3000000),
                           PR.Residual);
    if (St != Strategy::Strict && R.FuelExhausted)
      continue;
    ASSERT_TRUE(R.Ok) << S.File << " residual under " << strategyName(St)
                      << ": " << R.Error;
    EXPECT_EQ(R.ValueText, S.Expected);
  }
  for (BackendTag B : {kVM, kVMReg}) {
    RunResult R = evaluate(EvalMode(B), PR.Residual);
    ASSERT_TRUE(R.Ok) << S.File << " residual: " << R.Error;
    EXPECT_EQ(R.ValueText, S.Expected);
  }
  RunResult ResDirect = runDirect(PR.Residual);
  if (!ResDirect.stoppedByGovernor()) {
    ASSERT_TRUE(ResDirect.Ok) << S.File << " residual: " << ResDirect.Error;
    EXPECT_EQ(ResDirect.ValueText, S.Expected);
  }
}

TEST_P(SampleProgramTest, MonitoredRunsAgree) {
  const Sample &S = GetParam();
  auto P = ParsedProgram::parse(readFile(S.File));
  ASSERT_TRUE(P->ok());
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult Mon = evaluate(C, P->root());
  ASSERT_TRUE(Mon.Ok) << Mon.Error;
  EXPECT_EQ(Mon.ValueText, S.Expected);
  RunResult VMMon = evaluateCompiled(C, P->root());
  ASSERT_TRUE(VMMon.Ok) << VMMon.Error;
  EXPECT_EQ(Mon.FinalStates[0]->str(), VMMon.FinalStates[0]->str());

  // The partially evaluated program, with every function body annotated:
  // the CEK machine, both VM tiers and (where it fits) the Direct
  // interpreter report the same profile. (The profile need not equal the
  // unspecialized program's: the specializer inlines let-bound residual
  // code at every use, which repeats its probes — mergesort's `rest`.)
  const Expr *Annotated =
      annotateFunctionBodies(P->context(), P->root(), {});
  AstContext Out;
  const Expr *Residual = partialEvaluate(Out, Annotated).Residual;
  RunResult PEMon = evaluate(C, Residual);
  ASSERT_TRUE(PEMon.Ok) << PEMon.Error;
  EXPECT_EQ(PEMon.ValueText, S.Expected);
  for (BackendTag B : {kVM, kVMReg, kDirect}) {
    RunResult Other = evaluate(EvalMode(C) & B, Residual);
    if (B.B == Backend::Direct && Other.stoppedByGovernor())
      continue;
    ASSERT_TRUE(Other.Ok) << Other.Error;
    EXPECT_EQ(Other.FinalStates[0]->str(), PEMon.FinalStates[0]->str())
        << S.File << " residual on backend " << static_cast<int>(B.B);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, SampleProgramTest,
                         ::testing::ValuesIn(Samples),
                         [](const auto &Info) {
                           std::string Name = Info.param.File;
                           size_t Slash = Name.rfind('/');
                           Name = Name.substr(Slash + 1);
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

TEST(PartialEvaluationCorpus, EveryResidualIsATree) {
  // Every sample (quicksort included) x {plain, prelude} x {no monitor,
  // every function annotated, coverage labels}: the residual the partial
  // evaluator emits never shares a node, so the resolver accepts it.
  const char *Files[] = {"fac", "fib", "sort", "collect", "church",
                         "ackermann", "mergesort", "primes", "quicksort"};
  unsigned Runs = 0;
  for (const char *File : Files) {
    for (bool Prelude : {false, true}) {
      for (int Monitor = 0; Monitor < 3; ++Monitor) {
        auto P = ParsedProgram::parse(
            readFile(std::string("examples/programs/") + File + ".lam"));
        ASSERT_TRUE(P->ok()) << File;
        const Expr *Prog = P->root();
        if (Prelude) {
          DiagnosticSink Diags;
          Prog = wrapWithPrelude(P->context(), Prog, Diags);
          ASSERT_NE(Prog, nullptr) << Diags.str();
        }
        if (Monitor == 1)
          Prog = annotateFunctionBodies(P->context(), Prog, {});
        else if (Monitor == 2)
          Prog = labelProgramPoints(P->context(), Prog, "p",
                                    Symbol::intern("cover"));
        ASSERT_TRUE(resolveProgram(Prog)->ok()) << File;
        AstContext Out;
        PEResult PR = partialEvaluate(Out, Prog);
        EXPECT_TRUE(resolveProgram(PR.Residual)->ok())
            << File << (Prelude ? " with prelude" : "") << ", monitor "
            << Monitor;
        ++Runs;
      }
    }
  }
  EXPECT_EQ(Runs, 54u);
}

TEST(ImpSampleTest, GcdProgram) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog =
      parseImpProgram(Ctx, readFile("examples/programs/gcd.imp"), Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  ImpRunResult R = runImp(Prog);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"21"}));
}

TEST(ImpSampleTest, SumSquaresProgram) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx, readFile("examples/programs/sumsquares.imp"), Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  ImpRunResult R = runImp(Prog);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"385"}));
}
