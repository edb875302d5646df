//===- tests/pe_test.cpp - Partial evaluation (level 3) --------------------===//

#include "analysis/Resolver.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"
#include "pe/PartialEval.h"
#include "syntax/Printer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// Specializes Src and returns the residual (printed for inspection).
struct Specialized {
  AstContext Out;
  PEResult R;
};

std::unique_ptr<Specialized> pe(std::string_view Src, PEOptions Opts = {}) {
  auto P = parseOk(Src);
  auto S = std::make_unique<Specialized>();
  S->R = partialEvaluate(S->Out, P->root(), Opts);
  return S;
}

} // namespace

TEST(PETest, FoldsClosedPrograms) {
  auto S = pe("letrec fac = lambda x. if x = 0 then 1 else "
              "x * fac (x - 1) in fac 10");
  EXPECT_FALSE(S->R.GaveUp);
  EXPECT_EQ(printExpr(S->R.Residual), "3628800");
}

TEST(PETest, FoldsListPrograms) {
  auto S = pe("letrec rev = lambda l acc. if l = [] then acc else "
              "rev (tl l) (hd l : acc) in rev [1, 2, 3] []");
  EXPECT_EQ(printExpr(S->R.Residual), "3 : 2 : 1 : []");
}

TEST(PETest, PreservesRuntimeErrors) {
  // The specializer must not fold failing primitives away or crash on
  // them; the residual still errors at run time.
  for (const char *Src : {"1 / 0", "hd []", "(2 + 3) 4"}) {
    auto S = pe(Src);
    ASSERT_FALSE(S->R.GaveUp) << Src;
    auto P = parseOk(Src);
    RunResult Orig = evaluate(P->root());
    RunResult Res = evaluate(S->R.Residual);
    EXPECT_FALSE(Res.Ok) << Src;
    EXPECT_EQ(Orig.Error, Res.Error) << Src;
  }
}

TEST(PETest, DynamicInputsResidualize) {
  // Free variables are dynamic inputs.
  auto S = pe("n * 2 + 1");
  EXPECT_FALSE(S->R.GaveUp);
  EXPECT_EQ(printExpr(S->R.Residual), "n * 2 + 1");
}

TEST(PETest, PrunesStaticConditionals) {
  auto S = pe("if 1 < 2 then n + 1 else n / 0");
  EXPECT_EQ(printExpr(S->R.Residual), "n + 1");
}

TEST(PETest, SpecializePowerToStaticExponent) {
  // The classic: power n 5 with static exponent unfolds into a product.
  const char *Power = "letrec power = lambda b e. if e = 0 then 1 else "
                      "b * power b (e - 1) in power";
  auto P = parseOk(Power);
  AstContext Out;
  AstContext ArgCtx;
  PEResult R = specializeApply(Out, P->root(), {},
                               /*NumDynamicArgs=*/2);
  ASSERT_FALSE(R.GaveUp);

  // Now specialize with the exponent static: residual contains no letrec
  // and no conditional — it is b * b * b * b * b * 1 after unfolding.
  const char *Power5 =
      "lambda b. letrec power = lambda bb e. if e = 0 then 1 else "
      "bb * power bb (e - 1) in power b 5";
  auto P5 = parseOk(Power5);
  AstContext Out5;
  PEResult R5 = partialEvaluate(Out5, P5->root());
  ASSERT_FALSE(R5.GaveUp);
  std::string Text = printExpr(R5.Residual);
  EXPECT_EQ(Text.find("letrec"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("if"), std::string::npos) << Text;
  // And it computes powers.
  AstContext AppCtx;
  const Expr *App =
      AppCtx.mkApp(cloneExpr(AppCtx, R5.Residual), AppCtx.mkInt(3));
  EXPECT_EQ(evaluate(App).IntValue, 243);
}

TEST(PETest, SpecializeApplyMatchesFullApplication) {
  const char *Add3 = "lambda a b c. a + b * c";
  auto P = parseOk(Add3);
  AstContext Out;
  AstContext ArgCtx;
  std::vector<const Expr *> Static = {ArgCtx.mkInt(10)};
  PEResult R = specializeApply(Out, P->root(), Static, 2);
  ASSERT_FALSE(R.GaveUp);
  EXPECT_TRUE(resolveProgram(R.Residual)->ok()) << "residual is not a tree";
  // residual(b, c) == 10 + b * c.
  AstContext AppCtx;
  const Expr *App = AppCtx.mkApp(
      AppCtx.mkApp(cloneExpr(AppCtx, R.Residual), AppCtx.mkInt(4)),
      AppCtx.mkInt(5));
  EXPECT_EQ(evaluate(App).IntValue, 30);
}

TEST(PETest, GeneratesResidualRecursionForDynamicArgs) {
  // With a dynamic argument the recursion cannot unfold: the residual
  // contains a specialized letrec.
  const char *Src = "lambda n. letrec sum = lambda k. if k = 0 then 0 else "
                    "k + sum (k - 1) in sum n";
  auto S = pe(Src);
  ASSERT_FALSE(S->R.GaveUp);
  std::string Text = printExpr(S->R.Residual);
  EXPECT_NE(Text.find("letrec"), std::string::npos) << Text;
  EXPECT_GT(S->R.Specializations, 0u);
  // Residual still computes sums.
  AstContext AppCtx;
  const Expr *App =
      AppCtx.mkApp(cloneExpr(AppCtx, S->R.Residual), AppCtx.mkInt(10));
  EXPECT_EQ(evaluate(App).IntValue, 55);
}

TEST(PETest, AnnotationsAreDynamic) {
  // Even a fully static computation keeps its annotations (and therefore
  // its monitoring events).
  auto S = pe("{A}: (2 + 3)");
  ASSERT_FALSE(S->R.GaveUp);
  EXPECT_EQ(printExpr(S->R.Residual), "{A}: 5");
}

TEST(PETest, MonitoringSemanticsIsPreserved) {
  // Profiler counts on the residual equal those on the original — the
  // specializer preserves the *monitoring* semantics, not just answers.
  const char *Src =
      "letrec mul = lambda x. lambda y. {mul}:(x*y) in "
      "letrec fac = lambda x. {fac}: if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3";
  auto P = parseOk(Src);
  auto S = pe(Src);
  ASSERT_FALSE(S->R.GaveUp);
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult Orig = evaluate(C, P->root());
  RunResult Res = evaluate(C, S->R.Residual);
  ASSERT_TRUE(Orig.Ok && Res.Ok) << Orig.Error << Res.Error;
  EXPECT_EQ(Orig.ValueText, Res.ValueText);
  EXPECT_EQ(Orig.FinalStates[0]->str(), Res.FinalStates[0]->str());
  EXPECT_EQ(Res.FinalStates[0]->str(), "[fac -> 4, mul -> 3]");
}

TEST(PETest, TraceOrderIsPreserved) {
  const char *Src =
      "letrec mul = lambda x. lambda y. {mul(x, y)}:(x*y) in "
      "letrec fac = lambda x. {fac(x)}:if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3";
  auto P = parseOk(Src);
  auto S = pe(Src);
  ASSERT_FALSE(S->R.GaveUp);
  Tracer Trc;
  Cascade C;
  C.use(Trc);
  RunResult Orig = evaluate(C, P->root());
  RunResult Res = evaluate(C, S->R.Residual);
  ASSERT_TRUE(Orig.Ok && Res.Ok);
  EXPECT_EQ(Tracer::state(*Orig.FinalStates[0]).Chan.str(),
            Tracer::state(*Res.FinalStates[0]).Chan.str());
}

TEST(PETest, GivesUpGracefullyOnBudget) {
  PEOptions Opts;
  Opts.MaxSteps = 50;
  auto S = pe("letrec fac = lambda x. if x = 0 then 1 else "
              "x * fac (x - 1) in fac 20",
              Opts);
  EXPECT_TRUE(S->R.GaveUp);
  // The fallback residual is the original program: still runs correctly.
  RunResult R = evaluate(S->R.Residual);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 2432902008176640000);
}

TEST(PETest, ResidualsAreSmallerOrEqualInSteps) {
  // Specialization should reduce interpreter steps on closed programs.
  const char *Src = "letrec fib = lambda n. if n < 2 then n else "
                    "fib (n - 1) + fib (n - 2) in fib 12";
  auto P = parseOk(Src);
  auto S = pe(Src);
  ASSERT_FALSE(S->R.GaveUp);
  RunResult Orig = evaluate(P->root());
  RunResult Res = evaluate(S->R.Residual);
  EXPECT_EQ(Orig.ValueText, Res.ValueText);
  EXPECT_LT(Res.Steps, Orig.Steps);
}

// Differential: residual answer == original answer over generated programs.
class PEDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PEDifferentialTest, ResidualPreservesAnswers) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  AstContext Out;
  PEOptions Opts;
  Opts.MaxSteps = 200000;
  PEResult R = partialEvaluate(Out, Prog, Opts);
  EXPECT_TRUE(resolveProgram(R.Residual)->ok()) << "residual is not a tree";
  RunOptions RO;
  RO.MaxSteps = 1000000;
  RunResult Orig = evaluate(Prog, RO);
  RunResult Res = evaluate(R.Residual, RO);
  EXPECT_TRUE(Orig.sameOutcome(Res))
      << printExpr(Prog) << "\nresidual: " << printExpr(R.Residual)
      << "\norig: " << (Orig.Ok ? Orig.ValueText : Orig.Error)
      << "\nres:  " << (Res.Ok ? Res.ValueText : Res.Error);
}

TEST_P(PEDifferentialTest, ResidualPreservesMonitorStates) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  AstContext Out;
  PEOptions Opts;
  Opts.MaxSteps = 200000;
  PEResult R = partialEvaluate(Out, Prog, Opts);
  CountingProfiler Count;
  Cascade C;
  C.use(Count);
  EvalMode M = C & maxSteps(1000000);
  RunResult Orig = evaluate(M, Prog);
  RunResult Res = evaluate(M, R.Residual);
  EXPECT_TRUE(Orig.sameOutcome(Res)) << printExpr(Prog);
  if (Orig.Ok && Res.Ok) {
    EXPECT_EQ(Orig.FinalStates[0]->str(), Res.FinalStates[0]->str())
        << printExpr(Prog) << "\nresidual: " << printExpr(R.Residual);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PEDifferentialTest,
                         ::testing::Range(0u, 80u));
