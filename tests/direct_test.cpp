//===- tests/direct_test.cpp - Definitional interpreter tests --------------===//
//
// Validates the literal transliteration of the paper's derivation: the
// standard functional (Fig. 2) under all three strategies, the monitoring
// derivation Gbar (Fig. 3), double derivation (Fig. 5), agreement with the
// CEK machine, and the stack guard that turns C-stack exhaustion into a
// governance stop.
//
//===----------------------------------------------------------------------===//

#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <pthread.h>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

} // namespace

TEST(DirectTest, BasicValues) {
  auto P = parseOk("letrec fac = lambda x. if x = 0 then 1 else "
                   "x * fac (x - 1) in fac 5");
  RunResult R = runDirect(P->root());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 120);
}

TEST(DirectTest, ErrorsMatchMachine) {
  for (const char *Src : {"x", "1 / 0", "hd []", "1 2", "if 1 then 2 else 3",
                          "letrec x = x + 1 in x"}) {
    auto P = parseOk(Src);
    RunResult Direct = runDirect(P->root());
    RunResult Machine = evaluate(P->root());
    EXPECT_FALSE(Direct.Ok) << Src;
    EXPECT_EQ(Direct.Error, Machine.Error) << Src;
  }
}

TEST(DirectTest, CallBudgetBoundsRunawayPrograms) {
  auto P = parseOk("letrec loop = lambda x. loop x in loop 1");
  RunResult R = runDirect(P->root(), nullptr, /*CallBudget=*/2000);
  EXPECT_TRUE(R.FuelExhausted);
}

TEST(DirectTest, MonitoringDerivationProfilesFactorial) {
  auto P = parseOk(
      "letrec mul = lambda x. lambda y. {mul}:(x*y) in "
      "letrec fac = lambda x. {fac}: if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3");
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult R = runDirect(P->root(), &C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 6);
  ASSERT_EQ(R.FinalStates.size(), 1u);
  EXPECT_EQ(R.FinalStates[0]->str(), "[fac -> 4, mul -> 3]");
}

TEST(DirectTest, DoubleDerivationIsCascading) {
  // Fig. 5: derive monitoring semantics, treat it as a standard semantics,
  // and derive again. The tracer (params) and profiler (bare) have
  // disjoint annotation syntaxes.
  auto P = parseOk(
      "letrec mul = lambda x. lambda y. {mul(x, y)}: {mul}:(x*y) in "
      "letrec fac = lambda x. {fac(x)}: {fac}: if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3");
  CallProfiler Prof;
  Tracer Trc;
  Cascade C;
  C.use(Prof).use(Trc);
  RunResult R = runDirect(P->root(), &C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 6);
  ASSERT_EQ(R.FinalStates.size(), 2u);
  EXPECT_EQ(R.FinalStates[0]->str(), "[fac -> 4, mul -> 3]");
  EXPECT_EQ(Tracer::state(*R.FinalStates[1]).Chan.numLines(), 14u);

  // And the CEK machine computes the identical cascade result.
  RunResult M = evaluate(C, P->root());
  ASSERT_TRUE(M.Ok) << M.Error;
  EXPECT_EQ(M.ValueText, R.ValueText);
  EXPECT_EQ(M.FinalStates[0]->str(), R.FinalStates[0]->str());
  EXPECT_EQ(M.FinalStates[1]->str(), R.FinalStates[1]->str());
}

TEST(DirectTest, FixpointSharesDerivedBehaviorAtAllLevels) {
  // The annotation sits inside a recursive function: the derived behavior
  // must be exhibited at every level of recursion (the point of using
  // functionals).
  auto P = parseOk("letrec down = lambda n. {down}: if n = 0 then 0 else "
                   "down (n - 1) in down 7");
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult R = runDirect(P->root(), &C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(CallProfiler::state(*R.FinalStates[0]).count("down"), 8u);
}

TEST(DirectTest, CallByNeedMemoizesAndCallByNameDoesNot) {
  // The operand's probe fires each time the operand is evaluated: once
  // under strict (before the call), twice under call-by-name (once per
  // use), once under call-by-need (memoized). The CEK machine agrees.
  auto P = parseOk("(lambda x. x + x) ({A}: 5)");
  CountingProfiler Count;
  Cascade C = cascadeOf({&Count});
  const char *Want[] = {"<1, 0>", "<2, 0>", "<1, 0>"};
  int I = 0;
  for (Strategy S :
       {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
    RunResult D = evaluate(EvalMode(C) & kDirect & StrategyTag{S}, P->root());
    RunResult M = evaluate(EvalMode(C) & StrategyTag{S}, P->root());
    ASSERT_TRUE(D.Ok) << D.Error;
    ASSERT_TRUE(M.Ok) << M.Error;
    EXPECT_EQ(D.IntValue, 10);
    EXPECT_EQ(D.FinalStates[0]->str(), Want[I]) << strategyName(S);
    EXPECT_EQ(M.FinalStates[0]->str(), Want[I]) << strategyName(S);
    ++I;
  }
}

namespace {

// A profiled recursion that never ends: with no call budget, only the
// stack guard can stop it, however big the stack is.
const char *DeepProfiledSrc =
    "letrec up = lambda n. {up}: 1 + up (n + 1) in up 0";

RunResult runDeepUnbudgeted() {
  auto P = parseOk(DeepProfiledSrc);
  CallProfiler Prof;
  Cascade C = cascadeOf({&Prof});
  DirectOptions Opts;
  Opts.CallBudget = 0; // Only the stack guard bounds the run.
  return runDirect(P->root(), &C, Opts);
}

} // namespace

TEST(DirectTest, StackGuardStopsDeepRunsWithoutCrashing) {
  RunResult R = runDeepUnbudgeted();
  EXPECT_EQ(R.St, Outcome::DepthExceeded);
  // The partial profile is still reported.
  ASSERT_EQ(R.FinalStates.size(), 1u);
  EXPECT_GT(CallProfiler::state(*R.FinalStates[0]).count("up"), 0u);

  // fib.lam, profiled, under the default budget: the guard or the budget
  // stops it (which comes first depends on the stack size), never a
  // signal.
  auto P = parseOk("letrec fib = lambda n. {fib}: if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 18");
  CallProfiler Prof;
  Cascade C = cascadeOf({&Prof});
  RunResult Fib = runDirect(P->root(), &C);
  EXPECT_TRUE(Fib.St == Outcome::DepthExceeded ||
              Fib.St == Outcome::FuelExhausted)
      << outcomeName(Fib.St);
}

TEST(DirectTest, StackGuardHonorsASmallThreadStack) {
  // The guard reads the bounds of the thread it runs on, so a worker with
  // a 1 MB stack stops early instead of overflowing.
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, size_t(1) << 20);
  RunResult R;
  pthread_t T;
  ASSERT_EQ(pthread_create(
                &T, &Attr,
                [](void *Out) -> void * {
                  *static_cast<RunResult *>(Out) = runDeepUnbudgeted();
                  return nullptr;
                },
                &R),
            0);
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
  EXPECT_EQ(R.St, Outcome::DepthExceeded);
}

// Differential: direct CPS vs CEK machine over generated programs.
class DirectDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DirectDifferentialTest, AgreesWithMachine) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunResult Direct = runDirect(Prog, nullptr, /*CallBudget=*/12000);
  if (Direct.stoppedByGovernor())
    GTEST_SKIP() << "program too large for the CPS reference interpreter";
  RunOptions Opts;
  Opts.MaxSteps = 1000000;
  RunResult Machine = evaluate(Prog, Opts);
  EXPECT_TRUE(Direct.sameOutcome(Machine))
      << "direct: " << (Direct.Ok ? Direct.ValueText : Direct.Error)
      << "\nmachine: " << (Machine.Ok ? Machine.ValueText : Machine.Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectDifferentialTest,
                         ::testing::Range(0u, 60u));
