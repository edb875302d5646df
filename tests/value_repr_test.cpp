//===- tests/value_repr_test.cpp - Value representation differentials ------===//
//
// Coverage for the 8-byte tagged Value: its size and encoding invariants,
// hard-coded int goldens that cross the inline/boxed-int64 boundary and the
// edges of two's-complement arithmetic at run time, and cross-evaluator /
// cross-strategy / cross-env-rep agreement on the random corpus. The
// goldens hold on every evaluator, so no backend can encode, decode or
// compute an integer differently from the others.
//
//===----------------------------------------------------------------------===//

#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpParser.h"
#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "syntax/Printer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <climits>

using namespace monsem;

namespace {

constexpr uint64_t Fuel = 500000;

// The inline range of the tagged representation: [-2^47, 2^47).
constexpr int64_t kInlineMax = (int64_t{1} << 47) - 1;
constexpr int64_t kInlineMin = -(int64_t{1} << 47);

RunResult runCEK(const Expr *E, Strategy S) {
  RunOptions Opts;
  Opts.Strat = S;
  Opts.MaxSteps = Fuel;
  return evaluate(E, Opts);
}

RunResult runMonitoredCEK(const Cascade &C, const Expr *E, Strategy S) {
  return evaluate(C & StrategyTag{S} & maxSteps(Fuel), E);
}

/// The Direct interpreter under \p S, with a cascade when \p C is given.
RunResult runDirectAt(const Cascade *C, const Expr *E, Strategy S) {
  EvalMode M = C ? EvalMode(*C) : EvalMode();
  return evaluate(M & kDirect & StrategyTag{S} & maxSteps(Fuel), E);
}

const Expr *parseInto(ParsedProgram &P, std::string_view Src) {
  EXPECT_TRUE(P.ok()) << Src;
  return P.root();
}

} // namespace

//===----------------------------------------------------------------------===//
// Size and encoding invariants
//===----------------------------------------------------------------------===//

TEST(ValueReprTest, SizeMatchesConfiguration) {
  // A Value is one machine word, and everything built from Values is
  // sized in words. The flat-frame header packs parent + shape id into one
  // word, and a closure is two words (lambda + environment).
  EXPECT_EQ(sizeof(Value), 8u);
  EXPECT_EQ(sizeof(Cell), 16u);
  EXPECT_EQ(sizeof(EnvFrame), 8u);
  EXPECT_EQ(sizeof(Closure), 16u);
  // The Unit-placeholder convention allocFrame asserts: a default Value is
  // Unit and the tag predicate sees it.
  EXPECT_TRUE(Value().isUnit());
  EXPECT_TRUE(Value::mkUnit().isUnit());
  EXPECT_FALSE(Value::mkInt(0).isUnit());
  EXPECT_FALSE(Value::mkBool(false).isUnit());
  EXPECT_FALSE(Value::mkNil().isUnit());
}

TEST(ValueReprTest, InlineRangePredicate) {
  EXPECT_TRUE(Value::fitsInline(0));
  EXPECT_TRUE(Value::fitsInline(-1));
  EXPECT_TRUE(Value::fitsInline(kInlineMax));
  EXPECT_TRUE(Value::fitsInline(kInlineMin));
  EXPECT_FALSE(Value::fitsInline(kInlineMax + 1));
  EXPECT_FALSE(Value::fitsInline(kInlineMin - 1));
  EXPECT_FALSE(Value::fitsInline(INT64_MAX));
  EXPECT_FALSE(Value::fitsInline(INT64_MIN));
}

TEST(ValueReprTest, IntBoundariesRoundTrip) {
  Arena A;
  const int64_t Boundary[] = {0,
                              1,
                              -1,
                              kInlineMax,
                              kInlineMax + 1,
                              kInlineMin,
                              kInlineMin - 1,
                              INT64_MAX,
                              INT64_MIN,
                              INT64_MAX - 1,
                              INT64_MIN + 1};
  for (int64_t V : Boundary) {
    Value X = Value::mkInt(V, A);
    // The encoding (inline vs boxed) must be unobservable through the
    // accessor API: same kind, same payload, same rendering.
    EXPECT_EQ(X.kind(), ValueKind::Int) << V;
    EXPECT_TRUE(X.is(ValueKind::Int)) << V;
    EXPECT_FALSE(X.isUnit()) << V;
    EXPECT_FALSE(X.isFunction()) << V;
    EXPECT_EQ(X.asInt(), V);
    EXPECT_EQ(toDisplayString(X), std::to_string(V));
    // Structural equality across two independent allocations (distinct
    // boxes for out-of-range ints) is by payload, not identity.
    Value Y = Value::mkInt(V, A);
    bool Ok = true;
    EXPECT_TRUE(valueEquals(X, Y, Ok)) << V;
    EXPECT_TRUE(Ok) << V;
    Value Z = Value::mkInt(V == 0 ? 1 : V / 2, A);
    Ok = true;
    EXPECT_FALSE(valueEquals(X, Z, Ok)) << V;
    EXPECT_TRUE(Ok) << V;
  }
}

TEST(ValueReprTest, NonIntImmediatesRoundTrip) {
  EXPECT_TRUE(Value::mkBool(true).asBool());
  EXPECT_FALSE(Value::mkBool(false).asBool());
  EXPECT_EQ(Value::mkBool(false).kind(), ValueKind::Bool);
  EXPECT_EQ(Value::mkNil().kind(), ValueKind::Nil);
  EXPECT_EQ(Value::mkPrim1(Prim1Op::Hd).asPrim1(), Prim1Op::Hd);
  EXPECT_EQ(Value::mkPrim2(Prim2Op::Cons).asPrim2(), Prim2Op::Cons);
  EXPECT_TRUE(Value::mkPrim1(Prim1Op::Not).isFunction());
  EXPECT_TRUE(Value::mkPrim2(Prim2Op::Add).isFunction());
}

//===----------------------------------------------------------------------===//
// Hard-coded goldens that cross the inline/boxed boundary at run time
//===----------------------------------------------------------------------===//

namespace {

struct Golden {
  const char *Src;
  const char *Expect; ///< Expected ValueText under every evaluator.
};

// pow2 computes out of the 48-bit inline range by repeated Mul; the other
// programs force unboxing (Div, comparison, equality, Abs/Neg, lists of
// boxed ints) so a representation bug cannot hide behind rendering. The
// last group pins integer overflow to two's complement: + - * and negation
// wrap, INT64_MIN / -1 = INT64_MIN and INT64_MIN % -1 = 0 (these used to
// raise SIGFPE on every backend).
const Golden kBoundaryGoldens[] = {
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "pow2 62",
     "4611686018427387904"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "0 - pow2 62",
     "-4611686018427387904"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "pow2 62 / pow2 30",
     "4294967296"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "pow2 50 = pow2 50",
     "True"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "pow2 50 < pow2 50 + 1",
     "True"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "abs (0 - pow2 55)",
     "36028797018963968"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "pow2 60 : pow2 20 : [3]",
     "[1152921504606846976, 1048576, 3]"},
    {"letrec pow2 = lambda n. if n < 1 then 1 else 2 * pow2 (n - 1) in "
     "pow2 55 % (pow2 20 + 7)",
     "557049"},
    {"(0 - 9223372036854775807 - 1) / (0 - 1)", "-9223372036854775808"},
    {"(0 - 9223372036854775807 - 1) % (0 - 1)", "0"},
    {"9223372036854775807 + 1", "-9223372036854775808"},
    {"0 - (0 - 9223372036854775807 - 1)", "-9223372036854775808"},
    {"4611686018427387904 * 2", "-9223372036854775808"},
    {"- (0 - 9223372036854775807 - 1)", "-9223372036854775808"},
    {"abs (0 - 9223372036854775807 - 1)", "-9223372036854775808"},
};

} // namespace

TEST(ValueReprTest, BoundaryGoldensAgreeOnEveryBackend) {
  for (const Golden &G : kBoundaryGoldens) {
    auto P = ParsedProgram::parse(G.Src);
    const Expr *E = parseInto(*P, G.Src);

    for (Strategy S :
         {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
      RunResult R = runCEK(E, S);
      ASSERT_TRUE(R.Ok) << G.Src << ": " << R.Error;
      EXPECT_EQ(R.ValueText, G.Expect)
          << G.Src << " (CEK " << strategyName(S) << ")";
      RunResult D = runDirectAt(nullptr, E, S);
      ASSERT_TRUE(D.Ok) << G.Src << ": " << D.Error;
      EXPECT_EQ(D.ValueText, G.Expect)
          << G.Src << " (Direct " << strategyName(S) << ")";
    }
    // vm-aot degrades to vm-reg where no C compiler is available.
    for (BackendTag B : {kVM, kVMReg, kVMAot}) {
      RunResult VM = evaluate(EvalMode(B) & maxSteps(Fuel), E);
      ASSERT_TRUE(VM.Ok) << G.Src << ": " << VM.Error;
      EXPECT_EQ(VM.ValueText, G.Expect)
          << G.Src << " (backend " << static_cast<int>(B.B) << ")";
    }

  }
}

TEST(ValueReprTest, ImperativeModuleWrapsIntegerOverflow) {
  // The imperative module evaluates expressions through the same
  // primitives, so it inherits the same two's-complement edges.
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *C = parseImpProgram(
      Ctx,
      "m := 0 - 9223372036854775807 - 1; print m / (0 - 1); "
      "print m % (0 - 1); print m - 1",
      Diags);
  ASSERT_NE(C, nullptr) << Diags.str();
  ImpRunResult R = runImp(C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"-9223372036854775808", "0",
                                                "9223372036854775807"}));
}

//===----------------------------------------------------------------------===//
// Random corpus: every evaluator and strategy agrees.
//===----------------------------------------------------------------------===//

class ValueReprCorpus : public ::testing::TestWithParam<unsigned> {};

TEST_P(ValueReprCorpus, UnmonitoredEvaluatorsAgree) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunResult Base = runCEK(Prog, Strategy::Strict);

  // Lazy strategies agree with the Direct interpreter at the same strategy
  // (they may legitimately differ from strict on error outcomes). The CPS
  // budget is tighter than CEK fuel, so a governed Direct run is skipped.
  for (Strategy S : {Strategy::CallByName, Strategy::CallByNeed}) {
    RunResult L = runCEK(Prog, S);
    RunResult D = runDirectAt(nullptr, Prog, S);
    if (!L.stoppedByGovernor() && !D.stoppedByGovernor()) {
      EXPECT_TRUE(L.sameOutcome(D))
          << strategyName(S) << ": " << printExpr(Prog);
    }
  }

  // The strict backends through the unified entry.
  RunResult VM = evaluate(EvalMode(kVM) & maxSteps(Fuel), Prog);
  EXPECT_TRUE(VM.sameOutcome(Base)) << "VM: " << printExpr(Prog);

  RunResult Direct = runDirectAt(nullptr, Prog, Strategy::Strict);
  if (!Direct.stoppedByGovernor()) { // The CPS budget is tighter than fuel.
    EXPECT_TRUE(Direct.sameOutcome(Base)) << "Direct: " << printExpr(Prog);
  }
}

TEST_P(ValueReprCorpus, MonitoredStatesAgreeAcrossEvaluators) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());

  // CountingProfiler claims the corpus' bare A/B labels; the final state
  // renders deterministically, so it must be bit-identical across every
  // configuration.
  auto stateOf = [](const RunResult &R) -> std::string {
    return R.FinalStates.empty() ? std::string() : R.FinalStates[0]->str();
  };

  CountingProfiler Count;
  Cascade C;
  C.use(Count);

  RunResult Base = runMonitoredCEK(C, Prog, Strategy::Strict);

  RunResult VM = evaluate(EvalMode(Count) & kVM & maxSteps(Fuel), Prog);
  EXPECT_TRUE(VM.sameOutcome(Base)) << "VM: " << printExpr(Prog);
  EXPECT_EQ(stateOf(VM), stateOf(Base)) << "VM: " << printExpr(Prog);

  RunResult Direct = runDirectAt(&C, Prog, Strategy::Strict);
  if (!Direct.stoppedByGovernor()) {
    EXPECT_TRUE(Direct.sameOutcome(Base)) << "Direct: " << printExpr(Prog);
    EXPECT_EQ(stateOf(Direct), stateOf(Base)) << "Direct: " << printExpr(Prog);
  }

  // Lazy strategies: the monitored run agrees with its own unmonitored
  // baseline (soundness) and with the monitored Direct run.
  for (Strategy S : {Strategy::CallByName, Strategy::CallByNeed}) {
    RunResult Std = runCEK(Prog, S);
    RunResult Mon = runMonitoredCEK(C, Prog, S);
    EXPECT_TRUE(Mon.sameOutcome(Std))
        << strategyName(S) << ": " << printExpr(Prog);
    RunResult D = runDirectAt(&C, Prog, S);
    if (!Mon.stoppedByGovernor() && !D.stoppedByGovernor()) {
      EXPECT_TRUE(Mon.sameOutcome(D))
          << strategyName(S) << " Direct: " << printExpr(Prog);
      EXPECT_EQ(stateOf(Mon), stateOf(D))
          << strategyName(S) << " Direct: " << printExpr(Prog);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueReprCorpus, ::testing::Range(0u, 60u));

//===----------------------------------------------------------------------===//
// lookupFrame / EnvView honor the Unit-placeholder tag predicate
//===----------------------------------------------------------------------===//

TEST(ValueReprTest, LookupFrameSkipsUnitSlots) {
  Arena A;
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  FrameShape Shape;
  Shape.Slots = {X, Y};
  // Frames store a shape id and decode it through the owning Resolution's
  // table; a one-entry table stands in for it here (Shape.Id stays 0).
  const FrameShape *Table[] = {&Shape};
  EnvFrame *F = allocFrame(A, &Shape, nullptr, Value::mkInt(7));
  // Slot 1 (y) is a Unit placeholder: absent for lookup.
  EXPECT_EQ(lookupFrame(F, Y, Table), nullptr);
  ASSERT_NE(lookupFrame(F, X, Table), nullptr);
  EXPECT_EQ(lookupFrame(F, X, Table)->asInt(), 7);
  // Initializing the slot makes it visible — including to a value whose
  // payload is all zeroes (Int 0 must NOT look like Unit).
  F->slots()[1] = Value::mkInt(0);
  ASSERT_NE(lookupFrame(F, Y, Table), nullptr);
  EXPECT_EQ(lookupFrame(F, Y, Table)->asInt(), 0);
  EXPECT_FALSE(F->slots()[1].isUnit());
}
