//===- tests/resolver_test.cpp - Lexical-address resolution tests ----------===//
//
// Two layers:
//
//  * Unit tests of the resolver's address and frame-layout computation on
//    hand-written programs (coalescing rule, globals, unbound names, the
//    DAG refusal).
//
//  * Differential tests: over generated programs, the CEK machine (which
//    runs resolved programs on flat frames) must produce the observable
//    outcome of its reference, the Direct CPS interpreter — same value or
//    same error text, and the same final monitor states — under every
//    evaluation strategy, with and without a monitor cascade; under the
//    strict strategy the bytecode VMs must agree too. The lazy step counts
//    are pinned by a digest recorded when the named-chain machine still
//    existed and agreed with the flat-frame machine step for step.
//
//===----------------------------------------------------------------------===//

#include "analysis/Resolver.h"
#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"
#include "semantics/Primitives.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

constexpr uint64_t Fuel = 500000;

std::unique_ptr<ParsedProgram> parseOrDie(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

const VarExpr *findVar(const Expr *E, std::string_view Name) {
  if (!E)
    return nullptr;
  switch (E->kind()) {
  case ExprKind::Const:
    return nullptr;
  case ExprKind::Var: {
    const auto *V = cast<VarExpr>(E);
    return V->Name.str() == Name ? V : nullptr;
  }
  case ExprKind::Lam:
    return findVar(cast<LamExpr>(E)->Body, Name);
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    if (const VarExpr *V = findVar(I->Cond, Name))
      return V;
    if (const VarExpr *V = findVar(I->Then, Name))
      return V;
    return findVar(I->Else, Name);
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    if (const VarExpr *V = findVar(A->Fn, Name))
      return V;
    return findVar(A->Arg, Name);
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    if (const VarExpr *V = findVar(L->Bound, Name))
      return V;
    return findVar(L->Body, Name);
  }
  case ExprKind::Prim1:
    return findVar(cast<Prim1Expr>(E)->Arg, Name);
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    if (const VarExpr *V = findVar(P->Lhs, Name))
      return V;
    return findVar(P->Rhs, Name);
  }
  case ExprKind::Annot:
    return findVar(cast<AnnotExpr>(E)->Inner, Name);
  }
  return nullptr;
}

const LetrecExpr *findLetrec(const Expr *E, std::string_view Name) {
  if (!E)
    return nullptr;
  switch (E->kind()) {
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    if (L->Name.str() == Name)
      return L;
    if (const LetrecExpr *R = findLetrec(L->Bound, Name))
      return R;
    return findLetrec(L->Body, Name);
  }
  case ExprKind::Lam:
    return findLetrec(cast<LamExpr>(E)->Body, Name);
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    if (const LetrecExpr *R = findLetrec(A->Fn, Name))
      return R;
    return findLetrec(A->Arg, Name);
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    if (const LetrecExpr *R = findLetrec(I->Cond, Name))
      return R;
    if (const LetrecExpr *R = findLetrec(I->Then, Name))
      return R;
    return findLetrec(I->Else, Name);
  }
  case ExprKind::Prim1:
    return findLetrec(cast<Prim1Expr>(E)->Arg, Name);
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    if (const LetrecExpr *R = findLetrec(P->Lhs, Name))
      return R;
    return findLetrec(P->Rhs, Name);
  }
  case ExprKind::Annot:
    return findLetrec(cast<AnnotExpr>(E)->Inner, Name);
  default:
    return nullptr;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Unit tests: addresses and frame layouts
//===----------------------------------------------------------------------===//

TEST(ResolverTest, FibAddresses) {
  auto P = parseOrDie("letrec fib = lambda n. if n < 2 then n else "
                      "fib (n - 1) + fib (n - 2) in fib 10");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());

  // The top-level letrec coalesces into the root frame (slot 0); the
  // lambda owns the only other frame.
  ASSERT_EQ(Res->numShapes(), 2u);
  EXPECT_EQ(Res->rootShape()->numSlots(), 1u);
  EXPECT_EQ(Res->rootShape()->slotName(0).str(), "fib");

  const LetrecExpr *Fib = findLetrec(P->root(), "fib");
  ASSERT_NE(Fib, nullptr);
  EXPECT_EQ(Fib->Shape, nullptr) << "coalesced member, not a frame head";
  EXPECT_EQ(Fib->SlotIndex, 0u);

  const auto *Lam = cast<LamExpr>(Fib->Bound);
  ASSERT_NE(Lam->Shape, nullptr);
  EXPECT_EQ(Lam->Shape->numSlots(), 1u);
  EXPECT_EQ(Lam->Shape->slotName(0).str(), "n");

  // Inside the lambda body: `n` is in the current frame, `fib` one up.
  const VarExpr *N = findVar(Lam->Body, "n");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Addr, VarExpr::AddrKind::Local);
  EXPECT_EQ(N->FrameDepth, 0u);
  EXPECT_EQ(N->SlotIndex, 0u);

  const VarExpr *FibRef = findVar(Lam->Body, "fib");
  ASSERT_NE(FibRef, nullptr);
  EXPECT_EQ(FibRef->Addr, VarExpr::AddrKind::Local);
  EXPECT_EQ(FibRef->FrameDepth, 1u);
  EXPECT_EQ(FibRef->SlotIndex, 0u);

  // In the letrec body `fib 10`, the reference stays in the root frame.
  const VarExpr *FibCall = findVar(Fib->Body, "fib");
  ASSERT_NE(FibCall, nullptr);
  EXPECT_EQ(FibCall->FrameDepth, 0u);
  EXPECT_EQ(FibCall->SlotIndex, 0u);
}

TEST(ResolverTest, LetrecChainCoalescesIntoLambdaFrame) {
  auto P = parseOrDie("lambda x. letrec a = x + 1 in letrec b = a + 1 in "
                      "x + a + b");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());

  const auto *Lam = cast<LamExpr>(P->root());
  ASSERT_NE(Lam->Shape, nullptr);
  ASSERT_EQ(Lam->Shape->numSlots(), 3u);
  EXPECT_EQ(Lam->Shape->slotName(0).str(), "x");
  EXPECT_EQ(Lam->Shape->slotName(1).str(), "a");
  EXPECT_EQ(Lam->Shape->slotName(2).str(), "b");

  const LetrecExpr *A = findLetrec(P->root(), "a");
  const LetrecExpr *B = findLetrec(P->root(), "b");
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Shape, nullptr);
  EXPECT_EQ(A->SlotIndex, 1u);
  EXPECT_EQ(B->Shape, nullptr);
  EXPECT_EQ(B->SlotIndex, 2u);

  // All three variables of the sum live in the same frame (depth 0).
  for (const char *Name : {"x", "a", "b"}) {
    const VarExpr *V = findVar(cast<LetrecExpr>(Lam->Body)->Body, Name);
    ASSERT_NE(V, nullptr) << Name;
    EXPECT_EQ(V->Addr, VarExpr::AddrKind::Local);
    EXPECT_EQ(V->FrameDepth, 0u) << Name;
  }
}

TEST(ResolverTest, ThunkablePositionsDoNotCoalesce) {
  // A letrec inside an application operand may be re-evaluated per
  // application under call-by-name: it must own its frame.
  auto P = parseOrDie("(lambda x. x) (letrec a = 1 in a)");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());
  const LetrecExpr *A = findLetrec(P->root(), "a");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(A->Shape, nullptr) << "operand letrec must be a frame head";
  EXPECT_EQ(A->Shape->slotName(0).str(), "a");

  // Same for a letrec inside a letrec's bound expression (thunked under
  // the lazy strategies).
  auto Q = parseOrDie("letrec f = (letrec g = 1 in g) in f");
  auto QRes = resolveProgram(Q->root());
  ASSERT_TRUE(QRes->ok());
  const LetrecExpr *G = findLetrec(Q->root(), "g");
  ASSERT_NE(G, nullptr);
  EXPECT_NE(G->Shape, nullptr);
}

TEST(ResolverTest, BranchesAndPrimOperandsDoCoalesce) {
  auto P = parseOrDie("lambda c. 1 + (if c then letrec a = 1 in a "
                      "else letrec b = 2 in b)");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());
  const auto *Lam = cast<LamExpr>(P->root());
  ASSERT_NE(Lam->Shape, nullptr);
  // c, a, b share the lambda's frame; the untaken branch's slot stays
  // Unit at run time.
  EXPECT_EQ(Lam->Shape->numSlots(), 3u);
  const LetrecExpr *A = findLetrec(P->root(), "a");
  const LetrecExpr *B = findLetrec(P->root(), "b");
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Shape, nullptr);
  EXPECT_EQ(B->Shape, nullptr);
  EXPECT_NE(A->SlotIndex, B->SlotIndex);
}

TEST(ResolverTest, GlobalsResolveIntoThePrimFrame) {
  auto P = parseOrDie("(lambda f. f (1 : 2 : [])) hd");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());
  const VarExpr *Hd = findVar(P->root(), "hd");
  ASSERT_NE(Hd, nullptr);
  EXPECT_EQ(Hd->Addr, VarExpr::AddrKind::Global);
  EXPECT_EQ(primBindings()[Hd->SlotIndex].Name.str(), "hd");
}

TEST(ResolverTest, UserBindingShadowsPrimitive) {
  auto P = parseOrDie("(lambda hd. hd) 3");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());
  const VarExpr *Hd = findVar(P->root(), "hd");
  ASSERT_NE(Hd, nullptr);
  EXPECT_EQ(Hd->Addr, VarExpr::AddrKind::Local);
}

TEST(ResolverTest, UnboundVariableIsStatic) {
  auto P = parseOrDie("lambda x. y");
  auto Res = resolveProgram(P->root());
  ASSERT_TRUE(Res->ok());
  const VarExpr *Y = findVar(P->root(), "y");
  ASSERT_NE(Y, nullptr);
  EXPECT_EQ(Y->Addr, VarExpr::AddrKind::Unbound);

  // The run-time error text matches the Direct interpreter's, which
  // looks the name up in its named chain.
  auto Q = parseOrDie("y");
  RunResult A = runDirect(Q->root());
  RunResult B = evaluate(Q->root(), RunOptions());
  EXPECT_FALSE(A.Ok);
  EXPECT_FALSE(B.Ok);
  EXPECT_EQ(A.Error, B.Error);
}

TEST(ResolverTest, SharedNodesAreRefused) {
  AstContext Ctx;
  const Expr *Shared = Ctx.mkInt(1);
  const Expr *Dag = Ctx.mkPrim2(Prim2Op::Add, Shared, Shared);
  auto Res = resolveProgram(Dag);
  EXPECT_FALSE(Res->ok());
  // A hand-built DAG is a clear error on the CEK machine and on every VM
  // tier; nothing falls back to another representation.
  RunResult R = evaluate(Dag, RunOptions());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_EQ(R.Error, kSharedNodesError);
  for (BackendTag B : {kVM, kVMReg}) {
    RunResult V = evaluate(EvalMode(B), Dag);
    EXPECT_EQ(V.St, Outcome::Error);
    EXPECT_NE(V.Error.find(kSharedNodesError), std::string::npos) << V.Error;
  }
  // A tree copy of it runs everywhere.
  const Expr *Tree = cloneExpr(Ctx, Dag);
  ASSERT_TRUE(resolveProgram(Tree)->ok());
  for (BackendTag B : {kCEK, kVM, kVMReg, kDirect}) {
    RunResult T = evaluate(EvalMode(B), Tree);
    ASSERT_TRUE(T.Ok) << T.Error;
    EXPECT_EQ(T.IntValue, 2);
  }
}

//===----------------------------------------------------------------------===//
// Differential tests: CEK machine vs the Direct interpreter and the VMs
//===----------------------------------------------------------------------===//

namespace {

RunResult runOne(const Expr *Prog, Strategy S, const Cascade *C) {
  if (C)
    return evaluate(*C & StrategyTag{S} & maxSteps(Fuel), Prog);
  RunOptions Opts;
  Opts.Strat = S;
  Opts.MaxSteps = Fuel;
  return evaluate(Prog, Opts);
}

std::string describe(const RunResult &R) {
  if (R.St == Outcome::Ok)
    return R.ValueText;
  if (R.St == Outcome::Error)
    return R.Error;
  return outcomeName(R.St);
}

/// \p Other (a reference run) agrees with the CEK run \p Cek on outcome
/// and final monitor states. A run the governor stopped (the CPS call
/// budget and stack guard are tighter than CEK fuel) is not compared.
void expectAgrees(const RunResult &Cek, const RunResult &Other,
                  const std::string &What) {
  if (Cek.stoppedByGovernor() || Other.stoppedByGovernor())
    return;
  EXPECT_TRUE(Cek.sameOutcome(Other)) << What << "\n  cek:   "
                                      << describe(Cek) << "\n  other: "
                                      << describe(Other);
  ASSERT_EQ(Cek.FinalStates.size(), Other.FinalStates.size()) << What;
  for (size_t I = 0; I < Cek.FinalStates.size(); ++I)
    EXPECT_EQ(Cek.FinalStates[I]->str(), Other.FinalStates[I]->str())
        << What;
}

void checkProgram(const Expr *Prog, const Cascade *C) {
  ASSERT_TRUE(resolveProgram(Prog)->ok());
  EvalMode Base = C ? EvalMode(*C) : EvalMode();
  for (Strategy S :
       {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
    std::string What =
        std::string(strategyName(S)) + (C ? " monitored" : "");
    RunResult Cek = runOne(Prog, S, C);
    expectAgrees(
        Cek, evaluate(Base & kDirect & StrategyTag{S} & maxSteps(Fuel), Prog),
        What + " direct");
    if (S != Strategy::Strict)
      continue;
    for (BackendTag B : {kVM, kVMReg})
      expectAgrees(Cek, evaluate(Base & B & maxSteps(Fuel), Prog),
                   What + (B.B == Backend::VM ? " vm" : " vm-reg"));
  }
}

} // namespace

class ResolverDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ResolverDifferentialTest, SameOutcomeAllStrategies) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  checkProgram(Prog, nullptr);
}

TEST_P(ResolverDifferentialTest, SameOutcomeUnderMonitorCascade) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  CountingProfiler Count;
  Tracer Trace;
  Cascade C = cascadeOf({&Count, &Trace});
  checkProgram(Prog, &C);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolverDifferentialTest,
                         ::testing::Range(0u, 120u));

TEST(ResolverDifferentialTest, LazyStepCountsArePinned) {
  // One line per run — outcome, answer or error, steps, final monitor
  // states — over seeds 0-119 x {name, need} x {plain, cascade}, hashed
  // with FNV-1a. The digest was recorded while the named-chain machine
  // still existed and matched the flat-frame machine on every one of these
  // runs, so it pins the lazy step counts that differential guaranteed.
  uint64_t H = fnv1aHash("");
  for (unsigned Seed = 0; Seed < 120; ++Seed)
    for (Strategy S : {Strategy::CallByName, Strategy::CallByNeed})
      for (bool Monitored : {false, true}) {
        AstContext Ctx;
        const Expr *Prog = monsem::testing::genProgram(Ctx, Seed);
        CountingProfiler Count;
        Tracer Trace;
        Cascade C = cascadeOf({&Count, &Trace});
        RunResult R = runOne(Prog, S, Monitored ? &C : nullptr);
        std::string Line = std::string(outcomeName(R.St)) + '|' +
                           (R.Ok ? R.ValueText : R.Error) + '|' +
                           std::to_string(R.Steps);
        for (const auto &St : R.FinalStates)
          Line += '|' + St->str();
        Line += '\n';
        H = fnv1aHash(Line.data(), Line.size(), H);
      }
  EXPECT_EQ(H, 0x7f652c9d271be9d6ull);
}

TEST(ResolverDifferentialTest, TracerSeesNamedBindingsOnFrames) {
  // The tracer reads the environment *by name* through EnvView; its final
  // state must be identical on flat frames and on the Direct interpreter's
  // named chain.
  auto P = parseOrDie("letrec fac = lambda n. {fac(n)}: if n < 2 then 1 "
                      "else n * fac (n - 1) in fac 6");
  Tracer Trace;
  Cascade C = cascadeOf({&Trace});
  checkProgram(P->root(), &C);
}

TEST(ResolverDifferentialTest, HandWrittenCornerCases) {
  const char *Programs[] = {
      // Deep recursion through a coalesced letrec.
      "letrec down = lambda n. if n = 0 then 0 else down (n - 1) in "
      "down 2000",
      // Self-reference before initialization (error parity).
      "letrec x = x + 1 in x",
      // Letrec under a branch, taken and untaken.
      "lambda c. if c then letrec a = 1 in a else 2",
      // Closure escaping the frame whose slot it reads.
      "letrec mk = lambda x. lambda y. x + y in (mk 1) 2",
      // Higher-order primitive and shadowing.
      "(lambda hd. hd 1) (lambda z. z + 1)",
      // Black hole / infinite dependency under laziness.
      "letrec w = w in w", "letrec x = x + 1 in x",
      // Operands a lazy strategy never forces: failing, divergent, and
      // dropped by a curried constant function.
      "(lambda x. 7) (hd [])",
      "letrec f = lambda n. f n in (lambda x. 3) (f 1)",
      "letrec k = lambda x. lambda y. x in k 1 (1 / 0)",
      // A thunked operand forced through a higher-order call.
      "(lambda f. f 2) (lambda y. y * y)",
  };
  for (const char *Src : Programs) {
    auto P = parseOrDie(Src);
    checkProgram(P->root(), nullptr);
  }
}
