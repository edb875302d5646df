//===- tests/compiler_test.cpp - Bytecode compiler & VM --------------------===//
//
// Level-2 specialization (Section 9.1): the instrumented program must be
// observationally identical to the monitored interpreter — same answers,
// same monitor states — with the interpretive overhead gone.
//
//===----------------------------------------------------------------------===//

#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Eval.h"
#include "monitors/Collecting.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"
#include "support/Thread.h"
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

RunResult runVM(std::string_view Src) {
  auto P = parseOk(Src);
  Cascade Empty;
  return evaluateCompiled(Empty, P->root());
}

} // namespace

TEST(CompilerTest, BasicPrograms) {
  EXPECT_EQ(runVM("1 + 2 * 3").IntValue, 7);
  EXPECT_EQ(runVM("(lambda x. x + 1) 41").IntValue, 42);
  EXPECT_EQ(runVM("if 1 < 2 then 10 else 20").IntValue, 10);
  EXPECT_EQ(runVM("letrec fac = lambda x. if x = 0 then 1 else "
                  "x * fac (x - 1) in fac 6")
                .IntValue,
            720);
  EXPECT_EQ(runVM("hd (tl [1, 2, 3])").IntValue, 2);
  EXPECT_EQ(runVM("let m = min in m 4 7").IntValue, 4);
  EXPECT_EQ(runVM("letrec x = 2 + 3 in x * x").IntValue, 25);
}

TEST(CompilerTest, RuntimeErrors) {
  EXPECT_NE(runVM("1 / 0").Error.find("division by zero"),
            std::string::npos);
  EXPECT_NE(runVM("hd []").Error.find("hd"), std::string::npos);
  EXPECT_NE(runVM("1 2").Error.find("non-function"), std::string::npos);
  EXPECT_NE(runVM("if 3 then 1 else 2").Error.find("boolean"),
            std::string::npos);
  EXPECT_NE(runVM("letrec x = x + 1 in x").Error.find("before init"),
            std::string::npos);
}

TEST(CompilerTest, UnboundVariableIsACompileError) {
  auto P = parseOk("x + 1");
  DiagnosticSink D;
  EXPECT_EQ(compileProgram(P->root(), D), nullptr);
  EXPECT_TRUE(D.hasErrors());
}

TEST(CompilerTest, TailCallsRunInConstantFrameSpace) {
  // One million tail-recursive iterations.
  RunResult R = runVM("letrec loop = lambda n. if n = 0 then 7 else "
                      "loop (n - 1) in loop 1000000");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 7);
}

TEST(CompilerTest, InstrumentationEmitsProbesOnlyAtAnnotations) {
  auto P = parseOk("letrec f = lambda x. {f}: x + 1 in f 1 + f 2");
  DiagnosticSink D;
  auto On = compileProgram(P->root(), D);
  CompileOptions Off;
  Off.Instrument = false;
  auto OffP = compileProgram(P->root(), D, Off);
  ASSERT_NE(On, nullptr);
  ASSERT_NE(OffP, nullptr);
  EXPECT_EQ(On->Probes.size(), 1u);
  EXPECT_EQ(OffP->Probes.size(), 0u);
  EXPECT_NE(On->disassemble().find("monpre {f}"), std::string::npos);
  EXPECT_EQ(OffP->disassemble().find("monpre"), std::string::npos);
}

TEST(CompilerTest, InstrumentedRunMatchesInterpreterStates) {
  const char *Src =
      "letrec mul = lambda x. lambda y. {mul(x, y)}: {mul}:(x*y) in "
      "letrec fac = lambda x. {fac(x)}: {fac}: if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3";
  auto P = parseOk(Src);
  CallProfiler Prof;
  Tracer Trc;
  Cascade C = cascadeOf({&Prof, &Trc});
  RunResult Interp = evaluate(C, P->root());
  RunResult VM = evaluateCompiled(C, P->root());
  ASSERT_TRUE(Interp.Ok && VM.Ok) << Interp.Error << VM.Error;
  EXPECT_EQ(Interp.ValueText, VM.ValueText);
  ASSERT_EQ(VM.FinalStates.size(), 2u);
  EXPECT_EQ(Interp.FinalStates[0]->str(), VM.FinalStates[0]->str());
  EXPECT_EQ(Interp.FinalStates[1]->str(), VM.FinalStates[1]->str());
}

TEST(CompilerTest, MonitoredTailPositionStillProbesPost) {
  // The annotation wraps a tail call; MonPost must still fire with the
  // call's result.
  auto P = parseOk("letrec f = lambda n. if n = 0 then 0 else "
                   "{v}: f (n - 1) in f 3");
  CollectingMonitor Coll;
  Cascade C;
  C.use(Coll);
  RunResult R = evaluateCompiled(C, P->root());
  ASSERT_TRUE(R.Ok) << R.Error;
  const auto *S = CollectingMonitor::state(*R.FinalStates[0]).setFor("v");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(*S, (std::set<std::string>{"0"}));
}

TEST(CompilerTest, FuelExhaustion) {
  auto P = parseOk("letrec loop = lambda x. loop x in loop 1");
  DiagnosticSink D;
  auto CP = compileProgram(P->root(), D);
  ASSERT_NE(CP, nullptr);
  RunOptions Opts;
  Opts.MaxSteps = 5000;
  RunResult R = runCompiled(*CP, nullptr, Opts);
  EXPECT_TRUE(R.FuelExhausted);
}

TEST(CompilerTest, DisassemblyIsStable) {
  auto P = parseOk("(lambda x. x + 1) 2");
  DiagnosticSink D;
  auto CP = compileProgram(P->root(), D);
  ASSERT_NE(CP, nullptr);
  std::string Dis = CP->disassemble();
  EXPECT_NE(Dis.find("block 0 (<main>)"), std::string::npos);
  EXPECT_NE(Dis.find("block 1 (lambda x)"), std::string::npos);
  EXPECT_NE(Dis.find("tailcall"), std::string::npos);
  // The lambda body `x + 1` fuses Var;Const;Prim2 into one instruction.
  EXPECT_NE(Dis.find("varconstprim2 0 1 +"), std::string::npos);

  // With fusion off, the unfused sequence disassembles as before.
  CompileOptions CO;
  CO.Fuse = false;
  auto Raw = compileProgram(P->root(), D, CO);
  ASSERT_NE(Raw, nullptr);
  std::string RawDis = Raw->disassemble();
  EXPECT_NE(RawDis.find("prim2 +"), std::string::npos);
  EXPECT_EQ(RawDis.find("varconstprim2"), std::string::npos);
}

TEST(CompilerTest, VMIsFasterInStepsThanInterpreter) {
  // Not a wall-clock benchmark (see bench/), but the instruction count of
  // the compiled program should undercut the machine's transition count:
  // the syntax dispatch is gone.
  const char *Src = "letrec fib = lambda n. if n < 2 then n else "
                    "fib (n - 1) + fib (n - 2) in fib 15";
  auto P = parseOk(Src);
  RunResult Interp = evaluate(P->root());
  Cascade Empty;
  RunResult VM = evaluateCompiled(Empty, P->root());
  ASSERT_TRUE(Interp.Ok && VM.Ok);
  EXPECT_EQ(Interp.ValueText, VM.ValueText);
  EXPECT_LT(VM.Steps, Interp.Steps);
}

// Differential: VM vs CEK machine over generated programs, both standard
// and monitored.
class VMDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(VMDifferentialTest, AgreesWithMachine) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunOptions Opts;
  Opts.MaxSteps = 1000000;
  RunResult Interp = evaluate(Prog, Opts);
  Cascade Empty;
  RunResult VM = evaluateCompiled(Empty, Prog, Opts);
  EXPECT_TRUE(Interp.sameOutcome(VM))
      << printExpr(Prog) << "\ninterp: "
      << (Interp.Ok ? Interp.ValueText : Interp.Error)
      << "\nvm: " << (VM.Ok ? VM.ValueText : VM.Error);
}

TEST_P(VMDifferentialTest, MonitoredStatesAgreeWithMachine) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  CountingProfiler Count;
  Cascade C;
  C.use(Count);
  RunOptions Opts;
  Opts.MaxSteps = 1000000;
  RunResult Interp = evaluate(C & maxSteps(Opts.MaxSteps), Prog);
  RunResult VM = evaluateCompiled(C, Prog, Opts);
  EXPECT_TRUE(Interp.sameOutcome(VM)) << printExpr(Prog);
  if (Interp.Ok && VM.Ok) {
    ASSERT_EQ(Interp.FinalStates.size(), VM.FinalStates.size());
    EXPECT_EQ(Interp.FinalStates[0]->str(), VM.FinalStates[0]->str())
        << printExpr(Prog);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VMDifferentialTest,
                         ::testing::Range(0u, 80u));

//===----------------------------------------------------------------------===//
// The register encoding's limits: compileProgram refuses what the register
// tier cannot hold, so every compiled program lowers.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Fn on a thread with a 256 MiB stack: the trees below are deeper
/// than the parser accepts, and the recursive phases need the room.
void onBigStack(const std::function<void()> &Fn) {
  StackThread T(size_t(256) << 20, Fn);
  T.join();
}

/// `1 + (1 + (... + 1))` with \p N additions, built directly: the parser
/// refuses nesting this deep. Each pending `1` is one operand-stack slot.
const Expr *tallSum(AstContext &Ctx, unsigned N) {
  const Expr *E = Ctx.mkInt(1);
  for (unsigned I = 0; I < N; ++I)
    E = Ctx.mkPrim2(Prim2Op::Add, Ctx.mkInt(1), E);
  return E;
}

} // namespace

TEST(CompilerTest, OperandStackBeyondTheRegisterEncodingIsADiagnostic) {
  onBigStack([] {
    AstContext Ctx;
    // Exactly kMaxOperandStack pending operands compile, lower and run.
    const Expr *AtLimit = tallSum(Ctx, kMaxOperandStack - 1);
    DiagnosticSink D1;
    auto CP = compileProgram(AtLimit, D1);
    ASSERT_NE(CP, nullptr) << D1.str();
    EXPECT_NE(lowerToRegisters(*CP), nullptr);
    RunResult Ok = runCompiled(*CP);
    ASSERT_EQ(Ok.St, Outcome::Ok) << Ok.Error;
    EXPECT_EQ(Ok.IntValue, int64_t(kMaxOperandStack));

    const Expr *Past = tallSum(Ctx, 33000);
    DiagnosticSink D2;
    EXPECT_EQ(compileProgram(Past, D2), nullptr);
    EXPECT_NE(D2.str().find("pending operands"), std::string::npos)
        << D2.str();
    for (BackendTag B : {kVM, kVMReg, kVMAot}) {
      RunResult R = evaluate(EvalMode(B), Past);
      EXPECT_EQ(R.St, Outcome::Error);
      EXPECT_NE(R.Error.find("pending operands"), std::string::npos)
          << R.Error;
    }
    // The CEK machine has no such encoding and runs it.
    EXPECT_EQ(evaluate(Past).IntValue, 33001);
  });
}

TEST(CompilerTest, BinderDepthBeyondTheRegisterEncodingIsADiagnostic) {
  onBigStack([] {
    AstContext Ctx;
    // lambda x. lambda y. ... lambda y. x — x sits kParamReg binders out.
    Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
    const Expr *Body = Ctx.mkVar(X);
    for (unsigned I = 0; I < kParamReg; ++I)
      Body = Ctx.mkLam(Y, Body);
    DiagnosticSink D;
    EXPECT_EQ(compileProgram(Ctx.mkLam(X, Body), D), nullptr);
    EXPECT_NE(D.str().find("binders out"), std::string::npos) << D.str();
  });
}
