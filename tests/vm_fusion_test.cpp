//===- tests/vm_fusion_test.cpp - Superinstruction fusion & tail reuse -----===//
//
// Superinstruction fusion and the self-tail-call frame-reuse optimisation
// are pure implementation refinements: Section 9.1's specialized program
// must stay observationally identical to the source machine — same
// answers, same step counts, same monitor states. These tests pin that
// down differentially (fused vs. unfused bytecode on the register tier vs.
// the CEK machine, monitored and unmonitored), plus the structural
// properties fusion must respect:
// jump targets block fusion, probes break fusion windows, and frame reuse
// never fires when a closure can capture the activation frame.
//
//===----------------------------------------------------------------------===//

#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
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

/// evaluateCompiled with an explicit fusion switch, so the same program can
/// be run through the fused and unfused pipelines under one cascade.
RunResult runVM(const Cascade &C, const Expr *Program, RunOptions Opts,
                bool Fuse) {
  DiagnosticSink Diags;
  if (!C.empty() && !C.validateFor(Program, Diags)) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  CompileOptions CO;
  CO.Instrument = !C.empty();
  CO.Fuse = Fuse;
  std::unique_ptr<CompiledProgram> CP = compileProgram(Program, Diags, CO);
  if (!CP) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  if (C.empty())
    return runCompiled(*CP, nullptr, Opts);
  RuntimeCascade RC(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
  RunResult R = runCompiled(*CP, &RC, Opts);
  R.FinalStates = RC.takeStates();
  R.MonitorFaults = RC.takeFaults();
  return R;
}

std::string statesOf(const RunResult &R) {
  std::string Out;
  for (const auto &S : R.FinalStates)
    Out += S->str() + ";";
  return Out;
}

size_t countSubstr(const std::string &Haystack, std::string_view Needle) {
  size_t N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

} // namespace

TEST(VMFusionTest, FusionProducesSuperinstructions) {
  auto P = parseOk("letrec fib = lambda n. if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 10");
  DiagnosticSink D;
  CompileOptions Raw;
  Raw.Fuse = false;
  auto Unfused = compileProgram(P->root(), D, Raw);
  auto CP = compileProgram(P->root(), D);
  ASSERT_NE(Unfused, nullptr);
  ASSERT_NE(CP, nullptr);
  EXPECT_LT(CP->numInstructions(), Unfused->numInstructions());
  EXPECT_EQ(Unfused->disassemble().find("varconstprim2"), std::string::npos);
  std::string Dis = CP->disassemble();
  // `n < 2` is Var;Const;Prim2;JumpIfFalse: two rounds of fusion collapse
  // it to a single compare-and-branch pair.
  EXPECT_NE(Dis.find("varconstprim2"), std::string::npos);
  // `fib (n - 1)` looks up the recursive binding right before the call.
  EXPECT_NE(Dis.find("varcall"), std::string::npos)
      << Dis;
}

TEST(VMFusionTest, StepCountsAreIdenticalFusedVsUnfused) {
  auto P = parseOk("letrec fib = lambda n. if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 12");
  Cascade Empty;
  RunOptions Opts;
  RunResult F = runVM(Empty, P->root(), Opts, /*Fuse=*/true);
  RunResult U = runVM(Empty, P->root(), Opts, /*Fuse=*/false);
  ASSERT_TRUE(F.Ok && U.Ok) << F.Error << U.Error;
  EXPECT_EQ(F.ValueText, U.ValueText);
  // Cost accounting: each fused instruction advances the counter by the
  // number of source instructions it replaces.
  EXPECT_EQ(F.Steps, U.Steps);
}

// A branch landing *between* a fusable pair must block fusion: the fused
// instruction would skip the landing pad's first half. Handcrafted
// register code (opcodes, operands and the operand-stack height before
// each instruction, the finish step's input), since the compiler never
// emits this shape with the second instruction of a pair as a jump target
// except via `if` joins.
namespace {

std::unique_ptr<CompiledProgram> mkJumpTargetProgram(bool Cond, bool Fuse) {
  auto P = std::make_unique<CompiledProgram>();
  P->Blocks.emplace_back();
  CodeBlock &B = P->Blocks[0];
  B.Name = "<main>";
  auto AddConst = [&](Value V) {
    P->ConstPool.push_back(V);
    return static_cast<uint32_t>(P->ConstPool.size() - 1);
  };
  auto Emit = [&](uint16_t Height, ROp Code, uint32_t A = 0) {
    RInstr I;
    I.Code = Code;
    I.A = A;
    B.Code.push_back(I);
    B.Height.push_back(Height);
  };
  uint32_t Zero = AddConst(Value::mkInt(0, P->ConstArena));
  uint32_t CondIdx = AddConst(Value::mkBool(Cond));
  uint32_t Ten = AddConst(Value::mkInt(10, P->ConstArena));
  uint32_t One = AddConst(Value::mkInt(1, P->ConstArena));
  uint32_t Twenty = AddConst(Value::mkInt(20, P->ConstArena));
  uint32_t Two = AddConst(Value::mkInt(2, P->ConstArena));
  uint32_t Add = static_cast<uint32_t>(Prim2Op::Add);
  // Well-formed: both paths reach the join with the same stack, and Halt
  // sees exactly the answer.
  Emit(0, ROp::Const, Zero);             // 0
  Emit(1, ROp::Const, Zero);             // 1: fuses with 2 -> constprim2
  Emit(2, ROp::Prim2, Add);              // 2
  Emit(1, ROp::Const, CondIdx);          // 3
  Emit(2, ROp::JumpIfFalse, 8);          // 4
  Emit(1, ROp::Const, Ten);              // 5
  Emit(2, ROp::Const, One);              // 6
  Emit(3, ROp::Jump, 10);                // 7
  Emit(1, ROp::Const, Twenty);           // 8
  Emit(2, ROp::Const, Two);              // 9: must NOT fuse with 10
  Emit(3, ROp::Prim2, Add);              // 10: Jump target
  Emit(2, ROp::Prim2, Add);              // 11: (0 + 0) + the branch's sum
  Emit(1, ROp::Halt);                    // 12
  finishBlock(B, /*IsEntry=*/true, Fuse);
  return P;
}

} // namespace

TEST(VMFusionTest, JumpTargetBlocksFusion) {
  for (bool Cond : {true, false}) {
    auto Raw = mkJumpTargetProgram(Cond, /*Fuse=*/false);
    auto Fused = mkJumpTargetProgram(Cond, /*Fuse=*/true);

    // Exactly the (1,2) pair fuses; the (9,10) pair is protected because
    // instruction 10 is the Jump's landing pad.
    EXPECT_EQ(Fused->Blocks[0].Code.size(), 12u);
    std::string Dis = Fused->disassemble();
    EXPECT_EQ(countSubstr(Dis, "constprim2"), 1u) << Dis;
    EXPECT_EQ(countSubstr(Dis, "prim2 +"), 2u) << Dis;
    // Every pc is reachable and keeps its height, so the run below is the
    // register tier's on exactly this code.
    for (const auto *P : {Raw.get(), Fused.get()}) {
      const CodeBlock &B = P->Blocks[0];
      ASSERT_EQ(B.Height.size(), B.Code.size());
      for (uint16_t H : B.Height)
        EXPECT_NE(H, kDeadHeight);
    }

    RunResult RRaw = runCompiled(*Raw);
    RunResult RFused = runCompiled(*Fused);
    ASSERT_TRUE(RRaw.Ok && RFused.Ok) << RRaw.Error << RFused.Error;
    EXPECT_EQ(RRaw.IntValue, Cond ? 11 : 22);
    EXPECT_EQ(RFused.IntValue, RRaw.IntValue);
    EXPECT_EQ(RFused.Steps, RRaw.Steps);
  }
}

TEST(VMFusionTest, ProbesBlockFusionWindows) {
  // The Prim2's left operand is on the stack before the probe window
  // opens; no fusion rule mentions MonPre/MonPost, so the pair
  // (MonPost, Prim2) stays unfused and the probe observes the
  // paper-exact instruction sequence.
  auto P = parseOk("(lambda x. x + ({A}: x)) 3");
  DiagnosticSink D;
  auto CP = compileProgram(P->root(), D);
  ASSERT_NE(CP, nullptr);
  std::string Dis = CP->disassemble();
  EXPECT_NE(Dis.find("monpre"), std::string::npos);
  EXPECT_NE(Dis.find("prim2 +"), std::string::npos);
  EXPECT_EQ(Dis.find("varprim2"), std::string::npos) << Dis;

  // Fusion on either side of a probe window is fine — states must come
  // out identical fused vs. unfused vs. the CEK machine.
  auto Q = parseOk("letrec f = lambda n. {A}: (n + 1) in f 1 + f 2");
  CountingProfiler Count;
  Cascade C;
  C.use(Count);
  RunOptions Opts;
  RunResult Interp = evaluate(EvalMode(C), Q->root());
  RunResult F = runVM(C, Q->root(), Opts, /*Fuse=*/true);
  RunResult U = runVM(C, Q->root(), Opts, /*Fuse=*/false);
  ASSERT_TRUE(Interp.Ok && F.Ok && U.Ok)
      << Interp.Error << F.Error << U.Error;
  EXPECT_EQ(F.ValueText, Interp.ValueText);
  EXPECT_EQ(statesOf(F), statesOf(Interp));
  EXPECT_EQ(statesOf(F), statesOf(U));
  EXPECT_EQ(F.Steps, U.Steps);
}

//===----------------------------------------------------------------------===//
// Differential corpus: fused and unfused bytecode on the register tier vs.
// the CEK machine over generated programs, unmonitored and monitored.
//===----------------------------------------------------------------------===//

class VMFusionDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(VMFusionDifferentialTest, FusedAgreesWithMachineAndUnfused) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunOptions Opts;
  Opts.MaxSteps = 1000000;
  RunResult Interp = evaluate(Prog, Opts);
  Cascade Empty;

  RunResult Base = runVM(Empty, Prog, Opts, /*Fuse=*/false);
  EXPECT_TRUE(Interp.sameOutcome(Base)) << printExpr(Prog);
  RunResult R = runVM(Empty, Prog, Opts, /*Fuse=*/true);
  EXPECT_TRUE(Base.sameOutcome(R))
      << printExpr(Prog)
      << "\nunfused: " << (Base.Ok ? Base.ValueText : Base.Error)
      << "\nfused:   " << (R.Ok ? R.ValueText : R.Error);
  if (Base.Ok && R.Ok) {
    EXPECT_EQ(Base.Steps, R.Steps) << printExpr(Prog);
  }
}

TEST_P(VMFusionDifferentialTest, MonitoredStatesAgreeFusedVsUnfused) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunOptions Opts;
  Opts.MaxSteps = 1000000;

  // Two disjoint monitors: the corpus annotates with bare labels A/B and
  // m0..m9; each profiler claims a distinct pair, the rest go unclaimed.
  CountingProfiler CountAB;
  CountingProfiler CountM("m0", "m1");
  Cascade Single;
  Single.use(CountAB);
  Cascade Pair;
  Pair.use(CountAB);
  Pair.use(CountM);

  for (const Cascade *C : {&Single, &Pair}) {
    RunResult Interp = evaluate(*C & maxSteps(Opts.MaxSteps), Prog);
    RunResult F = runVM(*C, Prog, Opts, /*Fuse=*/true);
    RunResult U = runVM(*C, Prog, Opts, /*Fuse=*/false);
    EXPECT_TRUE(U.sameOutcome(F)) << printExpr(Prog);
    EXPECT_TRUE(Interp.sameOutcome(F)) << printExpr(Prog);
    if (Interp.Ok && F.Ok && U.Ok) {
      EXPECT_EQ(statesOf(F), statesOf(U)) << printExpr(Prog);
      EXPECT_EQ(statesOf(F), statesOf(Interp)) << printExpr(Prog);
      EXPECT_EQ(F.Steps, U.Steps) << printExpr(Prog);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VMFusionDifferentialTest,
                         ::testing::Range(0u, 60u));

//===----------------------------------------------------------------------===//
// Self-tail-call frame reuse.
//===----------------------------------------------------------------------===//

namespace {

std::string downSrc(int N) {
  return "letrec loop = lambda n. if n = 0 then 7 else loop (n - 1) in "
         "loop " +
         std::to_string(N);
}

} // namespace

TEST(TailReuseTest, VMRunsSelfLoopsInConstantArena) {
  Cascade Empty;
  RunOptions Opts; // ReuseTailFrames defaults on.
  auto Short = parseOk(downSrc(1000));
  auto Long = parseOk(downSrc(100000));
  RunResult RS = runVM(Empty, Short->root(), Opts, /*Fuse=*/true);
  RunResult RL = runVM(Empty, Long->root(), Opts, /*Fuse=*/true);
  ASSERT_TRUE(RS.Ok && RL.Ok) << RS.Error << RL.Error;
  EXPECT_EQ(RL.IntValue, 7);
  // O(1): 100x more iterations, identical arena high-water mark.
  EXPECT_EQ(RS.ArenaBytes, RL.ArenaBytes);

  // That loop is a leaf block, whose frames allocate no environment node
  // at all. Frame reuse matters where a block keeps its environment
  // chain: here a letrec in the test does, and reuse saves the parameter
  // node of every iteration.
  auto Kept = parseOk("letrec loop = lambda n. if (letrec z = n in z) = 0 "
                      "then 7 else loop (n - 1) in loop 1000");
  RunOptions Off = Opts;
  Off.ReuseTailFrames = false;
  RunResult On = runVM(Empty, Kept->root(), Opts, /*Fuse=*/true);
  RunResult No = runVM(Empty, Kept->root(), Off, /*Fuse=*/true);
  ASSERT_TRUE(On.Ok && No.Ok) << On.Error << No.Error;
  EXPECT_GT(No.ArenaBytes, On.ArenaBytes);
  // Reuse is invisible to everything but the allocator.
  EXPECT_EQ(No.IntValue, 7);
  EXPECT_EQ(On.IntValue, 7);
  EXPECT_EQ(No.Steps, On.Steps);
}

TEST(TailReuseTest, CEKRunsSelfLoopsInConstantArena) {
  RunOptions Opts;
  auto Short = parseOk(downSrc(1000));
  auto Long = parseOk(downSrc(100000));
  RunResult RS = evaluate(Short->root(), Opts);
  RunResult RL = evaluate(Long->root(), Opts);
  ASSERT_TRUE(RS.Ok && RL.Ok) << RS.Error << RL.Error;
  EXPECT_EQ(RL.IntValue, 7);
  EXPECT_EQ(RS.ArenaBytes, RL.ArenaBytes);

  RunOptions Off = Opts;
  Off.ReuseTailFrames = false;
  RunResult NS = evaluate(Short->root(), Off);
  RunResult NL = evaluate(Long->root(), Off);
  ASSERT_TRUE(NS.Ok && NL.Ok);
  EXPECT_GT(NL.ArenaBytes, NS.ArenaBytes);
  EXPECT_EQ(NL.IntValue, RL.IntValue);
  EXPECT_EQ(NL.Steps, RL.Steps);
}

TEST(TailReuseTest, ClosureCaptureDisablesReuse) {
  // Each iteration allocates a closure capturing that iteration's frame;
  // reusing the frame would make every closure see the final n. The
  // resolver's FrameReusable analysis (and the VM's no-MkClosure block
  // check) must keep reuse off here.
  const char *Src =
      "letrec build = lambda n. lambda acc. if n = 0 then acc else "
      "build (n - 1) ((lambda y. n) : acc) in "
      "letrec sumap = lambda l. if null l then 0 else "
      "(hd l) 0 + sumap (tl l) in sumap (build 5 [])";
  auto P = parseOk(Src);
  Cascade Empty;
  RunOptions Opts;
  RunResult Interp = evaluate(P->root(), Opts);
  RunResult VM = runVM(Empty, P->root(), Opts, /*Fuse=*/true);
  ASSERT_TRUE(Interp.Ok && VM.Ok) << Interp.Error << VM.Error;
  EXPECT_EQ(Interp.IntValue, 15); // 1+2+3+4+5, not 5*n for a stale n.
  EXPECT_EQ(VM.IntValue, 15);
}

TEST(TailReuseTest, CoalescedLetrecSlotsResetOnReuse) {
  // The reused frame's extra letrec slot must come back uninitialized:
  // referencing it before rebinding is still the paper's knot error.
  const char *Src = "letrec f = lambda n. if n = 0 then 0 else "
                    "letrec v = n in f (v - 1) in f 10";
  auto P = parseOk(Src);
  Cascade Empty;
  RunOptions Opts;
  RunResult Interp = evaluate(P->root(), Opts);
  RunResult VM = runVM(Empty, P->root(), Opts, /*Fuse=*/true);
  ASSERT_TRUE(Interp.Ok && VM.Ok) << Interp.Error << VM.Error;
  EXPECT_EQ(Interp.IntValue, 0);
  EXPECT_EQ(VM.IntValue, 0);

  RunOptions Off = Opts;
  Off.ReuseTailFrames = false;
  EXPECT_EQ(evaluate(P->root(), Off).Steps, Interp.Steps);
}

TEST(TailReuseTest, MonitoredLoopKeepsExactStates) {
  // An annotated loop body disables reuse (probe-observed environments
  // stay paper-exact) and the states must match the CEK machine's.
  const char *Src = "letrec loop = lambda n. if n = 0 then 0 else "
                    "loop ({A}: (n - 1)) in loop 50";
  auto P = parseOk(Src);
  CountingProfiler Count;
  Cascade C;
  C.use(Count);
  RunOptions Opts;
  RunResult Interp = evaluate(EvalMode(C), P->root());
  RunResult F = runVM(C, P->root(), Opts, /*Fuse=*/true);
  RunResult U = runVM(C, P->root(), Opts, /*Fuse=*/false);
  ASSERT_TRUE(Interp.Ok && F.Ok && U.Ok)
      << Interp.Error << F.Error << U.Error;
  EXPECT_EQ(statesOf(F), statesOf(Interp));
  EXPECT_EQ(statesOf(F), statesOf(U));
  EXPECT_EQ(F.Steps, U.Steps);
}
