//===- tests/governor_test.cpp - Resource governor ------------------------===//
//
// The governor (support/Governor.h) generalizes the old fuel counter into
// wall-clock deadlines, arena byte caps, continuation-depth bounds, and
// cooperative cancellation, reported through the structured Outcome enum.
// These tests pin down three properties:
//
//  1. Each limit produces its own Outcome, on every evaluator.
//  2. The deterministic limits (fuel, depth, memory) stop at a reproducible
//     step count — running twice gives an identical (Outcome, Steps) pair.
//  3. Tightly-governed runs of randomly generated programs never crash;
//     they end in a recognized Outcome.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpParser.h"
#include "interp/Direct.h"
#include "interp/Eval.h"
#include "support/Arena.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// Diverges, allocating an environment frame per iteration.
const char *LoopSrc = "letrec loop = lambda x. loop (x + 1) in loop 0";

/// Non-tail recursion: continuation depth grows with n.
const char *DeepSrc =
    "letrec f = lambda x. if x = 0 then 0 else 1 + f (x - 1) in f 1000000";

} // namespace

//===----------------------------------------------------------------------===//
// Arena cap (direct)
//===----------------------------------------------------------------------===//

TEST(GovernorTest, ArenaByteCapFailsSoftWithoutAllocating) {
  // The cap is enforced at chunk granularity (first chunk is 16 KiB):
  // a request that would map past the cap throws before any memory is
  // committed, and the arena stays usable below the cap.
  Arena A;
  A.setByteLimit(40 * 1024);
  A.allocate(128, 8); // Maps the first 16 KiB chunk.
  size_t Before = A.bytesAllocated();
  EXPECT_THROW(A.allocate(64 * 1024, 8), ArenaLimitExceeded);
  EXPECT_EQ(A.bytesAllocated(), Before); // Cap check precedes the map.
  EXPECT_NE(A.allocate(64, 8), nullptr);
}

TEST(GovernorTest, ArenaUncappedByDefault) {
  Arena A;
  EXPECT_EQ(A.byteLimit(), 0u);
  EXPECT_NE(A.allocate(1 << 20, 8), nullptr);
}

//===----------------------------------------------------------------------===//
// CEK machine
//===----------------------------------------------------------------------===//

TEST(GovernorTest, FuelLimitMatchesLegacyMaxSteps) {
  auto P = parseOk(LoopSrc);
  RunOptions Legacy;
  Legacy.MaxSteps = 10000;
  RunResult RL = evaluate(P->root(), Legacy);
  EXPECT_EQ(RL.St, Outcome::FuelExhausted);
  EXPECT_TRUE(RL.FuelExhausted); // Legacy mirror field.

  RunOptions Gov;
  Gov.Limits.MaxSteps = 10000;
  RunResult RG = evaluate(P->root(), Gov);
  EXPECT_EQ(RG.St, Outcome::FuelExhausted);
  EXPECT_EQ(RG.Steps, RL.Steps); // Same stopping point either way.
}

TEST(GovernorTest, DeadlineStopsADivergentProgram) {
  auto P = parseOk(LoopSrc);
  RunOptions Opts;
  Opts.Limits.DeadlineMs = 30;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.St, Outcome::Deadline);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.stoppedByGovernor());
}

TEST(GovernorTest, PreCancelledFlagStopsAtFirstCheckpoint) {
  auto P = parseOk(LoopSrc);
  std::atomic<bool> Cancel{true};
  RunOptions Opts;
  Opts.Limits.CancelFlag = &Cancel;
  Opts.Limits.CheckInterval = 64;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.St, Outcome::Cancelled);
  EXPECT_LE(R.Steps, 64u);
}

TEST(GovernorTest, ArenaCapSurfacesAsMemoryExceeded) {
  auto P = parseOk(LoopSrc);
  RunOptions Opts;
  Opts.Limits.MaxArenaBytes = 1 << 15;
  // With tail-call frame reuse the loop runs in O(1) arena and would never
  // hit the cap; this test is about the cap, so allocate per iteration.
  Opts.ReuseTailFrames = false;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.St, Outcome::MemoryExceeded);
}

TEST(GovernorTest, TailFrameReuseKeepsSelfLoopsInConstantArena) {
  // The same divergent loop that exhausts a 32 KiB arena cap in a few
  // thousand iterations without reuse runs 200k steps inside it with
  // reuse: the self-tail-call overwrites the caller's frame in place.
  auto P = parseOk(LoopSrc);
  RunOptions Opts;
  Opts.Limits.MaxSteps = 200000;
  Opts.Limits.MaxArenaBytes = 1 << 15;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.St, Outcome::FuelExhausted) << outcomeName(R.St);
  EXPECT_LT(R.ArenaBytes, uint64_t(1) << 15);

  Cascade Empty;
  RunResult V = evaluateCompiled(Empty, P->root(), Opts);
  EXPECT_EQ(V.St, Outcome::FuelExhausted) << outcomeName(V.St);
  EXPECT_LT(V.ArenaBytes, uint64_t(1) << 15);
}

TEST(GovernorTest, DepthBoundSurfacesAsDepthExceeded) {
  auto P = parseOk(DeepSrc);
  RunOptions Opts;
  Opts.Limits.MaxDepth = 500;
  Opts.Limits.CheckInterval = 64;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.St, Outcome::DepthExceeded);
}

TEST(GovernorTest, DeterministicLimitsReproduceExactly) {
  for (const char *Src : {LoopSrc, DeepSrc}) {
    auto P = parseOk(Src);
    RunOptions Opts;
    Opts.Limits.MaxSteps = 5000;
    Opts.Limits.MaxArenaBytes = 1 << 14;
    Opts.Limits.MaxDepth = 400;
    Opts.Limits.CheckInterval = 32;
    RunResult A = evaluate(P->root(), Opts);
    RunResult B = evaluate(P->root(), Opts);
    EXPECT_EQ(A.St, B.St);
    EXPECT_EQ(A.Steps, B.Steps);
    EXPECT_TRUE(A.sameOutcome(B));
    EXPECT_TRUE(A.stoppedByGovernor());
  }
}

TEST(GovernorTest, GovernanceStopsCompareEqualOnlyByKind) {
  auto P = parseOk(LoopSrc);
  RunOptions Fuel;
  Fuel.Limits.MaxSteps = 1000;
  RunOptions Mem;
  Mem.Limits.MaxArenaBytes = 1 << 14;
  Mem.ReuseTailFrames = false; // The loop must actually reach the cap.
  RunResult A = evaluate(P->root(), Fuel);
  RunResult B = evaluate(P->root(), Mem);
  ASSERT_EQ(A.St, Outcome::FuelExhausted);
  ASSERT_EQ(B.St, Outcome::MemoryExceeded);
  EXPECT_FALSE(A.sameOutcome(B)); // Different stop kinds differ.
  RunResult A2 = evaluate(P->root(), Fuel);
  EXPECT_TRUE(A.sameOutcome(A2)); // Same kind matches.
}

//===----------------------------------------------------------------------===//
// Bytecode VM
//===----------------------------------------------------------------------===//

TEST(GovernorTest, VMHonorsFuelMemoryAndDepth) {
  Cascade Empty;

  auto Loop = parseOk(LoopSrc);
  RunOptions Fuel;
  Fuel.Limits.MaxSteps = 5000;
  RunResult RF = evaluateCompiled(Empty, Loop->root(), Fuel);
  EXPECT_EQ(RF.St, Outcome::FuelExhausted);
  RunResult RF2 = evaluateCompiled(Empty, Loop->root(), Fuel);
  EXPECT_EQ(RF.Steps, RF2.Steps);

  // The register tier keeps a leaf loop's argument in a register, so
  // LoopSrc allocates nothing there; this loop conses a cell per call.
  auto Alloc = parseOk("letrec loop = lambda x. loop [x] in loop 0");
  RunOptions Mem;
  Mem.Limits.MaxArenaBytes = 1 << 15;
  Mem.ReuseTailFrames = false; // The loop must actually reach the cap.
  RunResult RM = evaluateCompiled(Empty, Alloc->root(), Mem);
  EXPECT_EQ(RM.St, Outcome::MemoryExceeded);

  auto Deep = parseOk(DeepSrc);
  RunOptions Depth;
  Depth.Limits.MaxDepth = 300;
  Depth.Limits.CheckInterval = 32;
  RunResult RD = evaluateCompiled(Empty, Deep->root(), Depth);
  EXPECT_EQ(RD.St, Outcome::DepthExceeded);

  RunOptions Deadline;
  Deadline.Limits.DeadlineMs = 30;
  RunResult RT = evaluateCompiled(Empty, Loop->root(), Deadline);
  EXPECT_EQ(RT.St, Outcome::Deadline);
}

//===----------------------------------------------------------------------===//
// Direct interpreter
//===----------------------------------------------------------------------===//

TEST(GovernorTest, DirectInterpreterHonorsCancelAndMemory) {
  auto P = parseOk(LoopSrc);

  DirectOptions Cancelled;
  Cancelled.CallBudget = 50000;
  std::atomic<bool> Flag{true};
  Cancelled.Limits.CancelFlag = &Flag;
  Cancelled.Limits.CheckInterval = 16;
  RunResult RC = runDirect(P->root(), nullptr, Cancelled);
  EXPECT_EQ(RC.St, Outcome::Cancelled);

  DirectOptions Mem;
  Mem.CallBudget = 200000;
  Mem.Limits.MaxArenaBytes = 1 << 14;
  Mem.Limits.CheckInterval = 16;
  RunResult RM = runDirect(P->root(), nullptr, Mem);
  EXPECT_EQ(RM.St, Outcome::MemoryExceeded);
  RunResult RM2 = runDirect(P->root(), nullptr, Mem);
  EXPECT_EQ(RM.Steps, RM2.Steps);

  // The call budget is the direct interpreter's native depth bound and
  // still reports as fuel exhaustion.
  DirectOptions Budget;
  Budget.CallBudget = 500;
  RunResult RB = runDirect(P->root(), nullptr, Budget);
  EXPECT_EQ(RB.St, Outcome::FuelExhausted);
}

//===----------------------------------------------------------------------===//
// Imperative machine
//===----------------------------------------------------------------------===//

TEST(GovernorTest, ImpHonorsDeadlineFuelAndDepth) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Loop =
      parseImpProgram(Ctx, "x := 0; while 0 < 1 do x := x + 1 end", Diags);
  ASSERT_NE(Loop, nullptr) << Diags.str();

  ImpRunOptions Fuel;
  Fuel.Limits.MaxSteps = 20000;
  ImpRunResult RF = runImp(Loop, Fuel);
  EXPECT_EQ(RF.St, Outcome::FuelExhausted);
  EXPECT_TRUE(RF.FuelExhausted);
  ImpRunResult RF2 = runImp(Loop, Fuel);
  EXPECT_EQ(RF.Steps, RF2.Steps);

  ImpRunOptions Deadline;
  Deadline.Limits.DeadlineMs = 30;
  ImpRunResult RT = runImp(Loop, Deadline);
  EXPECT_EQ(RT.St, Outcome::Deadline);

  // Expression recursion deep enough to cross MaxDepth but not the
  // machine's own C-stack guard.
  const Cmd *Deep = parseImpProgram(
      Ctx,
      "y := (letrec f = lambda v. if v = 0 then 0 else 1 + f (v - 1) "
      "in f 5000)",
      Diags);
  ASSERT_NE(Deep, nullptr) << Diags.str();
  ImpRunOptions Depth;
  Depth.Limits.MaxDepth = 100;
  Depth.Limits.CheckInterval = 16;
  ImpRunResult RD = runImp(Deep, Depth);
  EXPECT_EQ(RD.St, Outcome::DepthExceeded);
}

//===----------------------------------------------------------------------===//
// Stress: random programs under tight limits never crash
//===----------------------------------------------------------------------===//

TEST(GovernorTest, RandomProgramsUnderTightLimitsNeverCrash) {
  for (unsigned Seed = 0; Seed < 40; ++Seed) {
    AstContext Ctx;
    const Expr *Prog = monsem::testing::genProgram(Ctx, Seed);
    ASSERT_NE(Prog, nullptr);
    for (Strategy S :
         {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
      RunOptions Opts;
      Opts.Strat = S;
      Opts.Limits.MaxSteps = 2000;
      Opts.Limits.MaxArenaBytes = 1 << 15;
      Opts.Limits.MaxDepth = 256;
      Opts.Limits.CheckInterval = 64;
      RunResult A = evaluate(Prog, Opts);
      EXPECT_TRUE(A.St == Outcome::Ok || A.St == Outcome::Error ||
                  A.stoppedByGovernor())
          << "seed " << Seed << ": " << outcomeName(A.St);
      // Deterministic: the governed run reproduces exactly.
      RunResult B = evaluate(Prog, Opts);
      EXPECT_EQ(A.St, B.St) << "seed " << Seed;
      EXPECT_EQ(A.Steps, B.Steps) << "seed " << Seed;
    }
    // VM under the same limits.
    Cascade Empty;
    RunOptions VOpts;
    VOpts.Limits.MaxSteps = 2000;
    VOpts.Limits.MaxArenaBytes = 1 << 15;
    VOpts.Limits.MaxDepth = 256;
    VOpts.Limits.CheckInterval = 64;
    RunResult V = evaluateCompiled(Empty, Prog, VOpts);
    EXPECT_TRUE(V.St == Outcome::Ok || V.St == Outcome::Error ||
                V.stoppedByGovernor())
        << "seed " << Seed << ": " << outcomeName(V.St);
  }
}
