//===- tests/checkpoint_test.cpp - Checkpoint/resume soundness -------------===//
//
// Differential resumption soundness: interrupting a run at an arbitrary
// step, checkpointing, and resuming in a "fresh process" (new AstContext,
// regenerated program, fresh monitor states) must produce the same final
// answer, the same cumulative step count, and byte-identical monitor
// state renderings as the uninterrupted run — on the CEK machine and the
// bytecode VM, monitored and unmonitored, strict and lazy.
//
// Plus: save/load round-trips for every toolbox monitor state and a
// 3-deep cascade, and rejection tests for mismatched resumes.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "compile/VM.h"
#include "interp/Eval.h"
#include "monitors/AllocProfiler.h"
#include "monitors/CallGraph.h"
#include "monitors/Collecting.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Debugger.h"
#include "monitors/Demon.h"
#include "monitors/FaultInjector.h"
#include "monitors/FlightRecorder.h"
#include "monitors/Profiler.h"
#include "monitors/Stepper.h"
#include "monitors/Tracer.h"
#include "support/Checkpoint.h"
#include "syntax/Annotator.h"

#include <gtest/gtest.h>

using namespace monsem;
using monsem::testing::genProgram;

namespace {

constexpr uint64_t kBigBudget = 4'000'000;

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// Everything the differential comparison looks at.
struct Final {
  Outcome St = Outcome::Error;
  std::string ValueText;
  std::string Error;
  uint64_t Steps = 0;
  std::vector<std::string> States;

  bool operator==(const Final &O) const {
    return St == O.St && ValueText == O.ValueText && Error == O.Error &&
           Steps == O.Steps && States == O.States;
  }
};

Final finalOf(const RunResult &R) {
  Final F;
  F.St = R.St;
  F.ValueText = R.ValueText;
  F.Error = R.Error;
  F.Steps = R.Steps;
  for (const auto &S : R.FinalStates)
    F.States.push_back(S->str());
  return F;
}

std::string describe(const Final &F) {
  std::string Out = std::string(outcomeName(F.St)) + " value='" +
                    F.ValueText + "' error='" + F.Error +
                    "' steps=" + std::to_string(F.Steps);
  for (const std::string &S : F.States)
    Out += " state=" + S;
  return Out;
}

/// The differential core: program #Seed under the given configuration,
/// run uninterrupted vs. interrupted-then-resumed across simulated
/// process boundaries. Returns without checking when the seed does not
/// terminate inside the budget (rare) or finishes too fast to interrupt.
void checkDifferential(unsigned Seed, Backend B, bool Monitored,
                       StrategyTag Strat = kStrict) {
  CallProfiler Prof;
  auto modeFor = [&]() {
    EvalMode M = Strat & BackendTag{B};
    if (Monitored)
      M = M & Prof;
    return M;
  };

  // Reference: uninterrupted.
  AstContext C1;
  const Expr *P1 = genProgram(C1, Seed);
  RunResult Ref = evaluate(modeFor() & maxSteps(kBigBudget), P1);
  if (Ref.stoppedByGovernor())
    return; // Non-terminating seed; nothing to compare against.
  Final FRef = finalOf(Ref);
  if (FRef.Steps < 2)
    return; // Too short to interrupt mid-run.

  // Interrupt at a pseudo-random (but seed-deterministic) step.
  uint64_t K = 1 + (Seed * 7919u) % (FRef.Steps - 1);

  // Interrupted run in its own "process": fresh context, fresh states.
  Checkpoint CK;
  {
    AstContext C2;
    const Expr *P2 = genProgram(C2, Seed);
    RunResult R =
        evaluate(modeFor() & maxSteps(K) &
                     checkpointInto([&](const Checkpoint &C) { CK = C; }),
                 P2);
    ASSERT_EQ(R.St, Outcome::FuelExhausted)
        << "seed " << Seed << " K=" << K << ": " << R.Error;
    ASSERT_TRUE(CK.valid()) << "seed " << Seed;
    if (B == Backend::CEK) { // VM instructions may cost several steps.
      EXPECT_EQ(CK.header().SavedSteps, K) << "seed " << Seed;
    }
    EXPECT_EQ(CK.header().Monitored, Monitored);
  }

  // Resume in a third "process" and compare everything.
  {
    AstContext C3;
    const Expr *P3 = genProgram(C3, Seed);
    RunResult R =
        evaluate(modeFor() & maxSteps(kBigBudget) & resumeFrom(CK), P3);
    Final FRes = finalOf(R);
    EXPECT_TRUE(FRes == FRef)
        << "seed " << Seed << " K=" << K << "\n  reference: "
        << describe(FRef) << "\n  resumed:   " << describe(FRes);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential resumption corpus
//===----------------------------------------------------------------------===//

TEST(CheckpointDifferential, CEKStrictUnmonitored) {
  for (unsigned Seed = 0; Seed < 30; ++Seed)
    checkDifferential(Seed, Backend::CEK, /*Monitored=*/false);
}

TEST(CheckpointDifferential, CEKStrictMonitored) {
  for (unsigned Seed = 0; Seed < 30; ++Seed)
    checkDifferential(Seed, Backend::CEK, /*Monitored=*/true);
}

TEST(CheckpointDifferential, CEKByNeedMonitored) {
  // Lazy resume exercises Thunk serialization (pending and forced) and
  // UpdateThunk continuation frames.
  for (unsigned Seed = 0; Seed < 20; ++Seed)
    checkDifferential(Seed, Backend::CEK, /*Monitored=*/true, kByNeed);
}

TEST(CheckpointDifferential, CEKByNameUnmonitored) {
  for (unsigned Seed = 0; Seed < 15; ++Seed)
    checkDifferential(Seed, Backend::CEK, /*Monitored=*/false, kByName);
}

TEST(CheckpointDifferential, VMUnmonitored) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkDifferential(Seed, Backend::VM, /*Monitored=*/false);
}

TEST(CheckpointDifferential, VMMonitored) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkDifferential(Seed, Backend::VM, /*Monitored=*/true);
}

TEST(CheckpointDifferential, ChainedInterrupts) {
  // Interrupt, resume, interrupt again, resume again — the cumulative
  // step counter and the governor's fresh-budget base must compose.
  for (unsigned Seed : {2u, 5u, 9u, 13u, 21u}) {
    CallProfiler Prof;
    AstContext C1;
    RunResult Ref = evaluate(EvalMode(Prof) & maxSteps(kBigBudget),
                             genProgram(C1, Seed));
    if (Ref.stoppedByGovernor())
      continue;
    Final FRef = finalOf(Ref);
    if (FRef.Steps < 4)
      continue;
    uint64_t K1 = (FRef.Steps - 1) / 3, K2 = (FRef.Steps - 1) / 3;
    if (!K1 || !K2)
      continue;

    Checkpoint CK1, CK2;
    {
      AstContext C2;
      RunResult R = evaluate(
          EvalMode(Prof) & maxSteps(K1) &
              checkpointInto([&](const Checkpoint &C) { CK1 = C; }),
          genProgram(C2, Seed));
      ASSERT_EQ(R.St, Outcome::FuelExhausted);
      ASSERT_TRUE(CK1.valid());
      EXPECT_EQ(CK1.header().SavedSteps, K1);
    }
    {
      AstContext C3;
      RunResult R = evaluate(
          EvalMode(Prof) & maxSteps(K2) & resumeFrom(CK1) &
              checkpointInto([&](const Checkpoint &C) { CK2 = C; }),
          genProgram(C3, Seed));
      ASSERT_EQ(R.St, Outcome::FuelExhausted);
      ASSERT_TRUE(CK2.valid());
      // The second leg's fuel is fresh: it ran K2 more steps.
      EXPECT_EQ(CK2.header().SavedSteps, K1 + K2);
    }
    {
      AstContext C4;
      RunResult R = evaluate(EvalMode(Prof) & maxSteps(kBigBudget) &
                                 resumeFrom(CK2),
                             genProgram(C4, Seed));
      Final FRes = finalOf(R);
      EXPECT_TRUE(FRes == FRef)
          << "seed " << Seed << "\n  reference: " << describe(FRef)
          << "\n  resumed:   " << describe(FRes);
    }
  }
}

TEST(CheckpointDifferential, PeriodicCheckpointsAllResumable) {
  CallProfiler Prof;
  auto Src = "letrec loop = lambda k. if k < 1 then ({done}: 42) else "
             "loop (k - 1) in loop 300";
  auto P1 = parseOk(Src);
  std::vector<Checkpoint> CKs;
  RunResult Ref = evaluate(
      EvalMode(Prof) & checkpointEveryNSteps(100) &
          checkpointInto([&](const Checkpoint &C) { CKs.push_back(C); }),
      P1->root());
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  Final FRef = finalOf(Ref);
  ASSERT_GE(CKs.size(), 2u) << "periodic checkpoints did not fire";
  for (size_t I = 1; I < CKs.size(); ++I)
    EXPECT_GT(CKs[I].header().SavedSteps, CKs[I - 1].header().SavedSteps);

  for (const Checkpoint &CK : CKs) {
    auto P2 = parseOk(Src);
    RunResult R = evaluate(EvalMode(Prof) & resumeFrom(CK), P2->root());
    Final FRes = finalOf(R);
    EXPECT_TRUE(FRes == FRef)
        << "from step " << CK.header().SavedSteps << "\n  reference: "
        << describe(FRef) << "\n  resumed:   " << describe(FRes);
  }
}

//===----------------------------------------------------------------------===//
// Resume rejection: mismatched configurations fail loudly, not subtly
//===----------------------------------------------------------------------===//

namespace {

/// A fuel-interrupted checkpoint of the given mode over \p Src.
Checkpoint interruptedCheckpoint(const EvalMode &Mode, std::string_view Src,
                                 uint64_t K = 50) {
  auto P = parseOk(Src);
  Checkpoint CK;
  EvalMode M = Mode;
  RunResult R = evaluate(
      M & maxSteps(K) & checkpointInto([&](const Checkpoint &C) { CK = C; }),
      P->root());
  EXPECT_EQ(R.St, Outcome::FuelExhausted) << R.Error;
  EXPECT_TRUE(CK.valid());
  return CK;
}

constexpr std::string_view kLoopSrc =
    "letrec loop = lambda k. if k < 1 then 7 else loop (k - 1) in loop 1000";

/// \p CK with header byte \p At set to \p Val and the FNV-1a trailer (the
/// hash of every preceding byte) recomputed, so it passes the integrity
/// check the way a file written that way would.
Checkpoint withHeaderByte(const Checkpoint &CK, size_t At, uint8_t Val) {
  std::vector<uint8_t> Bytes = CK.bytes();
  EXPECT_GT(Bytes.size(), At + 8);
  Bytes[At] = Val;
  size_t Body = Bytes.size() - 8;
  uint64_t Hash = fnv1aHash(Bytes.data(), Body);
  for (int I = 0; I < 8; ++I)
    Bytes[Body + I] = static_cast<uint8_t>(Hash >> (8 * I));
  std::string Err;
  Checkpoint Patched = Checkpoint::fromBytes(std::move(Bytes), Err);
  EXPECT_TRUE(Patched.valid()) << Err;
  return Patched;
}

} // namespace

TEST(CheckpointReject, DifferentProgram) {
  Checkpoint CK = interruptedCheckpoint(EvalMode(), kLoopSrc);
  auto Other = parseOk("letrec loop = lambda k. if k < 1 then 8 else "
                       "loop (k - 1) in loop 1000");
  RunResult R = evaluate(EvalMode() & resumeFrom(CK), Other->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("cannot resume"), std::string::npos) << R.Error;
}

TEST(CheckpointReject, WrongBackend) {
  Checkpoint CK = interruptedCheckpoint(EvalMode(), kLoopSrc);
  auto P = parseOk(kLoopSrc);
  RunResult R = evaluate(EvalMode(kVM) & resumeFrom(CK), P->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("cannot resume"), std::string::npos) << R.Error;
}

TEST(CheckpointReject, MonitoredCheckpointNeedsTheCascade) {
  CallProfiler Prof;
  Checkpoint CK = interruptedCheckpoint(EvalMode(Prof), kLoopSrc);
  auto P = parseOk(kLoopSrc);
  RunResult R = evaluate(EvalMode() & resumeFrom(CK), P->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("cannot resume"), std::string::npos) << R.Error;
}

TEST(CheckpointReject, DifferentMonitorRejected) {
  CallProfiler Prof;
  Checkpoint CK = interruptedCheckpoint(EvalMode(Prof), kLoopSrc);
  auto P = parseOk(kLoopSrc);
  CostProfiler Cost;
  RunResult R = evaluate(EvalMode(Cost) & resumeFrom(CK), P->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("cannot resume"), std::string::npos) << R.Error;
}

TEST(CheckpointReject, DirectBackendRefusesResume) {
  Checkpoint CK = interruptedCheckpoint(EvalMode(), kLoopSrc);
  auto P = parseOk(kLoopSrc);
  RunResult R = evaluate(EvalMode(kDirect) & resumeFrom(CK), P->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("CEK or VM"), std::string::npos) << R.Error;
}

TEST(CheckpointReject, CorruptedBytesRejected) {
  Checkpoint CK = interruptedCheckpoint(EvalMode(), kLoopSrc);
  std::vector<uint8_t> Bytes = CK.bytes();
  Bytes[Bytes.size() / 2] ^= 0xff; // Flip a payload byte.
  std::string Err;
  Checkpoint Bad = Checkpoint::fromBytes(std::move(Bytes), Err);
  EXPECT_FALSE(Bad.valid());
  EXPECT_FALSE(Err.empty());
}

TEST(CheckpointReject, TruncatedBytesRejected) {
  Checkpoint CK = interruptedCheckpoint(EvalMode(), kLoopSrc);
  std::vector<uint8_t> Bytes = CK.bytes();
  Bytes.resize(Bytes.size() / 2);
  std::string Err;
  Checkpoint Bad = Checkpoint::fromBytes(std::move(Bytes), Err);
  EXPECT_FALSE(Bad.valid());
}

TEST(CheckpointCompat, ReservedHeaderByteIsIgnored) {
  // Header byte 12 once recorded whether the writer used the boxed Value
  // representation. It is reserved now: written as 0, ignored on read, so
  // a checkpoint with it set (as older boxed builds wrote them) resumes to
  // the same answer and step count as one without.
  constexpr size_t kReservedByte = 12;
  for (BackendTag B : {kCEK, kVM, kVMReg}) {
    Checkpoint CK = interruptedCheckpoint(EvalMode(B), kLoopSrc);
    EXPECT_EQ(CK.bytes()[kReservedByte], 0);
    Checkpoint Patched = withHeaderByte(CK, kReservedByte, 1);
    ASSERT_TRUE(Patched.valid());

    auto P = parseOk(kLoopSrc);
    RunResult Plain = evaluate(EvalMode(B) & resumeFrom(CK), P->root());
    RunResult Old = evaluate(EvalMode(B) & resumeFrom(Patched), P->root());
    ASSERT_EQ(Plain.St, Outcome::Ok) << Plain.Error;
    EXPECT_EQ(Old.St, Outcome::Ok) << Old.Error;
    EXPECT_EQ(Old.ValueText, Plain.ValueText);
    EXPECT_EQ(Old.Steps, Plain.Steps);
  }
}

TEST(CheckpointCompat, NamedMachineCheckpointIsRefused) {
  // Header byte 10 told the flat-frame CEK machine (1) from the
  // named-environment one (0). Only the flat-frame machine is left: it
  // still writes 1 and the VM still writes 0, so checkpoint bytes do not
  // change, and a CEK checkpoint carrying 0 — one the named machine wrote
  // — is refused with a clear error instead of being misread.
  constexpr size_t kEnvByte = 10;
  EXPECT_EQ(interruptedCheckpoint(EvalMode(kVM), kLoopSrc).bytes()[kEnvByte],
            0);
  auto P = parseOk(kLoopSrc);
  CountingProfiler Count;
  for (const EvalMode &Mode : {EvalMode(), EvalMode(Count)}) {
    Checkpoint CK = interruptedCheckpoint(Mode, kLoopSrc);
    EXPECT_EQ(CK.bytes()[kEnvByte], 1);
    Checkpoint Old = withHeaderByte(CK, kEnvByte, 0);
    ASSERT_TRUE(Old.valid());
    RunResult R = evaluate(Mode & resumeFrom(Old), P->root());
    EXPECT_EQ(R.St, Outcome::Error);
    EXPECT_NE(R.Error.find("named-environment CEK machine"),
              std::string::npos)
        << R.Error;
    // The unpatched checkpoint still resumes.
    RunResult Good = evaluate(Mode & resumeFrom(CK), P->root());
    EXPECT_EQ(Good.St, Outcome::Ok) << Good.Error;
    EXPECT_EQ(Good.IntValue, 7);
  }
}

namespace {

/// `monsem fac.lam --profile --checkpoint-every-n-steps=50 --max-steps=120
/// --backend=vm`'s checkpoint file, 561 bytes, as the stack-bytecode
/// interpreter wrote it before the register tier became the only executor
/// of compiled programs. Every VM checkpoint is in this canonical stack
/// form, so the register tier must still read it, and write it.
constexpr const char *kFacStackCheckpointHex =
    "4d53434b010000000100000100000000321acdca8c751fe57800000000000000"
    "010000000700000070726f66696c651300000001000000030000006661630b00"
    "0000000000000d0000000601000000780100000000000000000c000000060100"
    "000078010a000000000000000c0000000601000000780109000000000000000c"
    "0000000601000000780108000000000000000c00000006010000007801070000"
    "00000000000c0000000601000000780106000000000000000c00000006010000"
    "00780105000000000000000c0000000601000000780104000000000000000c00"
    "00000601000000780103000000000000000c0000000601000000780102000000"
    "000000000c0000000601000000780101000000000000000c0000000603000000"
    "6661630b0d0000000000000008010000000c0000000100000002000000010000"
    "000b000000010a00000000000000010900000000000000010800000000000000"
    "0107000000000000000106000000000000000105000000000000000104000000"
    "0000000001030000000000000001020000000000000001010000000000000002"
    "010b000000000000000500000000000000010000000800000002000000010000"
    "0008000000030000000100000008000000040000000100000008000000050000"
    "0001000000080000000600000001000000080000000700000001000000080000"
    "000800000001000000080000000900000001000000080000000a000000010000"
    "00080000000b0000000f46efe1f8778073";

constexpr const char *kFacSrc =
    "letrec fac = lambda x. if x = 0 then 1 else x * fac (x - 1)\n"
    "in fac 10";

std::vector<uint8_t> fromHex(std::string_view Hex) {
  std::vector<uint8_t> Out;
  for (size_t I = 0; I + 1 < Hex.size(); I += 2)
    Out.push_back(
        static_cast<uint8_t>(std::stoi(std::string(Hex.substr(I, 2)), nullptr,
                                       16)));
  return Out;
}

/// fac.lam annotated the way `monsem --profile` annotates it.
const Expr *profiledFac(ParsedProgram &P) {
  AnnotateOptions AO;
  AO.Qualifier = Symbol::intern("profile");
  return annotateFunctionBodies(P.context(), P.root(), {}, AO);
}

} // namespace

TEST(CheckpointCompat, StackInterpreterCheckpointResumesOnEveryTier) {
  std::string Err;
  Checkpoint Old = Checkpoint::fromBytes(fromHex(kFacStackCheckpointHex), Err);
  ASSERT_TRUE(Old.valid()) << Err;
  ASSERT_EQ(Old.bytes().size(), 561u);
  EXPECT_EQ(Old.header().SavedSteps, 120u);
  for (BackendTag B : {kVM, kVMReg, kVMAot}) {
    auto P = parseOk(kFacSrc);
    const Expr *Prog = profiledFac(*P);
    CallProfiler Straight, Resumed;
    RunResult Ref = evaluate(EvalMode(Straight) & B, Prog);
    RunResult R = evaluate(EvalMode(Resumed) & B & resumeFrom(Old), Prog);
    ASSERT_EQ(R.St, Outcome::Ok) << R.Error;
    // What the writer's own resume printed: the answer and the profile.
    EXPECT_EQ(R.ValueText, "3628800");
    ASSERT_EQ(R.FinalStates.size(), 1u);
    EXPECT_EQ(R.FinalStates[0]->str(), "[fac -> 11]");
    EXPECT_TRUE(finalOf(R) == finalOf(Ref))
        << "resumed: " << describe(finalOf(R))
        << "\nstraight: " << describe(finalOf(Ref));
  }
}

TEST(CheckpointCompat, RegisterTierWritesTheStackInterpreterBytes) {
  std::vector<uint8_t> Want = fromHex(kFacStackCheckpointHex);
  for (BackendTag B : {kVM, kVMReg, kVMAot}) {
    auto P = parseOk(kFacSrc);
    CallProfiler Prof;
    Checkpoint Last;
    RunResult R = evaluate(
        EvalMode(Prof) & B & maxSteps(120) & checkpointEveryNSteps(50) &
            checkpointInto([&](const Checkpoint &C) { Last = C; }),
        profiledFac(*P));
    EXPECT_EQ(R.St, Outcome::FuelExhausted) << R.Error;
    ASSERT_TRUE(Last.valid());
    EXPECT_TRUE(Last.bytes() == Want)
        << "backend " << static_cast<int>(B.B) << ": " << Last.bytes().size()
        << " bytes";
  }
}

TEST(CheckpointFile, SaveLoadRoundTrip) {
  Checkpoint CK = interruptedCheckpoint(EvalMode(), kLoopSrc);
  std::string Path = ::testing::TempDir() + "monsem_ck_roundtrip.bin";
  std::string Err;
  ASSERT_TRUE(CK.saveFile(Path, Err)) << Err;
  Checkpoint Loaded = Checkpoint::loadFile(Path, Err);
  ASSERT_TRUE(Loaded.valid()) << Err;
  EXPECT_EQ(Loaded.bytes(), CK.bytes());
  EXPECT_EQ(Loaded.header().SavedSteps, CK.header().SavedSteps);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Toolbox monitor save/load round-trips
//===----------------------------------------------------------------------===//

namespace {

/// Serializes \p S, loads the bytes into a fresh state from \p M, and
/// expects the rendering to survive unchanged. Also checks that load
/// consumed exactly the bytes save produced (framing agreement).
void expectStateRoundTrip(const Monitor &M, const MonitorState &S) {
  Serializer Ser;
  S.save(Ser);
  auto Fresh = M.initialState();
  Deserializer D(Ser.bytes());
  Fresh->load(D);
  EXPECT_TRUE(D.ok()) << M.name() << ": " << D.error();
  EXPECT_EQ(D.remaining(), 0u) << M.name() << " left bytes behind";
  EXPECT_EQ(Fresh->str(), S.str()) << M.name();
}

/// Runs \p M over \p Program and round-trips the final state.
void expectRunRoundTrip(const Monitor &M, const Expr *Program) {
  RunResult R = evaluate(EvalMode(M), Program);
  ASSERT_FALSE(R.FinalStates.empty()) << M.name() << ": " << R.Error;
  expectStateRoundTrip(M, *R.FinalStates[0]);
}

} // namespace

TEST(MonitorStateRoundTrip, CountingProfiler) {
  CountingProfiler M;
  auto P = parseOk("({A}: 1) + ({B}: 2) + ({A}: 3)");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, CallProfiler) {
  CallProfiler M;
  auto P = parseOk("letrec fib = lambda n. {fib}: if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 8");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, Tracer) {
  Tracer M; // No echo stream: lines buffer in the state's channel.
  auto P = parseOk("letrec f = lambda l. {f(l)}: null l in f [1, 2]");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, TracerMidRunNestingLevel) {
  // Interrupt inside nested traced calls so Level != 0 round-trips too.
  Tracer M;
  auto P = parseOk("letrec f = lambda n. {f(n)}: if n = 0 then 0 else "
                   "f (n - 1) in f 20");
  Checkpoint CK;
  RunResult R = evaluate(
      EvalMode(M) & maxSteps(60) &
          checkpointInto([&](const Checkpoint &C) { CK = C; }),
      P->root());
  ASSERT_EQ(R.St, Outcome::FuelExhausted);
  ASSERT_FALSE(R.FinalStates.empty());
  EXPECT_NE(Tracer::state(*R.FinalStates[0]).Level, 0);
  expectStateRoundTrip(M, *R.FinalStates[0]);
}

TEST(MonitorStateRoundTrip, CostProfiler) {
  CostProfiler M;
  auto P = parseOk("letrec fac = lambda x. {fac}: if x = 0 then 1 else "
                   "x * fac (x - 1) in fac 5");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, AllocProfiler) {
  AllocProfiler M;
  auto P = parseOk(
      "letrec build = lambda n. if n = 0 then [] else n : build (n - 1) in "
      "letrec big = lambda u. {big}: build 100 in "
      "if null (big 0) then 0 else 1");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, CallGraph) {
  CallGraphMonitor M;
  auto P = parseOk("letrec mul = lambda x. lambda y. {mul}:(x*y) in "
                   "letrec fac = lambda x. {fac}: if (x=0) then 1 else "
                   "mul x (fac (x-1)) in fac 3");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, Collecting) {
  CollectingMonitor M;
  auto P = parseOk("letrec f = lambda n. if n = 0 then 0 else "
                   "({v}: n) + f (n - 1) in f 4");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, Demon) {
  Demon M = Demon::unsortedLists();
  auto P = parseOk("({l}: [1, 2]) = ({l}: [])");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, Stepper) {
  Stepper M;
  auto P = parseOk("{a}: ({b}: 1) + 2");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, Coverage) {
  auto P = parseOk("letrec f = lambda n. if n < 0 then f 1 else n in f 5");
  unsigned NumPoints = 0;
  const Expr *Labeled = labelProgramPoints(
      P->context(), P->root(), "p", Symbol::intern("cover"), &NumPoints);
  CoverageMonitor M(NumPoints);
  expectRunRoundTrip(M, Labeled);
}

TEST(MonitorStateRoundTrip, FlightRecorder) {
  FlightRecorder M(4);
  auto P = parseOk("letrec f = lambda n. {f(n)}: if n = 0 then 0 else "
                   "f (n - 1) in f 10");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, FlightRecorderCapacityTravelsWithTheState) {
  // Capacity is part of the serialized state: restoring into a recorder
  // configured with a different --record-capacity adopts the saved ring
  // unchanged rather than silently truncating history.
  FlightRecorder Big(8), Small(2);
  auto P = parseOk("letrec f = lambda n. {f(n)}: if n = 0 then 0 else "
                   "f (n - 1) in f 10");
  RunResult R = evaluate(EvalMode(Big), P->root());
  ASSERT_FALSE(R.FinalStates.empty());
  Serializer Ser;
  R.FinalStates[0]->save(Ser);
  auto Fresh = Small.initialState();
  Deserializer D(Ser.bytes());
  Fresh->load(D);
  EXPECT_TRUE(D.ok());
  EXPECT_EQ(Fresh->str(), R.FinalStates[0]->str());
}

TEST(MonitorStateRoundTrip, FlightRecorderOverCapacityRejected) {
  // A serialized ring claiming more entries than its own capacity is
  // malformed (can only arise from corruption) and must be refused.
  Serializer Ser;
  Ser.writeU64(2); // Capacity
  Ser.writeU64(5); // TotalEvents
  Ser.writeU32(5); // Ring size > Capacity
  for (int I = 0; I < 5; ++I)
    Ser.writeString("event");
  FlightRecorder M(2);
  auto Fresh = M.initialState();
  Deserializer D(Ser.bytes());
  Fresh->load(D);
  EXPECT_FALSE(D.ok());
}

TEST(MonitorStateRoundTrip, ScriptedDebugger) {
  Debugger M({"step", "step", "print x", "continue"});
  auto P = parseOk("letrec f = lambda x. {f(x)}: if x = 0 then 0 else "
                   "f (x - 1) in f 3");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, FaultInjectorWrapsInner) {
  // Rate 0: the injector is a pass-through whose state nests the inner
  // profiler's state; the recursive save/load must reach it.
  CallProfiler Inner;
  FaultInjector::Config Cfg;
  Cfg.PerMille = 0;
  FaultInjector M(Inner, Cfg);
  auto P = parseOk("letrec f = lambda n. {f}: if n = 0 then 0 else "
                   "f (n - 1) in f 5");
  expectRunRoundTrip(M, P->root());
}

TEST(MonitorStateRoundTrip, ThreeDeepCascade) {
  // Three monitors with disjoint annotation syntaxes — the tracer claims
  // parameterized `{f(n)}` annotations, the other two are addressed by
  // qualifier — saved and restored through the cascade's monitor section
  // via a real interrupted resume.
  Tracer Trc;        // {f(n)}
  CallProfiler Prof; // {profile:dec}
  CostProfiler Cost; // {cost:body}

  auto Src = "letrec f = lambda n. {f(n)}: if n = 0 then 0 else "
             "({profile:dec}: ({cost:body}: (f (n - 1) + 1))) in f 12";
  auto baseMode = [&]() { return Trc & Prof & Cost; };

  auto P1 = parseOk(Src);
  RunResult Ref = evaluate(baseMode() & maxSteps(kBigBudget), P1->root());
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  Final FRef = finalOf(Ref);
  ASSERT_EQ(FRef.States.size(), 3u);

  Checkpoint CK;
  {
    auto P2 = parseOk(Src);
    RunResult R = evaluate(
        baseMode() & maxSteps(FRef.Steps / 2) &
            checkpointInto([&](const Checkpoint &C) { CK = C; }),
        P2->root());
    ASSERT_EQ(R.St, Outcome::FuelExhausted);
    ASSERT_TRUE(CK.valid());
  }
  {
    auto P3 = parseOk(Src);
    RunResult R = evaluate(baseMode() & maxSteps(kBigBudget) &
                               resumeFrom(CK),
                           P3->root());
    Final FRes = finalOf(R);
    EXPECT_TRUE(FRes == FRef) << "  reference: " << describe(FRef)
                              << "\n  resumed:   " << describe(FRes);
  }
}

//===----------------------------------------------------------------------===//
// Journal-armed evaluation
//===----------------------------------------------------------------------===//

TEST(CheckpointJournal, EventsAndCheckpointsFlowIntoTheJournal) {
  std::string Path = ::testing::TempDir() + "monsem_ck_journal.bin";
  std::remove(Path.c_str());
  CallProfiler Prof;
  auto Src = "letrec f = lambda n. {f}: if n = 0 then 0 else f (n - 1) "
             "in f 40";
  {
    auto P = parseOk(Src);
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    RunResult R = evaluate(Prof & journalInto(*J) &
                               checkpointEveryNSteps(100) & maxSteps(250),
                           P->root());
    ASSERT_EQ(R.St, Outcome::FuelExhausted);
  }
  JournalRecovery Rec = recoverJournal(Path);
  ASSERT_TRUE(Rec.Opened);
  EXPECT_GT(Rec.TotalEvents, 0u);
  ASSERT_FALSE(Rec.LastCheckpoint.empty())
      << "periodic checkpoints should land in the journal";

  // Resume from the journal's last durable checkpoint; same final state
  // as an uninterrupted run.
  std::string Err;
  Checkpoint CK = Checkpoint::fromBytes(Rec.LastCheckpoint, Err);
  ASSERT_TRUE(CK.valid()) << Err;
  auto PRef = parseOk(Src);
  Final FRef = finalOf(evaluate(EvalMode(Prof), PRef->root()));
  auto PRes = parseOk(Src);
  Final FRes = finalOf(evaluate(Prof & resumeFrom(CK), PRes->root()));
  EXPECT_TRUE(FRes == FRef) << "  reference: " << describe(FRef)
                            << "\n  resumed:   " << describe(FRes);
  std::remove(Path.c_str());
}
