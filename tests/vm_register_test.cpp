//===- tests/vm_register_test.cpp - Register tier differential -------------===//
//
// The register tier is the one executor of compiled bytecode, and
// compiled programs are register code: each instruction is one step at its
// (block, pc), fused or not, so a run of the fused program must be
// observationally identical to a run of the unfused one — same answers,
// same step counts, same probe event streams, same final monitor states —
// and agree with the CEK machine on answers, final states and probe texts.
// Checkpoints must be portable across vm, vm-reg and vm-aot. These tests
// pin that down differentially, plus golden listings in both notations and
// the leaf-window conventions of the register layout.
//
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Eval.h"
#include "interp/Machine.h"
#include "monitors/Profiler.h"
#include "syntax/Printer.h"

#include "RandomProgram.h"

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

std::string statesOf(const RunResult &R) {
  std::string Out;
  for (const auto &S : R.FinalStates)
    Out += S->str() + ";";
  return Out;
}

/// One probe event as a monitor would see it: which hook fired, at which
/// step, with which rendered payload. Byte-identical streams between the
/// fused and unfused programs are the probe-convention acceptance bar.
struct Event {
  bool Pre;
  uint64_t Step;
  std::string Text;

  bool operator==(const Event &O) const {
    return Pre == O.Pre && Step == O.Step && Text == O.Text;
  }
};

std::string describeEvents(const std::vector<Event> &Es) {
  std::string Out;
  for (const Event &E : Es)
    Out += (E.Pre ? "pre@" : "post@") + std::to_string(E.Step) + " " +
           E.Text + "\n";
  return Out;
}

/// Decorator mirroring JournalingHooks, but into a vector instead of a
/// file: records exactly what the journal would, then forwards.
class RecordingHooks : public MonitorHooks {
public:
  RecordingHooks(MonitorHooks &Inner, std::vector<Event> &Events)
      : Inner(Inner), Events(Events) {}

  void pre(const Annotation &Ann, const Expr &E, EnvView Env,
           uint64_t StepIndex, uint64_t AllocatedBytes) override {
    Events.push_back({true, StepIndex, Ann.text()});
    Inner.pre(Ann, E, Env, StepIndex, AllocatedBytes);
  }

  void post(const Annotation &Ann, const Expr &E, EnvView Env, Value Result,
            uint64_t StepIndex, uint64_t AllocatedBytes) override {
    Events.push_back(
        {false, StepIndex, Ann.text() + " = " + toDisplayString(Result)});
    Inner.post(Ann, E, Env, Result, StepIndex, AllocatedBytes);
  }

  void saveMonitorSection(Serializer &S) const override {
    Inner.saveMonitorSection(S);
  }
  void loadMonitorSection(Deserializer &D) override {
    Inner.loadMonitorSection(D);
  }

private:
  MonitorHooks &Inner;
  std::vector<Event> &Events;
};

enum class Tier { Unfused, Reg, Aot };

/// Run a program on the register tier without superinstruction fusion,
/// with it, or on the native AOT tier, under one cascade, optionally
/// recording the probe event stream. Tier::Aot requires aotAvailable() —
/// callers skip first.
RunResult runTier(Tier T, const Cascade &C, const Expr *Program,
                  RunOptions Opts, std::vector<Event> *Events = nullptr) {
  DiagnosticSink Diags;
  if (!C.empty() && !C.validateFor(Program, Diags)) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  CompileOptions CO;
  CO.Instrument = !C.empty();
  CO.Fuse = T != Tier::Unfused;
  std::unique_ptr<CompiledProgram> CP = compileProgram(Program, Diags, CO);
  if (!CP) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  RegProgram RP(*CP);
  std::shared_ptr<const AotLibrary> Lib;
  if (T == Tier::Aot) {
    std::string Why;
    Lib = aotLoad(RP, /*CacheDir=*/"", &Why);
    EXPECT_NE(Lib, nullptr) << "aotLoad failed: " << Why;
    if (!Lib) {
      RunResult R;
      R.Error = "aot load failed: " + Why;
      return R;
    }
  }
  auto Run = [&](MonitorHooks *H) {
    if (Lib)
      return runAotProgram(RP, *Lib, H, Opts);
    return runRegisterProgram(RP, H, Opts);
  };
  if (C.empty())
    return Run(nullptr);
  RuntimeCascade RC(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
  std::unique_ptr<RecordingHooks> RH;
  MonitorHooks *Hooks = &RC;
  if (Events) {
    RH = std::make_unique<RecordingHooks>(RC, *Events);
    Hooks = RH.get();
  }
  RunResult R = Run(Hooks);
  R.FinalStates = RC.takeStates();
  R.MonitorFaults = RC.takeFaults();
  return R;
}

/// CEK machine run with the same event recording, for text-level stream
/// comparison (CEK step indices differ from the VM's cost accounting, so
/// only the hook/text sequence is comparable).
RunResult runCEKRecorded(const Cascade &C, const Expr *Program,
                         RunOptions Opts, std::vector<Event> &Events) {
  DiagnosticSink Diags;
  if (!C.validateFor(Program, Diags)) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  RuntimeCascade RC(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
  RecordingHooks RH(RC, Events);
  DynamicMonitorPolicy Policy{&RH};
  MonitoredMachine M(Program, Opts, Policy);
  RunResult R = M.run();
  R.FinalStates = RC.takeStates();
  R.MonitorFaults = RC.takeFaults();
  return R;
}

std::string textsOf(const std::vector<Event> &Es) {
  std::string Out;
  for (const Event &E : Es)
    Out += (E.Pre ? "pre " : "post ") + E.Text + "\n";
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden disassembly round-trips: both encodings, pinned byte-for-byte.
//===----------------------------------------------------------------------===//

TEST(RegisterDisasmTest, GoldenFibListings) {
  auto P = parseOk("letrec fib = lambda n. if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 10");
  DiagnosticSink D;
  auto CP = compileProgram(P->root(), D);
  ASSERT_NE(CP, nullptr);
  EXPECT_EQ(CP->disassemble(),
            "block 0 (<main>):\n"
            "  0: pushrec 0\n"
            "  1: closure 1\n"
            "  2: patchrec\n"
            "  3: const 10\n"
            "  4: vartailcall 0\n"
            "  5: halt\n"
            "block 1 (lambda n):\n"
            "  0: varconstprim2 0 2 <\n"
            "  1: jfalse 4\n"
            "  2: var 0\n"
            "  3: jump 9\n"
            "  4: varconstprim2 0 1 -\n"
            "  5: varcall 1\n"
            "  6: varconstprim2 0 2 -\n"
            "  7: varcall 1\n"
            "  8: prim2 +\n"
            "  9: ret\n");
  auto RP = lowerToRegisters(*CP);
  ASSERT_NE(RP, nullptr);
  // The fib body has no closure creation and no probes, so it lowers as a
  // leaf block: the parameter lives in r0 with no environment node at all,
  // and recursive references shift down one environment level.
  EXPECT_EQ(RP->disassemble(),
            "block 0 (<main>) regs=1:\n"
            "  0: rpushrec 0\n"
            "  1: rclosure r0 = block 1\n"
            "  2: rpatchrec r0\n"
            "  3: rconst r0 = 10\n"
            "  4: rvartailcall env[0](r0)\n"
            "  5: rhalt r0\n"
            "block 1 (lambda n) leaf regs=3:\n"
            "  0: rvarconstprim2 r1 = param < 2\n"
            "  1: rjfalse r1 -> 4\n"
            "  2: rvar r1 = param\n"
            "  3: rjump 9\n"
            "  4: rvarconstprim2 r1 = param - 1\n"
            "  5: rvarcall r1 = env[0](r1)\n"
            "  6: rvarconstprim2 r2 = param - 2\n"
            "  7: rvarcall r2 = env[0](r2)\n"
            "  8: rprim2 r1 = r1 + r2\n"
            "  9: rret r1\n");
}

TEST(RegisterDisasmTest, GoldenProbeListing) {
  // A probe in the body forces the non-leaf convention: the block keeps
  // the full environment chain (param at env[0]) so MonPre/MonPost present
  // the paper-exact environment view, and MonPost names the register
  // holding the observed result.
  auto P = parseOk("(lambda x. x + ({A}: x)) 3");
  DiagnosticSink D;
  auto CP = compileProgram(P->root(), D);
  ASSERT_NE(CP, nullptr);
  auto RP = lowerToRegisters(*CP);
  ASSERT_NE(RP, nullptr);
  EXPECT_EQ(RP->disassemble(),
            "block 0 (<main>) regs=2:\n"
            "  0: rconst r0 = 3\n"
            "  1: rclosure r1 = block 1\n"
            "  2: rtailcall r1(r0)\n"
            "  3: rhalt r0\n"
            "block 1 (lambda x) regs=2:\n"
            "  0: rvar r0 = env[0]\n"
            "  1: rmonpre {A}\n"
            "  2: rvar r1 = env[0]\n"
            "  3: rmonpost {A} r1\n"
            "  4: rprim2 r0 = r0 + r1\n"
            "  5: rret r0\n");
}

//===----------------------------------------------------------------------===//
// Leaf windows and frame reuse.
//===----------------------------------------------------------------------===//

TEST(RegisterLoweringTest, LeafCallsSkipEnvAllocation) {
  auto Small = parseOk("letrec fib = lambda n. if n < 2 then n else "
                       "fib (n - 1) + fib (n - 2) in fib 12");
  auto Large = parseOk("letrec fib = lambda n. if n < 2 then n else "
                       "fib (n - 1) + fib (n - 2) in fib 16");
  Cascade Empty;
  RunOptions Opts;
  RunResult S = runTier(Tier::Reg, Empty, Small->root(), Opts);
  RunResult L = runTier(Tier::Reg, Empty, Large->root(), Opts);
  ASSERT_TRUE(S.Ok && L.Ok) << S.Error << L.Error;
  EXPECT_EQ(S.ValueText, evaluate(Small->root()).ValueText);
  EXPECT_EQ(L.IntValue, 987);
  EXPECT_GT(L.Steps, 5 * S.Steps);
  // Leaf frames never materialize an EnvNode, and fib allocates nothing
  // else, so ~7x more calls allocate no more arena bytes.
  EXPECT_EQ(S.ArenaBytes, L.ArenaBytes);
}

TEST(RegisterLoweringTest, SelfLoopsRunInConstantArena) {
  auto Short = parseOk("letrec loop = lambda n. if n = 0 then 7 else "
                       "loop (n - 1) in loop 1000");
  auto Long = parseOk("letrec loop = lambda n. if n = 0 then 7 else "
                      "loop (n - 1) in loop 100000");
  Cascade Empty;
  RunOptions Opts;
  RunResult RS = runTier(Tier::Reg, Empty, Short->root(), Opts);
  RunResult RL = runTier(Tier::Reg, Empty, Long->root(), Opts);
  ASSERT_TRUE(RS.Ok && RL.Ok) << RS.Error << RL.Error;
  EXPECT_EQ(RL.IntValue, 7);
  EXPECT_EQ(RS.ArenaBytes, RL.ArenaBytes);
}

TEST(RegisterLoweringTest, LazyStrategyIsRejected) {
  auto P = parseOk("1 + 2");
  RunResult R = evaluate(kVMReg & kByName, P->root());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("kVMReg"), std::string::npos) << R.Error;

  RunResult Reg = evaluate(kVMReg, P->root());
  RunResult VM = evaluate(kVM, P->root());
  ASSERT_TRUE(Reg.Ok && VM.Ok) << Reg.Error << VM.Error;
  EXPECT_EQ(Reg.ValueText, VM.ValueText);
  EXPECT_EQ(Reg.Steps, VM.Steps);
}

//===----------------------------------------------------------------------===//
// Differential corpus: fused vs. unfused register runs vs. the native tier
// vs. the CEK machine over generated programs.
//===----------------------------------------------------------------------===//

class VMRegisterDifferentialTest : public ::testing::TestWithParam<unsigned> {
};

TEST_P(VMRegisterDifferentialTest, RegisterAgreesWithStackAndMachine) {
  AstContext Ctx;
  const Expr *Prog = genProgram(Ctx, GetParam());
  RunOptions Opts;
  Opts.MaxSteps = 1000000;
  RunResult Interp = evaluate(Prog, Opts);
  Cascade Empty;

  RunResult Base = runTier(Tier::Unfused, Empty, Prog, Opts);
  EXPECT_TRUE(Interp.sameOutcome(Base)) << printExpr(Prog);
  RunResult Reg = runTier(Tier::Reg, Empty, Prog, Opts);
  EXPECT_TRUE(Interp.sameOutcome(Reg))
      << printExpr(Prog)
      << "\ncek: " << (Interp.Ok ? Interp.ValueText : Interp.Error)
      << "\nreg: " << (Reg.Ok ? Reg.ValueText : Reg.Error);
  if (Base.Ok && Reg.Ok) {
    // Fusion sums Costs and allocates nothing of its own.
    EXPECT_EQ(Base.Steps, Reg.Steps) << printExpr(Prog);
    EXPECT_EQ(Base.ArenaBytes, Reg.ArenaBytes) << printExpr(Prog);
  }
  // The native AOT tier runs the same register program, so it must match
  // the register interpreter exactly — answer, step count, and even the
  // arena footprint (the native fast paths allocate iff the interpreter's
  // fast paths would).
  if (aotAvailable()) {
    RunResult A = runTier(Tier::Aot, Empty, Prog, Opts);
    EXPECT_TRUE(Reg.sameOutcome(A))
        << printExpr(Prog)
        << "\nreg: " << (Reg.Ok ? Reg.ValueText : Reg.Error)
        << "\naot: " << (A.Ok ? A.ValueText : A.Error);
    if (Reg.Ok && A.Ok) {
      EXPECT_EQ(Reg.Steps, A.Steps) << printExpr(Prog);
      EXPECT_EQ(Reg.ArenaBytes, A.ArenaBytes) << printExpr(Prog);
    }
  }
}

TEST_P(VMRegisterDifferentialTest, MonitoredStreamsAreIdentical) {
  AstContext Ctx;
  const Expr *Prog = genProgram(Ctx, GetParam());
  RunOptions Opts;
  Opts.MaxSteps = 1000000;

  CountingProfiler CountAB;
  CountingProfiler CountM("m0", "m1");
  Cascade Single;
  Single.use(CountAB);
  Cascade Pair;
  Pair.use(CountAB);
  Pair.use(CountM);

  for (const Cascade *C : {&Single, &Pair}) {
    std::vector<Event> UnfusedEvents, RegEvents, CEKEvents;
    RunResult F = runTier(Tier::Unfused, *C, Prog, Opts, &UnfusedEvents);
    RunResult R = runTier(Tier::Reg, *C, Prog, Opts, &RegEvents);
    RunResult Interp = runCEKRecorded(*C, Prog, Opts, CEKEvents);
    EXPECT_TRUE(F.sameOutcome(R)) << printExpr(Prog);
    EXPECT_TRUE(Interp.sameOutcome(R)) << printExpr(Prog);
    if (Interp.Ok && F.Ok && R.Ok) {
      EXPECT_EQ(statesOf(R), statesOf(F)) << printExpr(Prog);
      EXPECT_EQ(statesOf(R), statesOf(Interp)) << printExpr(Prog);
      EXPECT_EQ(R.Steps, F.Steps) << printExpr(Prog);
      // Probe convention: fused and unfused code emit the byte-identical
      // event stream — same steps, same rendered payloads.
      EXPECT_TRUE(RegEvents == UnfusedEvents)
          << printExpr(Prog) << "\nunfused:\n"
          << describeEvents(UnfusedEvents) << "fused:\n"
          << describeEvents(RegEvents);
      // Against the CEK machine only the hook/text sequence is comparable
      // (step indices follow each machine's own cost accounting).
      EXPECT_EQ(textsOf(RegEvents), textsOf(CEKEvents)) << printExpr(Prog);
    }
    // The native tier deopts to the register interpreter around every
    // probe window, so the monitored stream — steps, payloads, final
    // states — must be byte-identical to the pure register run.
    if (aotAvailable()) {
      std::vector<Event> AotEvents;
      RunResult A = runTier(Tier::Aot, *C, Prog, Opts, &AotEvents);
      EXPECT_TRUE(R.sameOutcome(A)) << printExpr(Prog);
      if (R.Ok && A.Ok) {
        EXPECT_EQ(statesOf(A), statesOf(R)) << printExpr(Prog);
        EXPECT_EQ(A.Steps, R.Steps) << printExpr(Prog);
        EXPECT_TRUE(AotEvents == RegEvents)
            << printExpr(Prog) << "\nreg:\n" << describeEvents(RegEvents)
            << "aot:\n" << describeEvents(AotEvents);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VMRegisterDifferentialTest,
                         ::testing::Range(0u, 60u));

//===----------------------------------------------------------------------===//
// Cross-tier checkpoint portability: interrupt under one tier, resume
// under the other, and compare against the uninterrupted run.
//===----------------------------------------------------------------------===//

namespace {

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

const char *tierName(Backend B) {
  switch (B) {
  case Backend::VM:
    return "vm";
  case Backend::VMRegister:
    return "vm-reg";
  case Backend::VMAot:
    return "vm-aot";
  default:
    return "?";
  }
}

/// checkpoint_test's differential core, generalized to interrupt under
/// `From` and resume under `To`. All three VM backends (vm, which is an
/// alias of vm-reg, vm-reg, and the native vm-aot) share the
/// CheckpointBackend::VM format and the stack-listing
/// fingerprint, so a checkpoint written by any must resume on the others
/// with identical observables. For vm-aot this doubles as the
/// deopt-at-checkpoint test: native code yields back to the register
/// interpreter before every governor pause, so the fuel stop that emits
/// the checkpoint always fires from interpreted code at an exact
/// transition boundary.
void checkCrossTier(unsigned Seed, Backend From, Backend To, bool Monitored) {
  CallProfiler Prof;
  auto modeFor = [&](Backend B) {
    EvalMode M = kStrict & BackendTag{B};
    if (Monitored)
      M = M & Prof;
    return M;
  };

  AstContext C1;
  const Expr *P1 = genProgram(C1, Seed);
  RunResult Ref = evaluate(modeFor(To) & maxSteps(kBigBudget), P1);
  if (Ref.stoppedByGovernor())
    return;
  Final FRef = finalOf(Ref);
  if (FRef.Steps < 2)
    return;

  uint64_t K = 1 + (Seed * 7919u) % (FRef.Steps - 1);

  Checkpoint CK;
  {
    AstContext C2;
    const Expr *P2 = genProgram(C2, Seed);
    RunResult R =
        evaluate(modeFor(From) & maxSteps(K) &
                     checkpointInto([&](const Checkpoint &C) { CK = C; }),
                 P2);
    ASSERT_EQ(R.St, Outcome::FuelExhausted)
        << "seed " << Seed << " K=" << K << ": " << R.Error;
    ASSERT_TRUE(CK.valid()) << "seed " << Seed;
  }

  {
    AstContext C3;
    const Expr *P3 = genProgram(C3, Seed);
    RunResult R =
        evaluate(modeFor(To) & maxSteps(kBigBudget) & resumeFrom(CK), P3);
    Final FRes = finalOf(R);
    EXPECT_TRUE(FRes == FRef)
        << "seed " << Seed << " K=" << K << " " << tierName(From) << "->"
        << tierName(To) << "\n  reference: " << describe(FRef)
        << "\n  resumed:   " << describe(FRes);
  }
}

} // namespace

TEST(RegisterCheckpointTest, StackToRegisterUnmonitored) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VM, Backend::VMRegister, false);
}

TEST(RegisterCheckpointTest, RegisterToStackUnmonitored) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMRegister, Backend::VM, false);
}

TEST(RegisterCheckpointTest, StackToRegisterMonitored) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VM, Backend::VMRegister, true);
}

TEST(RegisterCheckpointTest, RegisterToStackMonitored) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMRegister, Backend::VM, true);
}

TEST(RegisterCheckpointTest, RegisterResumesItself) {
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMRegister, Backend::VMRegister, true);
}

// vm-aot checkpoint portability: a checkpoint cut while the native tier is
// driving must resume under the pure interpreters (and vice versa) with
// identical observables, because the native tier deopts to the register
// interpreter at the exact (block, pc) the governor pauses on.

TEST(RegisterCheckpointTest, AotToStackUnmonitored) {
  if (!aotAvailable())
    GTEST_SKIP() << "no C compiler; native tier degrades to vm-reg";
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMAot, Backend::VM, false);
}

TEST(RegisterCheckpointTest, StackToAotMonitored) {
  if (!aotAvailable())
    GTEST_SKIP() << "no C compiler; native tier degrades to vm-reg";
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VM, Backend::VMAot, true);
}

TEST(RegisterCheckpointTest, AotToRegisterMonitored) {
  if (!aotAvailable())
    GTEST_SKIP() << "no C compiler; native tier degrades to vm-reg";
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMAot, Backend::VMRegister, true);
}

TEST(RegisterCheckpointTest, RegisterToAotMonitored) {
  if (!aotAvailable())
    GTEST_SKIP() << "no C compiler; native tier degrades to vm-reg";
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMRegister, Backend::VMAot, true);
}

TEST(RegisterCheckpointTest, AotResumesItself) {
  if (!aotAvailable())
    GTEST_SKIP() << "no C compiler; native tier degrades to vm-reg";
  for (unsigned Seed = 0; Seed < 25; ++Seed)
    checkCrossTier(Seed, Backend::VMAot, Backend::VMAot, true);
}

TEST(RegisterCheckpointTest, LastStepCheckpointHasNoFrames) {
  // Interrupting on the final Halt catches the machine after the sentinel
  // frame was popped: the checkpoint legitimately carries zero call frames
  // and the resumed run halts immediately. Exercise every tier pairing.
  auto Src = "letrec fib = lambda n. if n < 2 then n else "
             "fib (n - 1) + fib (n - 2) in fib 14";
  std::vector<Backend> Tiers = {Backend::VM, Backend::VMRegister};
  if (aotAvailable())
    Tiers.push_back(Backend::VMAot);
  for (Backend From : Tiers) {
    for (Backend To : Tiers) {
      auto P1 = parseOk(Src);
      RunResult Ref =
          evaluate(kStrict & BackendTag{To} & maxSteps(kBigBudget),
                   P1->root());
      ASSERT_TRUE(Ref.Ok) << Ref.Error;

      Checkpoint CK;
      auto P2 = parseOk(Src);
      RunResult Cut =
          evaluate(kStrict & BackendTag{From} & maxSteps(Ref.Steps - 1) &
                       checkpointInto([&](const Checkpoint &C) { CK = C; }),
                   P2->root());
      ASSERT_EQ(Cut.St, Outcome::FuelExhausted) << Cut.Error;
      ASSERT_TRUE(CK.valid());

      auto P3 = parseOk(Src);
      RunResult R = evaluate(kStrict & BackendTag{To} &
                                 maxSteps(kBigBudget) & resumeFrom(CK),
                             P3->root());
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.ValueText, Ref.ValueText);
      EXPECT_EQ(R.Steps, Ref.Steps);
    }
  }
}
