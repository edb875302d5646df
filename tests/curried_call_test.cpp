//===- tests/curried_call_test.cpp - Fused curried calls ------------------===//
//
// A saturated call `f a1 ... ak` to a letrec-bound f whose bound is k
// directly nested lambdas compiles to one fused instruction that enters
// the innermost block directly (a k-parameter leaf copy of it when it is a
// leaf). The fusion is a pure implementation refinement, pinned here:
//  - which call shapes fuse (saturated, over-applied) and which do not
//    (partial, escaping, shadowed, annotated spines, past the Cost
//    ceiling), and what the stack listing shows for them;
//  - answers, step counts, fuel stops, probe streams and monitor finals
//    against the unfused program and the CEK machine, on handwritten
//    programs and on the curried family of RandomProgram.h;
//  - checkpoint bytes: digests of every periodic checkpoint of curried
//    tak/ack/build, captured from the build before fused curried calls
//    existed, and resumption of them on every bytecode tier.
//
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "monitors/Stepper.h"
#include "monitors/Tracer.h"
#include "semantics/ValueGraph.h"
#include "support/Checkpoint.h"
#include "syntax/Annotator.h"
#include "syntax/Printer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace monsem;

namespace {

constexpr uint64_t kBudget = 2'000'000;

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

std::unique_ptr<CompiledProgram> compileOk(const Expr *Prog, bool Fuse = true,
                                           bool Instrument = true) {
  DiagnosticSink D;
  CompileOptions CO;
  CO.Fuse = Fuse;
  CO.Instrument = Instrument;
  auto CP = compileProgram(Prog, D, CO);
  EXPECT_NE(CP, nullptr) << D.str();
  return CP;
}

size_t countOps(const CompiledProgram &CP, ROp Op) {
  size_t N = 0;
  for (const CodeBlock &B : CP.Blocks)
    for (const RInstr &I : B.Code)
      N += I.Code == Op;
  return N;
}

size_t countCopies(const CompiledProgram &CP) {
  size_t N = 0;
  for (const CodeBlock &B : CP.Blocks)
    N += B.CopyOf != kNoBlock;
  return N;
}

size_t countSubstr(const std::string &Haystack, std::string_view Needle) {
  size_t N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Running one program every way
//===----------------------------------------------------------------------===//

/// Records each probe event (hook, step, payload), then forwards.
class RecordingHooks : public MonitorHooks {
public:
  RecordingHooks(MonitorHooks &Inner, std::string &Log)
      : Inner(Inner), Log(Log) {}

  void pre(const Annotation &Ann, const Expr &E, EnvView Env,
           uint64_t StepIndex, uint64_t AllocatedBytes) override {
    Log += "pre@" + std::to_string(StepIndex) + " " + Ann.text() + "\n";
    Inner.pre(Ann, E, Env, StepIndex, AllocatedBytes);
  }
  void post(const Annotation &Ann, const Expr &E, EnvView Env, Value Result,
            uint64_t StepIndex, uint64_t AllocatedBytes) override {
    Log += "post@" + std::to_string(StepIndex) + " " + Ann.text() + " = " +
           toDisplayString(Result) + "\n";
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
  std::string &Log;
};

/// What a run shows, --alloc aside: the outcome, answer or error, steps,
/// monitor finals, and the probe stream with step indices.
struct Observed {
  Outcome St = Outcome::Error;
  std::string Value, Error;
  uint64_t Steps = 0;
  std::string States, Events;

  bool operator==(const Observed &O) const {
    return St == O.St && Value == O.Value && Error == O.Error &&
           Steps == O.Steps && States == O.States && Events == O.Events;
  }
};

std::string describe(const Observed &O) {
  return std::string(outcomeName(O.St)) + " value='" + O.Value +
         "' error='" + O.Error + "' steps=" + std::to_string(O.Steps) +
         "\nstates: " + O.States + "\nevents:\n" + O.Events;
}

enum class Tier { Unfused, Reg, Aot };

const char *tierName(Tier T) {
  return T == Tier::Unfused ? "unfused" : T == Tier::Reg ? "vm-reg" : "vm-aot";
}

/// Runs \p Prog under cascade \p C on the register tier, fused or not, or
/// on the native tier.
Observed runTier(Tier T, const Cascade &C, const Expr *Prog,
                 uint64_t MaxSteps = kBudget) {
  Observed O;
  DiagnosticSink D;
  if (!C.empty() && !C.validateFor(Prog, D)) {
    O.Error = D.str();
    return O;
  }
  CompileOptions CO;
  CO.Instrument = !C.empty();
  CO.Fuse = T != Tier::Unfused;
  auto CP = compileProgram(Prog, D, CO);
  if (!CP) {
    O.Error = D.str();
    return O;
  }
  RegProgram RP(*CP);
  std::shared_ptr<const AotLibrary> Lib;
  if (T == Tier::Aot) {
    std::string Why;
    Lib = aotLoad(RP, "", &Why);
    EXPECT_NE(Lib, nullptr) << Why;
  }
  RunOptions Opts;
  Opts.MaxSteps = MaxSteps;
  auto Run = [&](MonitorHooks *H) {
    return Lib ? runAotProgram(RP, *Lib, H, Opts)
               : runRegisterProgram(RP, H, Opts);
  };
  RunResult R;
  if (C.empty()) {
    R = Run(nullptr);
  } else {
    RuntimeCascade RC(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
    RecordingHooks RH(RC, O.Events);
    R = Run(&RH);
    for (const auto &S : RC.takeStates())
      O.States += S->str() + ";";
  }
  O.St = R.St;
  O.Value = R.ValueText;
  O.Error = R.Error;
  O.Steps = R.Steps;
  return O;
}

/// The CEK machine's outcome and finals (its steps count transitions of
/// another machine, so only these compare).
Observed runCEK(const Cascade &C, const Expr *Prog) {
  RunResult R = evaluate(C & maxSteps(kBudget), Prog);
  Observed O;
  O.St = R.St;
  O.Value = R.ValueText;
  O.Error = R.Error;
  for (const auto &S : R.FinalStates)
    O.States += S->str() + ";";
  return O;
}

std::vector<Tier> tiers() {
  std::vector<Tier> Ts = {Tier::Unfused, Tier::Reg};
  if (aotAvailable())
    Ts.push_back(Tier::Aot);
  return Ts;
}

/// Fused (and native) runs show exactly what the unfused program shows,
/// and the outcome and finals the CEK machine shows; a fuel stop anywhere
/// in the run stops every tier at the same step.
void checkAgrees(const Expr *Prog, const Cascade &C, const std::string &What,
                 bool WithAot = true) {
  Observed Ref = runTier(Tier::Unfused, C, Prog);
  Observed CEK = runCEK(C, Prog);
  EXPECT_EQ(Ref.St, CEK.St) << What;
  EXPECT_EQ(Ref.Value, CEK.Value) << What;
  EXPECT_EQ(Ref.Error, CEK.Error) << What;
  if (Ref.St == Outcome::Ok) {
    EXPECT_EQ(Ref.States, CEK.States) << What;
  }
  // A run the fuel budget stops is cut where fusion put the instruction
  // boundary (pair fusion moves it too), so only its outcome compares with
  // the unfused program; the fused tiers must still agree on all of it.
  const bool Stopped = Ref.St != Outcome::Ok && Ref.St != Outcome::Error;
  Observed Reg = runTier(Tier::Reg, C, Prog);
  for (Tier T : tiers()) {
    if (T == Tier::Unfused || (T == Tier::Aot && !WithAot))
      continue;
    Observed O = T == Tier::Reg ? Reg : runTier(T, C, Prog);
    if (Stopped) {
      EXPECT_EQ(O.St, Ref.St) << What << " on " << tierName(T);
      EXPECT_TRUE(O == Reg) << What << " on " << tierName(T)
                            << "\nvm-reg: " << describe(Reg)
                            << "\nhere:   " << describe(O);
      continue;
    }
    EXPECT_TRUE(O == Ref) << What << " on " << tierName(T)
                          << "\nunfused: " << describe(Ref)
                          << "\nfused:   " << describe(O);
  }
  if (Ref.St != Outcome::Ok || Ref.Steps < 8)
    return;
  // Fuel stops: fused tiers stop at the same step and in the same state.
  for (uint64_t Cut : {Ref.Steps / 3, Ref.Steps / 2 + 1, Ref.Steps - 2}) {
    Observed Reg = runTier(Tier::Reg, C, Prog, Cut);
    EXPECT_EQ(Reg.St, Outcome::FuelExhausted) << What << " cut " << Cut;
    if (aotAvailable() && WithAot) {
      Observed Aot = runTier(Tier::Aot, C, Prog, Cut);
      EXPECT_TRUE(Aot == Reg) << What << " cut " << Cut
                              << "\nvm-reg: " << describe(Reg)
                              << "\nvm-aot: " << describe(Aot);
    }
  }
}

/// The cascades every program runs under: none; every annotation logged;
/// every function body traced with its parameters (the innermost block
/// then has probes and reads the environment chain); every application
/// labelled (so no curried spine fuses).
void checkAllWays(std::string_view Src) {
  {
    auto P = parseOk(Src);
    checkAgrees(P->root(), Cascade(), std::string(Src));
    Stepper Step;
    Cascade C;
    C.use(Step);
    checkAgrees(P->root(), C, std::string(Src) + " [stepper]");
  }
  {
    auto P = parseOk(Src);
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("trace");
    AO.WithParams = true;
    const Expr *Root = annotateFunctionBodies(P->context(), P->root(), {}, AO);
    Tracer T;
    Cascade C;
    C.use(T);
    checkAgrees(Root, C, std::string(Src) + " [trace]");
  }
  {
    auto P = parseOk(Src);
    const Expr *Root = labelProgramPoints(P->context(), P->root(), "p",
                                          Symbol::intern("m"));
    Stepper Step;
    Cascade C;
    C.use(Step);
    checkAgrees(Root, C, std::string(Src) + " [labelled]");
  }
}

const char *const kTak =
    "letrec tak = lambda x y z. if y < x then tak (tak (x - 1) y z) "
    "(tak (y - 1) z x) (tak (z - 1) x y) else z in tak 12 8 4";
const char *const kAck =
    "letrec ack = lambda m n. if m = 0 then n + 1 else if n = 0 then "
    "ack (m - 1) 1 else ack (m - 1) (ack m (n - 1)) in ack 2 30";
const char *const kBuild =
    "letrec build = lambda n acc. if n = 0 then acc else build (n - 1) "
    "(n : acc) in letrec sum = lambda l acc. if l = [] then acc else "
    "sum (tl l) (acc + hd l) in sum (build 400 []) 0";

} // namespace

//===----------------------------------------------------------------------===//
// Which calls fuse
//===----------------------------------------------------------------------===//

TEST(CurriedCallTest, SaturatedCallsEnterALeafCopy) {
  auto P = parseOk(kTak);
  auto CP = compileOk(P->root());
  ASSERT_NE(CP, nullptr);
  // The entry's call and the four in tak's body, in the body and its copy.
  EXPECT_EQ(countOps(*CP, ROp::CurryCall), 6u);
  EXPECT_EQ(countOps(*CP, ROp::CurryTailCall), 3u);
  ASSERT_EQ(countCopies(*CP), 1u);
  const CodeBlock &Copy = CP->Blocks.back();
  const CodeBlock &Inner = CP->Blocks[Copy.CopyOf];
  EXPECT_TRUE(Copy.Leaf);
  EXPECT_EQ(Copy.TempBase, 3u);
  EXPECT_EQ(Copy.Height, Inner.Height);
  EXPECT_EQ(Copy.Code.size(), Inner.Code.size());
  EXPECT_EQ(Inner.Name, "lambda z");
  // Every reference to tak heads a fused call: the native tier emits
  // nothing for the curried blocks and the source innermost block.
  for (uint32_t B = 1; B <= Copy.CopyOf; ++B)
    EXPECT_FALSE(CP->Blocks[B].Live) << B;
  EXPECT_TRUE(Copy.Live);
  // The stack listing (the checkpoint fingerprint) shows the source blocks
  // and the VarCall in the fused call's slot.
  std::string Stack = CP->disassemble();
  EXPECT_EQ(Stack.find("cur"), std::string::npos) << Stack;
  EXPECT_EQ(countSubstr(Stack, "block "), CP->Blocks.size() - 1);
  auto Unfused = compileOk(P->root(), /*Fuse=*/false);
  EXPECT_EQ(countSubstr(Stack, ": varcall"), 5u);
  EXPECT_EQ(countOps(*Unfused, ROp::CurryCall), 0u);
  EXPECT_EQ(countCopies(*Unfused), 0u);
  std::string Reg = RegProgram(*CP).disassemble();
  EXPECT_NE(Reg.find("params=3 copy of"), std::string::npos) << Reg;
  EXPECT_NE(Reg.find("rcurtailcall"), std::string::npos) << Reg;
}

TEST(CurriedCallTest, ProbedInnermostBlockIsEnteredWithItsChain) {
  auto P = parseOk(kAck);
  AnnotateOptions AO;
  AO.Qualifier = Symbol::intern("profile");
  const Expr *Root =
      annotateFunctionBodies(P->context(), P->root(), {}, AO);
  auto CP = compileOk(Root);
  ASSERT_NE(CP, nullptr);
  EXPECT_GT(countOps(*CP, ROp::CurryCall) + countOps(*CP, ROp::CurryTailCall),
            0u);
  // No leaf copy: the fused calls enter the probed block itself.
  EXPECT_EQ(countCopies(*CP), 0u);
  for (const CodeBlock &B : CP->Blocks)
    for (const RInstr &I : B.Code)
      if (isCurriedCall(I.Code)) {
        EXPECT_FALSE(CP->Blocks[I.A].Leaf);
      }
}

TEST(CurriedCallTest, OnlySaturatedKnownSpinesFuse) {
  struct Case {
    const char *Src;
    size_t Fused; ///< CurryCall + CurryTailCall in source blocks.
  };
  const Case Cases[] = {
      // Partial application: nothing to enter yet.
      {"letrec f = lambda x y. x - y in (lambda g. 3) (f 1)", 0},
      // Over-applied: the saturated spine fuses, the extra call follows.
      {"letrec f = lambda x y. if x < y then (lambda c. c + x) else "
       "(lambda c. c - y) in f 1 2 3",
       1},
      // f escapes as a value; its calls through h are unknown calls.
      {"letrec f = lambda x y. x - y in (lambda h. h 5 2) f", 0},
      // An escaping partial application.
      {"letrec f = lambda x y. x - y in (lambda h. h 2) (f 5)", 0},
      // The inner f is a parameter shadowing the letrec binder.
      {"letrec f = lambda x y. x - y in "
       "(lambda f. f 5 2) (lambda a b. a + b)",
       0},
      // Curried functions of arity 2, 3 and 4, saturated.
      {"letrec f = lambda a b c d. a - b - c - d in "
       "letrec g = lambda a b c. f a b c 1 in "
       "letrec h = lambda a b. g a b 1 in h 10 2",
       3},
  };
  for (const Case &C : Cases) {
    auto P = parseOk(C.Src);
    auto CP = compileOk(P->root());
    ASSERT_NE(CP, nullptr) << C.Src;
    size_t Fused = 0;
    for (const CodeBlock &B : CP->Blocks)
      if (B.CopyOf == kNoBlock)
        for (const RInstr &I : B.Code)
          Fused += isCurriedCall(I.Code);
    EXPECT_EQ(Fused, C.Fused) << C.Src << "\n"
                              << RegProgram(*CP).disassemble();
  }
}

TEST(CurriedCallTest, AnnotatedIntermediateApplicationDoesNotFuse) {
  auto P = parseOk("letrec f = lambda x y. x - y in ({m}: f 5) 2");
  auto CP = compileOk(P->root());
  ASSERT_NE(CP, nullptr);
  EXPECT_EQ(countOps(*CP, ROp::CurryCall) + countOps(*CP, ROp::CurryTailCall),
            0u);
  // Compiled without probes, the annotation is nothing and the spine fuses.
  auto Plain = compileOk(P->root(), /*Fuse=*/true, /*Instrument=*/false);
  ASSERT_NE(Plain, nullptr);
  EXPECT_EQ(countOps(*Plain, ROp::CurryTailCall), 1u);
}

TEST(CurriedCallTest, SpinesPastTheCostCeilingStayUnfused) {
  // A k-ary spine costs 2 (its VarCall) + (k-1) calls + (k-1) curriers of
  // Cost 2: 3k - 1, which fits the 8-bit Cost ceiling up to k = 85.
  auto CurriedOf = [](unsigned K) {
    std::string Src = "letrec f = lambda";
    for (unsigned I = 0; I < K; ++I)
      Src += " x" + std::to_string(I);
    Src += ". x0 + x" + std::to_string(K - 1) + " in f";
    for (unsigned I = 0; I < K; ++I)
      Src += " " + std::to_string(I);
    return Src;
  };
  for (unsigned K : {85u, 86u, 200u}) {
    std::string Src = CurriedOf(K);
    auto P = parseOk(Src);
    auto CP = compileOk(P->root());
    ASSERT_NE(CP, nullptr);
    EXPECT_EQ(countOps(*CP, ROp::CurryTailCall), K == 85 ? 1u : 0u) << K;
    RunResult R = evaluate(kStrict & kVMReg, P->root());
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.IntValue, int64_t(K - 1));
    if (K != 85)
      continue;
    // The fused call steps exactly as the unfused spine does.
    auto Unfused = compileOk(P->root(), /*Fuse=*/false);
    RunResult U = runCompiled(*Unfused);
    EXPECT_EQ(R.Steps, U.Steps);
  }
  checkAllWays(CurriedOf(200));
}

//===----------------------------------------------------------------------===//
// Same observables as the unfused program
//===----------------------------------------------------------------------===//

TEST(CurriedCallTest, KernelsAgreeEveryWay) {
  for (const char *Src : {kTak, kAck, kBuild})
    checkAllWays(Src);
}

TEST(CurriedCallTest, CallShapesAgreeEveryWay) {
  const char *const Programs[] = {
      // Saturated tail and non-tail calls, arities 2-4.
      "letrec f = lambda a b c d. a - b - c - d in "
      "letrec g = lambda a b c. f a b c 1 + f 1 a b c in "
      "letrec h = lambda a b. if a < 1 then b else g a b 1 + h (a - 1) b "
      "in h 10 2",
      // Over-application of a function returning functions.
      "letrec f = lambda x y. if x < 1 then (lambda c. c + y) else "
      "(lambda c. f (x - 1) (y + c) c) in f 6 1 2",
      // Partial applications that escape, and the function as a value.
      "letrec f = lambda x y. if x < 1 then y else f (x - 1) (y + x) in "
      "letrec twice = lambda h v. h (h v) in "
      "twice (f 3) 1 + (lambda k. k 4 5) f",
      // A parameter shadowing the curried binder.
      "letrec f = lambda x y. x * y in "
      "(lambda f. f 3 4) (lambda a b. a - b) + f 3 4",
      // Errors raised inside the innermost block and at the call.
      "letrec f = lambda x y. if x = 0 then hd [] else f (x - 1) y in f 5 1",
      "letrec f = lambda x y. x / y in f 4 0",
      "letrec f = lambda x y. x in f 1 2 3",
      // A curried function with closures in its body (non-leaf innermost).
      "letrec f = lambda x y. if x < 1 then y else "
      "(lambda z. f (x - 1) (y + z)) x in f 20 0",
      // A letrec in the innermost body.
      "letrec f = lambda x y. letrec g = lambda z. z + y in "
      "if x < 1 then g 0 else f (x - 1) (g x) in f 30 1",
  };
  for (const char *Src : Programs)
    checkAllWays(Src);
}

TEST(CurriedCallTest, ALongLoopSpendsNoArena) {
  // 200k iterations of a curried tail loop: the fused calls allocate no
  // environment node and no closure, so the arena holds what the entry
  // block allocates and nothing per iteration.
  auto P = parseOk("letrec loop = lambda n acc. if n = 0 then acc else "
                   "loop (n - 1) (acc + 1) in loop 200000 0");
  auto CP = compileOk(P->root());
  ASSERT_NE(CP, nullptr);
  RunResult R = runCompiled(*CP);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 200000);
  EXPECT_LT(R.ArenaBytes, 4096u);
  auto Unfused = compileOk(P->root(), /*Fuse=*/false);
  RunResult U = runCompiled(*Unfused);
  EXPECT_EQ(U.Steps, R.Steps);
  EXPECT_GT(U.ArenaBytes, 200000u * 40);
}

//===----------------------------------------------------------------------===//
// Generated curried programs
//===----------------------------------------------------------------------===//

class CurriedRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CurriedRandomTest, FusedAgreesWithUnfusedAndCEK) {
  const unsigned Seed = GetParam();
  for (unsigned Variant = 0; Variant < 3; ++Variant) {
    AstContext Ctx;
    const Expr *Prog = monsem::testing::genCurriedProgram(Ctx, Seed);
    Stepper Step;
    Cascade C;
    if (Variant > 0)
      C.use(Step);
    if (Variant == 2)
      Prog = labelProgramPoints(Ctx, Prog, "p", Symbol::intern("m"));
    checkAgrees(Prog, C,
                "seed " + std::to_string(Seed) + " variant " +
                    std::to_string(Variant) + "\n" + printExpr(Prog),
                /*WithAot=*/Seed < 24);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurriedRandomTest, ::testing::Range(0u, 160u));

TEST(CurriedRandomTest, TheFamilyHasEveryShape) {
  // Across the seeds above: leaf copies of every arity 2-4, and fused
  // calls in plenty.
  size_t Copies[5] = {}, Fused = 0;
  for (unsigned Seed = 0; Seed < 160; ++Seed) {
    AstContext Ctx;
    const Expr *Prog = monsem::testing::genCurriedProgram(Ctx, Seed);
    auto CP = compileOk(Prog);
    ASSERT_NE(CP, nullptr);
    for (const CodeBlock &B : CP->Blocks) {
      if (B.CopyOf != kNoBlock)
        ++Copies[std::min<uint32_t>(B.TempBase, 4)];
      for (const RInstr &I : B.Code)
        Fused += isCurriedCall(I.Code);
    }
  }
  EXPECT_GT(Copies[2], 0u);
  EXPECT_GT(Copies[3], 0u);
  EXPECT_GT(Copies[4], 0u);
  EXPECT_GT(Fused, 50u);
}

//===----------------------------------------------------------------------===//
// Checkpoint bytes
//===----------------------------------------------------------------------===//

namespace {

/// The block and pc a VM checkpoint's running frame names (unmonitored
/// checkpoints: the monitor section is one zero word).
std::pair<uint32_t, uint32_t> topOf(const Checkpoint &CK) {
  Deserializer D = CK.payload();
  EXPECT_EQ(D.readU32(), 0u);
  Arena A;
  ValueGraphReader Rd(D, A, nullptr, nullptr, 0);
  EXPECT_TRUE(Rd.readObjects());
  uint32_t Block = D.readU32();
  uint32_t PC = D.readU32();
  return {Block, PC};
}

struct PinnedRun {
  const char *Program;
  bool Monitored;
  uint64_t Every;
  size_t Count;
  const char *Digest; ///< fnv1a over the decimal fnv1a of each checkpoint.
};

// Captured with the build before fused curried calls (the unfused spines),
// on vm-reg and vm-aot alike.
// clang-format off
const PinnedRun kPinned[] = {
    {"tak", false, 97, 308, "132b98aea9496e0f"},
    {"tak", false, 1000, 29, "4dc4145e44214964"},
    {"tak", false, 4093, 7, "50d449bf7c7926cf"},
    {"tak", true, 97, 352, "657c6d9150b60f12"},
    {"tak", true, 1000, 34, "1db12c33107b6df8"},
    {"tak", true, 4093, 8, "bfe6573907200d61"},
    {"ack", false, 97, 353, "644f609b92867cf9"},
    {"ack", false, 1000, 34, "ff342867c0b68345"},
    {"ack", false, 4093, 8, "7cd64fc79482c8ed"},
    {"ack", true, 97, 405, "eaa46cb5c5215b9b"},
    {"ack", true, 1000, 39, "360bda7e59941ab6"},
    {"ack", true, 4093, 9, "092f7f16862798dc"},
    {"build", false, 97, 124, "3cbdf710bdd014ac"},
    {"build", false, 1000, 12, "cfa49de77ca598b5"},
    {"build", false, 4093, 2, "46acc3658b8898e7"},
    {"build", true, 97, 148, "a86f9c430c058ac3"},
    {"build", true, 1000, 14, "80535b9c4ab98c9e"},
    {"build", true, 4093, 3, "04eef20c88ffc9ea"},
};
// clang-format on

const char *sourceOf(std::string_view Name) {
  return Name == "tak" ? kTak : Name == "ack" ? kAck : kBuild;
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

TEST(CurriedCheckpointTest, BytesMatchTheUnfusedSpinesAndResumeEverywhere) {
  std::vector<Backend> Writers = {Backend::VMRegister};
  std::vector<Backend> Readers = {Backend::VM, Backend::VMRegister};
  if (aotAvailable()) {
    Writers.push_back(Backend::VMAot);
    Readers.push_back(Backend::VMAot);
  }
  for (const PinnedRun &Pin : kPinned) {
    for (Backend W : Writers) {
      SCOPED_TRACE(std::string(Pin.Program) +
                   (Pin.Monitored ? " monitored" : "") + " every " +
                   std::to_string(Pin.Every) +
                   (W == Backend::VMAot ? " vm-aot" : " vm-reg"));
      // Each run parses afresh: monitored runs annotate the program.
      auto Mode = [&](Backend B, CallProfiler &Prof,
                      std::unique_ptr<ParsedProgram> &P) {
        P = parseOk(sourceOf(Pin.Program));
        const Expr *Root = P->root();
        EvalMode M = kStrict & BackendTag{B};
        if (Pin.Monitored) {
          AnnotateOptions AO;
          AO.Qualifier = Symbol::intern("profile");
          Root = annotateFunctionBodies(P->context(), Root, {}, AO);
          M = M & Prof;
        }
        return std::make_pair(M, Root);
      };
      CallProfiler Prof;
      std::unique_ptr<ParsedProgram> P;
      auto [M, Root] = Mode(W, Prof, P);
      std::vector<Checkpoint> CKs;
      RunResult Full = evaluate(
          M & checkpointInto([&](const Checkpoint &C) { CKs.push_back(C); }) &
              checkpointEveryNSteps(Pin.Every),
          Root);
      ASSERT_TRUE(Full.Ok) << Full.Error;
      // The innermost blocks, which the fused calls enter through copies.
      std::vector<uint32_t> Inner;
      auto CP = compileOk(Root);
      ASSERT_NE(CP, nullptr);
      for (const CodeBlock &B : CP->Blocks)
        if (B.CopyOf != kNoBlock)
          Inner.push_back(B.CopyOf);
      EXPECT_EQ(Inner.empty(), Pin.Monitored);
      std::string All;
      size_t InInnermost = 0;
      for (const Checkpoint &C : CKs) {
        const std::vector<uint8_t> &By = C.bytes();
        All += std::to_string(fnv1aHash(By.data(), By.size())) + ",";
        if (!Pin.Monitored)
          InInnermost += std::count(Inner.begin(), Inner.end(),
                                    topOf(C).first);
      }
      EXPECT_EQ(CKs.size(), Pin.Count);
      EXPECT_EQ(hex(fnv1aHash(All)), Pin.Digest);
      if (!Pin.Monitored) {
        EXPECT_GT(InInnermost * 2, CKs.size())
            << "most checkpoints are taken inside the innermost block";
      }
      // Resume a spread of them on every bytecode tier.
      for (size_t I = 0; I < CKs.size(); I += 1 + CKs.size() / 6) {
        for (Backend Rd : Readers) {
          CallProfiler RProf;
          std::unique_ptr<ParsedProgram> RP;
          auto [RM, RRoot] = Mode(Rd, RProf, RP);
          RunResult R =
              evaluate(RM & maxSteps(kBudget) & resumeFrom(CKs[I]), RRoot);
          ASSERT_TRUE(R.Ok) << R.Error;
          EXPECT_EQ(R.ValueText, Full.ValueText);
          EXPECT_EQ(R.Steps, Full.Steps);
          std::string A, B;
          for (const auto &S : R.FinalStates)
            A += S->str();
          for (const auto &S : Full.FinalStates)
            B += S->str();
          EXPECT_EQ(A, B);
        }
      }
    }
  }
}
