//===- tests/fault_isolation_test.cpp - Monitor fault boundaries -----------===//
//
// Differential soundness under injected monitor faults: a cascade
// containing a misbehaving monitor (monitors/FaultInjector.h) must still
// produce the standard answer under the Quarantine and RetryThenQuarantine
// policies, on every evaluator (CEK in both environment representations
// and all three strategies, bytecode VM, direct CPS interpreter, and the
// imperative machine), and the monitors that did not fault must end with
// exactly the states of a fault-free monitored run. The Abort policy must
// turn the fault into an ordinary error answer.
//
// This is the quarantine-degenerates-to-G_obl argument (Definition 7.1)
// made executable: skipping a monitor's probes is the oblivious semantics,
// and Theorem 7.7 says the oblivious answer is the standard answer.
//
//===----------------------------------------------------------------------===//

#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/FaultInjector.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// fac 6 with one qualified probe for each of two monitors: the counting
/// profiler (which the injector wraps) and the call profiler (untouched).
const char *FacSrc =
    "letrec fac = lambda x. {count:A}: {profile:fac}: "
    "if x = 0 then 1 else x * fac (x - 1) in fac 6";

FaultInjector::Config throwAlways() {
  FaultInjector::Config C;
  C.M = FaultInjector::Mode::Throw;
  C.PerMille = 1000;
  return C;
}

/// A monitor whose pre hook throws on its first \p Fails probes, then
/// counts normally — the transient-failure shape RetryThenQuarantine is
/// for.
class FlakyMonitor : public Monitor {
public:
  explicit FlakyMonitor(unsigned Fails) : Fails(Fails) {}

  struct State : MonitorState {
    unsigned Attempts = 0;
    unsigned Counted = 0;
    std::string str() const override { return std::to_string(Counted); }
  };

  std::string_view name() const override { return "flaky"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<State>();
  }
  void pre(const MonitorEvent &, MonitorState &S) const override {
    auto &St = static_cast<State &>(S);
    if (St.Attempts++ < Fails)
      throw std::runtime_error("transient flake");
    ++St.Counted;
  }
  void post(const MonitorEvent &, Value, MonitorState &) const override {}

private:
  unsigned Fails;
};

/// An ImpMonitor whose pre hook always throws.
class ThrowingImpMonitor : public ImpMonitor {
public:
  struct State : MonitorState {
    std::string str() const override { return "<throwing>"; }
  };
  std::string_view name() const override { return "boom"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<State>();
  }
  void pre(const ImpMonitorEvent &, MonitorState &) const override {
    throw std::runtime_error("imp monitor fault");
  }
  void post(const ImpMonitorEvent &, MonitorState &) const override {}
};

} // namespace

//===----------------------------------------------------------------------===//
// Quarantine: the faulty run still produces the standard answer
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, QuarantinePreservesTheAnswerOnEveryMachineVariant) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  for (Strategy S :
       {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
    // The CEK machine and its reference, the Direct interpreter.
    for (BackendTag B : {kCEK, kDirect}) {
      EvalMode Mode = EvalMode(B) & StrategyTag{S} & maxSteps(500000);
      RunResult Std = evaluate(Mode, P->root());
      ASSERT_TRUE(Std.Ok) << Std.Error;

      // Fault-free monitored run, for the untouched monitor's state.
      Cascade Clean;
      Clean.use(Count).use(Prof);
      RunResult CleanR = evaluate(Mode & Count & Prof, P->root());
      ASSERT_TRUE(CleanR.Ok) << CleanR.Error;
      ASSERT_TRUE(CleanR.MonitorFaults.empty());

      RunResult Mon = evaluate(Mode & Inj & Prof, P->root());

      EXPECT_TRUE(Mon.sameOutcome(Std))
          << strategyName(S) << " backend=" << static_cast<int>(B.B)
          << ": std=" << Std.ValueText
          << " mon=" << (Mon.Ok ? Mon.ValueText : Mon.Error);
      EXPECT_EQ(Mon.IntValue, 720);

      // The injector faulted on its first probe and was quarantined.
      ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
      const MonitorFault &F = Mon.MonitorFaults[0];
      EXPECT_EQ(F.MonitorIndex, 0u);
      EXPECT_EQ(F.MonitorName, "count");
      EXPECT_EQ(F.Site, "{count:A}");
      EXPECT_FALSE(F.InPost);
      EXPECT_TRUE(F.Quarantined);
      EXPECT_NE(F.Message.find("injected fault"), std::string::npos);

      // The untouched monitor saw every one of its probes.
      ASSERT_EQ(Mon.FinalStates.size(), 2u);
      EXPECT_EQ(Mon.FinalStates[1]->str(), CleanR.FinalStates[1]->str());
      EXPECT_EQ(CallProfiler::state(*Mon.FinalStates[1]).count("fac"), 7u);
    }
  }
}

TEST(FaultIsolationTest, QuarantinePreservesTheAnswerOnTheVM) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  RunOptions Opts;
  RunResult Std = evaluate(P->root(), Opts);
  ASSERT_TRUE(Std.Ok) << Std.Error;

  Cascade Clean;
  Clean.use(Count).use(Prof);
  RunResult CleanR = evaluateCompiled(Clean, P->root(), Opts);
  ASSERT_TRUE(CleanR.Ok) << CleanR.Error;

  Cascade Faulty;
  Faulty.use(Inj).use(Prof);
  RunResult Mon = evaluateCompiled(Faulty, P->root(), Opts);
  EXPECT_TRUE(Mon.sameOutcome(Std))
      << "vm: " << (Mon.Ok ? Mon.ValueText : Mon.Error);
  ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
  EXPECT_TRUE(Mon.MonitorFaults[0].Quarantined);
  ASSERT_EQ(Mon.FinalStates.size(), 2u);
  EXPECT_EQ(Mon.FinalStates[1]->str(), CleanR.FinalStates[1]->str());
}

TEST(FaultIsolationTest, QuarantinePreservesTheAnswerOnTheDirectInterpreter) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  RunResult Std = runDirect(P->root());
  ASSERT_TRUE(Std.Ok) << Std.Error;

  Cascade Clean;
  Clean.use(Count).use(Prof);
  RunResult CleanR = runDirect(P->root(), &Clean);
  ASSERT_TRUE(CleanR.Ok) << CleanR.Error;

  Cascade Faulty;
  Faulty.use(Inj).use(Prof);
  DirectOptions Opts;
  RunResult Mon = runDirect(P->root(), &Faulty, Opts);
  EXPECT_TRUE(Mon.sameOutcome(Std))
      << "direct: " << (Mon.Ok ? Mon.ValueText : Mon.Error);
  ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
  EXPECT_EQ(Mon.MonitorFaults[0].MonitorName, "count");
  EXPECT_TRUE(Mon.MonitorFaults[0].Quarantined);
  ASSERT_EQ(Mon.FinalStates.size(), 2u);
  EXPECT_EQ(Mon.FinalStates[1]->str(), CleanR.FinalStates[1]->str());
}

//===----------------------------------------------------------------------===//
// Abort policy
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, AbortPolicyTurnsTheFaultIntoAnError) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());
  Cascade Faulty;
  Faulty.use(Inj).use(Prof);

  RunOptions Opts;
  Opts.MonitorFaultPolicy = FaultPolicy::Abort;
  RunResult R = evaluate(Faulty & onMonitorFault(FaultPolicy::Abort),
                         P->root());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("monitor 'count'"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("injected fault"), std::string::npos) << R.Error;
  ASSERT_EQ(R.MonitorFaults.size(), 1u);
  EXPECT_FALSE(R.MonitorFaults[0].Quarantined);

  // Same on the VM.
  RunResult V = evaluateCompiled(Faulty, P->root(), Opts);
  EXPECT_EQ(V.St, Outcome::Error);
  EXPECT_NE(V.Error.find("monitor 'count'"), std::string::npos) << V.Error;

  // Same on the direct interpreter.
  DirectOptions DOpts;
  DOpts.MonitorFaultPolicy = FaultPolicy::Abort;
  RunResult D = runDirect(P->root(), &Faulty, DOpts);
  EXPECT_EQ(D.St, Outcome::Error);
  EXPECT_NE(D.Error.find("monitor 'count'"), std::string::npos) << D.Error;
}

TEST(FaultIsolationTest, PerMonitorPolicyOverridesTheRunWideDefault) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  // Run-wide default stays Quarantine; the injector alone is marked Abort.
  Cascade Faulty;
  Faulty.use(Inj, FaultPolicy::Abort).use(Prof);
  RunResult R = evaluate(EvalMode(Faulty), P->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("monitor 'count'"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// RetryThenQuarantine
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, RetrySurvivesTransientFaultsWithoutQuarantine) {
  // Bare annotation: qualified ones would route past the flaky monitor.
  auto P = parseOk("letrec fac = lambda x. {step}: "
                   "if x = 0 then 1 else x * fac (x - 1) in fac 6");
  FlakyMonitor Flaky(/*Fails=*/2);
  Cascade C;
  C.use(Flaky);

  RunResult Std = evaluate(P->root(), RunOptions());
  RunResult R = evaluate(
      C & onMonitorFault(FaultPolicy::RetryThenQuarantine, 3), P->root());
  EXPECT_TRUE(R.sameOutcome(Std)) << (R.Ok ? R.ValueText : R.Error);

  // Two transient faults recorded, neither tripped quarantine, and the
  // hook eventually ran for all 7 probes.
  ASSERT_EQ(R.MonitorFaults.size(), 2u);
  EXPECT_FALSE(R.MonitorFaults[0].Quarantined);
  EXPECT_FALSE(R.MonitorFaults[1].Quarantined);
  ASSERT_EQ(R.FinalStates.size(), 1u);
  EXPECT_EQ(R.FinalStates[0]->str(), "7");
}

TEST(FaultIsolationTest, RetryBudgetExhaustionQuarantines) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  FaultInjector Inj(Count, throwAlways()); // Never stops throwing.
  Cascade C;
  C.use(Inj);

  RunResult Std = evaluate(P->root(), RunOptions());
  RunResult R = evaluate(
      C & onMonitorFault(FaultPolicy::RetryThenQuarantine, 2), P->root());
  EXPECT_TRUE(R.sameOutcome(Std)) << (R.Ok ? R.ValueText : R.Error);

  // Budget 2: two retried faults, then the third quarantines.
  ASSERT_EQ(R.MonitorFaults.size(), 3u);
  EXPECT_FALSE(R.MonitorFaults[0].Quarantined);
  EXPECT_FALSE(R.MonitorFaults[1].Quarantined);
  EXPECT_TRUE(R.MonitorFaults[2].Quarantined);
}

//===----------------------------------------------------------------------===//
// Imperative machine
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, ImpCommandMonitorFaultsAreQuarantined) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx, "x := 0; while x < 5 do {tick}: x := x + 1 end; print x", Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();

  ImpRunResult Std = runImp(Prog);
  ASSERT_TRUE(Std.Ok) << Std.Error;

  ThrowingImpMonitor Boom;
  ImpCascade C;
  C.use(Boom);
  ImpRunResult Mon = runImp(C, Prog);
  EXPECT_TRUE(Mon.sameOutcome(Std))
      << (Mon.Ok ? "ok" : Mon.Error);
  ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
  EXPECT_EQ(Mon.MonitorFaults[0].MonitorName, "boom");
  EXPECT_EQ(Mon.MonitorFaults[0].Site, "{tick}");
  EXPECT_TRUE(Mon.MonitorFaults[0].Quarantined);

  // Abort policy: the same fault ends the run with an error.
  ImpRunOptions Opts;
  Opts.MonitorFaultPolicy = FaultPolicy::Abort;
  ImpRunResult Ab = runImp(C, Prog, Opts);
  EXPECT_FALSE(Ab.Ok);
  EXPECT_EQ(Ab.St, Outcome::Error);
  EXPECT_NE(Ab.Error.find("monitor 'boom'"), std::string::npos) << Ab.Error;
}

//===----------------------------------------------------------------------===//
// Fault sites: the annotation text is rendered only when a hook faults, and
// it reads the same on every evaluator
//===----------------------------------------------------------------------===//

namespace {

const BackendTag EveryLambdaEvaluator[] = {kCEK, kVM, kVMReg, kVMAot,
                                           kDirect};

const char *evaluatorName(Backend B) {
  switch (B) {
  case Backend::CEK:
    return "cek";
  case Backend::VM:
    return "vm";
  case Backend::VMRegister:
    return "vm-reg";
  case Backend::VMAot:
    return "vm-aot";
  case Backend::Direct:
    return "direct";
  }
  return "?";
}

/// "monitor 'NAME' fault in SIDE at SITE (step " — MonitorFault::str()
/// up to the evaluator-specific step count.
std::string faultPrefix(std::string_view Name, bool InPost,
                        std::string_view Site) {
  return "monitor '" + std::string(Name) + "' fault in " +
         (InPost ? "post" : "pre") + " at " + std::string(Site) + " (step ";
}

} // namespace

TEST(FaultIsolationTest, FaultSiteIsRenderedOnEveryEvaluator) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  for (bool InPost : {false, true}) {
    FaultInjector::Config Cfg = throwAlways();
    Cfg.InPre = !InPost;
    Cfg.InPost = InPost;
    FaultInjector Inj(Count, Cfg);
    for (BackendTag B : EveryLambdaEvaluator) {
      SCOPED_TRACE(std::string(evaluatorName(B.B)) +
                   (InPost ? " post" : " pre"));
      RunResult R = evaluate(EvalMode(B) & Inj & Prof, P->root());
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.IntValue, 720);
      ASSERT_EQ(R.MonitorFaults.size(), 1u);
      const MonitorFault &F = R.MonitorFaults[0];
      EXPECT_EQ(F.Site, "{count:A}");
      EXPECT_EQ(F.InPost, InPost);
      EXPECT_TRUE(F.Quarantined);
      EXPECT_EQ(F.str().rfind(faultPrefix("count", InPost, "{count:A}"), 0),
                0u)
          << F.str();
    }
  }
}

TEST(FaultIsolationTest, RetriedFaultsEachRenderTheSite) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  FaultInjector Inj(Count, throwAlways());
  for (BackendTag B : EveryLambdaEvaluator) {
    SCOPED_TRACE(evaluatorName(B.B));
    RunResult R = evaluate(
        EvalMode(B) & Inj & onMonitorFault(FaultPolicy::RetryThenQuarantine, 2),
        P->root());
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_EQ(R.MonitorFaults.size(), 3u);
    for (size_t I = 0; I < 3; ++I) {
      const MonitorFault &F = R.MonitorFaults[I];
      EXPECT_EQ(F.Site, "{count:A}") << I;
      EXPECT_FALSE(F.InPost) << I;
      EXPECT_EQ(F.Quarantined, I == 2) << I;
    }
  }
}

TEST(FaultIsolationTest, QualifiedSiteWithParametersIsRenderedInFull) {
  // The injector wraps a tracer, so the faulting monitor is 'trace' and
  // its probe is a qualified function header.
  auto P = parseOk("letrec f = lambda x. lambda y. {trace:f(x, y)}: x + y "
                   "in f 1 2");
  Tracer T;
  FaultInjector Inj(T, throwAlways());
  for (BackendTag B : EveryLambdaEvaluator) {
    SCOPED_TRACE(evaluatorName(B.B));
    RunResult R = evaluate(EvalMode(B) & Inj, P->root());
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.IntValue, 3);
    ASSERT_EQ(R.MonitorFaults.size(), 1u);
    EXPECT_EQ(R.MonitorFaults[0].MonitorName, "trace");
    EXPECT_EQ(R.MonitorFaults[0].Site, "{trace:f(x, y)}");
    EXPECT_EQ(R.MonitorFaults[0].str().rfind(
                  faultPrefix("trace", false, "{trace:f(x, y)}"), 0),
              0u)
        << R.MonitorFaults[0].str();
  }
}

TEST(FaultIsolationTest, ImpFaultSitesAreRendered) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx,
      "x := 0; while x < 5 do {boom:tock}: x := x + 1; {tick}: x := x end",
      Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  ThrowingImpMonitor Boom;
  ImpCascade C;
  C.use(Boom);

  ImpRunResult Q = runImp(C, Prog);
  ASSERT_TRUE(Q.Ok) << Q.Error;
  ASSERT_EQ(Q.MonitorFaults.size(), 1u);
  EXPECT_EQ(Q.MonitorFaults[0].Site, "{boom:tock}");
  EXPECT_EQ(Q.MonitorFaults[0].str().rfind(
                faultPrefix("boom", false, "{boom:tock}"), 0),
            0u)
      << Q.MonitorFaults[0].str();

  // Retry with a budget of 2: the two retried faults and the quarantining
  // one each render the site.
  ImpRunOptions Opts;
  Opts.MonitorFaultPolicy = FaultPolicy::RetryThenQuarantine;
  Opts.MonitorRetryBudget = 2;
  ImpRunResult R = runImp(C, Prog, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.MonitorFaults.size(), 3u);
  for (const MonitorFault &F : R.MonitorFaults)
    EXPECT_EQ(F.Site, "{boom:tock}");
  EXPECT_TRUE(R.MonitorFaults[2].Quarantined);
}

//===----------------------------------------------------------------------===//
// Injector transparency
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, InjectorAtRateZeroIsInvisible) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  FaultInjector::Config Cfg = throwAlways();
  Cfg.PerMille = 0; // Never faults: forwards every probe.
  FaultInjector Inj(Count, Cfg);

  Cascade Clean, Wrapped;
  Clean.use(Count);
  Wrapped.use(Inj);
  RunResult A = evaluate(EvalMode(Clean), P->root());
  RunResult B = evaluate(EvalMode(Wrapped), P->root());
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_TRUE(B.MonitorFaults.empty());
  ASSERT_EQ(A.FinalStates.size(), 1u);
  ASSERT_EQ(B.FinalStates.size(), 1u);
  EXPECT_EQ(A.FinalStates[0]->str(), B.FinalStates[0]->str());
}
