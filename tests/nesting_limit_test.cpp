//===- tests/nesting_limit_test.cpp - Nesting bounds, in process ----------===//
//
// Every phase after the lexer recurses on the syntax tree, so the parser
// bounds how deep a program may nest (syntax/Parser.h). These tests take
// each nesting shape to its bound — where the program must parse and run
// on every backend and through every tree pass — and one level past it,
// where the parser must answer with a diagnostic. Nothing may end on a
// signal; CI reruns this suite under `ulimit -s 8192` and unlimited.
//
//===----------------------------------------------------------------------===//

#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "interp/Eval.h"
#include "pe/PartialEval.h"
#include "syntax/Annotator.h"
#include "syntax/Printer.h"

#include "DeepPrograms.h"

#include <gtest/gtest.h>

using namespace monsem;
using monsem::testing::DeepShape;
using monsem::testing::deepShapes;
using monsem::testing::deepestAcceptedProgram;

TEST(NestingLimitTest, EveryShapePastItsBoundIsADiagnostic) {
  for (const DeepShape &S : deepShapes()) {
    auto P = ParsedProgram::parse(S.program(S.Bound + 1));
    ASSERT_FALSE(P->ok()) << S.Name;
    std::string Msg = P->diags().str();
    std::string Want = std::to_string(S.Bound);
    EXPECT_NE(Msg.find(Want), std::string::npos) << S.Name << ": " << Msg;
  }
}

TEST(NestingLimitTest, AtTheBoundEveryBackendRuns) {
  for (const DeepShape &S : deepShapes()) {
    auto P = ParsedProgram::parse(S.program(S.Bound));
    ASSERT_TRUE(P->ok()) << S.Name << ": " << P->diags().str();
    RunResult Ref = evaluate(P->root());
    ASSERT_EQ(Ref.St, Outcome::Ok) << S.Name << ": " << Ref.Error;
    for (BackendTag B : {kVM, kVMReg, kVMAot}) {
      RunResult R = evaluate(EvalMode(B), P->root());
      EXPECT_EQ(R.St, Outcome::Ok) << S.Name << ": " << R.Error;
      EXPECT_EQ(R.ValueText, Ref.ValueText) << S.Name;
    }
    // Direct nests on the C stack; its stack guard or call budget may
    // stop it, but never a signal, and a finished run agrees.
    RunResult D = evaluate(EvalMode(kDirect), P->root());
    EXPECT_TRUE(D.St == Outcome::Ok || D.stoppedByGovernor())
        << S.Name << ": " << outcomeName(D.St) << " " << D.Error;
    if (D.St == Outcome::Ok) {
      EXPECT_EQ(D.ValueText, Ref.ValueText) << S.Name;
    }
  }
}

TEST(NestingLimitTest, AtTheBoundEveryTreePassFinishes) {
  for (const DeepShape &S : deepShapes()) {
    auto P = ParsedProgram::parse(S.program(S.Bound));
    ASSERT_TRUE(P->ok()) << S.Name;
    EXPECT_FALSE(printExpr(P->root()).empty()) << S.Name;
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    EXPECT_NE(annotateFunctionBodies(P->context(), P->root(), {}, AO),
              nullptr)
        << S.Name;
    unsigned Points = 0;
    EXPECT_NE(labelProgramPoints(P->context(), P->root(), "p",
                                 Symbol::intern("cover"), &Points),
              nullptr)
        << S.Name;
    AstContext PECtx;
    PEResult PE = partialEvaluate(PECtx, P->root());
    ASSERT_NE(PE.Residual, nullptr) << S.Name;
    RunResult R = evaluate(EvalMode(kVMReg), PE.Residual);
    EXPECT_EQ(R.St, Outcome::Ok) << S.Name << ": " << R.Error;
  }
}

TEST(NestingLimitTest, DeepestAcceptedTreeRunsOnEveryCompiledBackend) {
  auto P = ParsedProgram::parse(deepestAcceptedProgram());
  ASSERT_TRUE(P->ok()) << P->diags().str();
  EXPECT_EQ(exprDepth(P->root()), kMaxSyntaxDepth);
  RunResult Ref = evaluate(P->root());
  ASSERT_EQ(Ref.St, Outcome::Ok) << Ref.Error;
  for (BackendTag B : {kVM, kVMReg, kVMAot}) {
    RunResult R = evaluate(EvalMode(B), P->root());
    EXPECT_EQ(R.St, Outcome::Ok) << R.Error;
    EXPECT_EQ(R.ValueText, Ref.ValueText);
  }
}

TEST(NestingLimitTest, ImpCommandsPastTheBoundAreADiagnostic) {
  for (unsigned Levels : {kMaxNestingDepth + 1, 100000u}) {
    ImpContext Ctx;
    DiagnosticSink Diags;
    EXPECT_EQ(parseImpProgram(Ctx, monsem::testing::deepImpProgram(Levels), Diags), nullptr);
    EXPECT_NE(Diags.str().find("nests deeper than " +
                               std::to_string(kMaxNestingDepth)),
              std::string::npos)
        << Diags.str();
  }
}

TEST(NestingLimitTest, ImpCommandsAtTheBoundRunUnderEveryImpMonitor) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *C = parseImpProgram(Ctx, monsem::testing::deepImpProgram(kMaxNestingDepth), Diags);
  ASSERT_NE(C, nullptr) << Diags.str();
  EXPECT_FALSE(printCmd(C).empty());
  ImpRunResult Plain = runImp(C);
  ASSERT_TRUE(Plain.Ok) << Plain.Error;
  EXPECT_EQ(Plain.Output, std::vector<std::string>{"1"});
  ImpStmtProfiler Prof;
  ImpWatchMonitor Watch("x");
  ImpTracer Trc;
  for (const ImpMonitor *M : {static_cast<const ImpMonitor *>(&Prof),
                              static_cast<const ImpMonitor *>(&Watch),
                              static_cast<const ImpMonitor *>(&Trc)}) {
    ImpCascade Cas;
    Cas.use(*M);
    ImpRunResult R = runImp(Cas, C);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, Plain.Output);
    EXPECT_EQ(R.Store, Plain.Store);
  }
}

TEST(NestingLimitTest, ImpLongSequenceRunsUnderEveryImpMonitor) {
  // 200,001 commands in one left-nested `;` chain: printing, stripping,
  // cascade validation and every monitored run walk it without recursing
  // down the chain.
  constexpr unsigned N = 100000;
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *C =
      parseImpProgram(Ctx, monsem::testing::longImpSequence(N), Diags);
  ASSERT_NE(C, nullptr) << Diags.str();
  EXPECT_EQ(printCmd(C), monsem::testing::longImpSequence(N));
  EXPECT_EQ(printCmd(stripCmdAnnotations(Ctx, C)), printCmd(C));
  ImpRunResult Plain = runImp(C);
  ASSERT_TRUE(Plain.Ok) << Plain.Error;
  ASSERT_EQ(Plain.Output.size(), N);
  EXPECT_EQ(Plain.Output.back(), std::to_string(N));
  ImpStmtProfiler Prof;
  ImpWatchMonitor Watch("x");
  ImpTracer Trc;
  for (const ImpMonitor *M : {static_cast<const ImpMonitor *>(&Prof),
                              static_cast<const ImpMonitor *>(&Watch),
                              static_cast<const ImpMonitor *>(&Trc)}) {
    ImpCascade Cas;
    Cas.use(*M);
    ImpRunResult R = runImp(Cas, C);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, Plain.Output);
    EXPECT_EQ(R.Store, Plain.Store);
  }
}
