//===- tests/aot_liveness_test.cpp - Dead letrec binders skip native code --===//
//
// compileProgram marks every lambda inside the bound expression of a letrec
// whose binder no live code refers to with CodeBlock::Live = false, and the
// native tier emits C only for live leaf blocks. These tests pin down which
// binders the pass calls dead (transitively dead callees, self-recursion,
// shadowing, references under annotations and from live lambdas), that a
// corpus program which names no prelude function emits the same blocks with
// and without `--prelude`, and that the flag only filters emission: a block
// wrongly marked dead still runs, interpreted, with the same answer, steps
// and probe stream.
//
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "syntax/Prelude.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <vector>

#ifndef MONSEM_SOURCE_DIR
#error "MONSEM_SOURCE_DIR must be defined by the build"
#endif

using namespace monsem;

namespace {

struct Compiled {
  std::unique_ptr<ParsedProgram> P;
  const Expr *Root = nullptr;
  std::unique_ptr<CompiledProgram> CP;
};

Compiled compile(std::string_view Src, bool Prelude = false) {
  Compiled C;
  C.P = ParsedProgram::parse(Src);
  EXPECT_TRUE(C.P->ok()) << C.P->diags().str();
  if (!C.P->ok())
    return C;
  C.Root = C.P->root();
  DiagnosticSink D;
  if (Prelude)
    C.Root = wrapWithPrelude(C.P->context(), C.Root, D);
  if (C.Root)
    C.CP = compileProgram(C.Root, D);
  EXPECT_NE(C.CP, nullptr) << D.str();
  return C;
}

/// Calls \p F on every node of \p E in the compiler's emission order: a
/// letrec compiles its bound before its body, an application its operand
/// before its operator, and a lambda's block is allocated before its body
/// is compiled.
template <typename Fn> void walk(const Expr *E, Fn &&F) {
  F(E);
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Var:
    return;
  case ExprKind::Lam:
    walk(cast<LamExpr>(E)->Body, F);
    return;
  case ExprKind::If:
    walk(cast<IfExpr>(E)->Cond, F);
    walk(cast<IfExpr>(E)->Then, F);
    walk(cast<IfExpr>(E)->Else, F);
    return;
  case ExprKind::App:
    walk(cast<AppExpr>(E)->Arg, F);
    walk(cast<AppExpr>(E)->Fn, F);
    return;
  case ExprKind::Letrec:
    walk(cast<LetrecExpr>(E)->Bound, F);
    walk(cast<LetrecExpr>(E)->Body, F);
    return;
  case ExprKind::Prim1:
    walk(cast<Prim1Expr>(E)->Arg, F);
    return;
  case ExprKind::Prim2:
    walk(cast<Prim2Expr>(E)->Lhs, F);
    walk(cast<Prim2Expr>(E)->Rhs, F);
    return;
  case ExprKind::Annot:
    walk(cast<AnnotExpr>(E)->Inner, F);
    return;
  }
}

/// Block index of every lambda under \p E, numbered as the compiler
/// numbers them when \p E is the whole program (block 0 is the entry).
std::map<const LamExpr *, uint32_t> numberLambdas(const Expr *E) {
  std::map<const LamExpr *, uint32_t> Out;
  walk(E, [&Out](const Expr *N) {
    if (const auto *L = dyn_cast<LamExpr>(N)) {
      uint32_t Index = static_cast<uint32_t>(Out.size()) + 1;
      Out[L] = Index;
    }
  });
  return Out;
}

/// Every letrec binding \p Name, in emission order.
std::vector<const LetrecExpr *> findLetrecs(const Expr *E,
                                            std::string_view Name) {
  std::vector<const LetrecExpr *> Out;
  walk(E, [&](const Expr *N) {
    if (const auto *L = dyn_cast<LetrecExpr>(N); L && L->Name.str() == Name)
      Out.push_back(L);
  });
  return Out;
}

/// CodeBlock::Live of every block compiled from the bound expressions of
/// the letrecs binding \p Name: one entry per letrec, holding "live",
/// "dead", or "mixed" when the bound's blocks disagree.
std::vector<std::string> boundLiveness(const Compiled &C,
                                       std::string_view Name) {
  std::map<const LamExpr *, uint32_t> Index = numberLambdas(C.Root);
  std::vector<std::string> Out;
  for (const LetrecExpr *L : findLetrecs(C.Root, Name)) {
    std::map<const LamExpr *, uint32_t> Inner = numberLambdas(L->Bound);
    EXPECT_FALSE(Inner.empty()) << Name << " binds no lambda";
    size_t Live = 0;
    for (const auto &[Lam, Unused] : Inner)
      Live += C.CP->Blocks[Index.at(Lam)].Live;
    Out.push_back(Live == Inner.size() ? "live"
                  : Live == 0          ? "dead"
                                       : "mixed");
  }
  return Out;
}

using Flags = std::vector<std::string>;

TEST(AotLiveness, BinderNamedOnlyByADeadBinderIsDead) {
  // The prelude's `sum` is the only caller of `foldl` besides `product`,
  // `all` and `any`: with none of them named, `foldl` is dead too.
  Compiled Unused = compile("1 + 2", /*Prelude=*/true);
  EXPECT_EQ(boundLiveness(Unused, "sum"), Flags{"dead"});
  EXPECT_EQ(boundLiveness(Unused, "foldl"), Flags{"dead"});
  for (const CodeBlock &B : Unused.CP->Blocks)
    EXPECT_EQ(B.Live, &B == &Unused.CP->Blocks[0]) << B.Name;

  Compiled Used = compile("sum [1, 2, 3]", /*Prelude=*/true);
  EXPECT_EQ(boundLiveness(Used, "sum"), Flags{"live"});
  EXPECT_EQ(boundLiveness(Used, "foldl"), Flags{"live"});
  EXPECT_EQ(boundLiveness(Used, "product"), Flags{"dead"});
  EXPECT_EQ(boundLiveness(Used, "map"), Flags{"dead"});
}

TEST(AotLiveness, SelfRecursionAloneKeepsNothingLive) {
  Compiled C = compile("letrec loop = lambda n. loop (n + 1) in "
                       "letrec down = lambda n. if n < 1 then 0 "
                       "else down (n - 1) in down 3");
  EXPECT_EQ(boundLiveness(C, "loop"), Flags{"dead"});
  EXPECT_EQ(boundLiveness(C, "down"), Flags{"live"});
}

TEST(AotLiveness, ShadowedBinderIsDead) {
  // The inner `f` shadows the outer one: the body's `f` is the inner one,
  // and the inner bound names only itself.
  Compiled C = compile("letrec f = lambda x. x + 1 in "
                       "letrec f = lambda y. if y < 1 then 0 else f (y - 1) "
                       "in f 3");
  EXPECT_EQ(boundLiveness(C, "f"), (Flags{"dead", "live"}));

  // A lambda parameter shadows just the same.
  Compiled P = compile("letrec g = lambda x. x in (lambda g. g + 1) 2");
  EXPECT_EQ(boundLiveness(P, "g"), Flags{"dead"});
}

TEST(AotLiveness, ReferenceUnderAnnotationKeepsBinderLive) {
  Compiled C = compile("letrec f = lambda x. x * 2 in {probe}: f 4");
  EXPECT_EQ(boundLiveness(C, "f"), Flags{"live"});
}

TEST(AotLiveness, ReferenceFromLiveLambdaKeepsBinderLive) {
  Compiled C = compile("letrec f = lambda x. x * 2 in "
                       "letrec g = lambda y. f (y + 1) in "
                       "letrec h = lambda z. f z in g 4");
  EXPECT_EQ(boundLiveness(C, "f"), Flags{"live"});
  EXPECT_EQ(boundLiveness(C, "g"), Flags{"live"});
  EXPECT_EQ(boundLiveness(C, "h"), Flags{"dead"});

  // A binder named only from an anonymous lambda that the body applies.
  Compiled A = compile("letrec f = lambda x. x in (lambda y. f y) 3");
  EXPECT_EQ(boundLiveness(A, "f"), Flags{"live"});
}

TEST(AotLiveness, DeadBindersStillRun) {
  // Dead only means "no native code": the bound is still evaluated, so a
  // dead binder's failing bound still fails, on every backend.
  for (Backend B : {Backend::VM, Backend::VMRegister, Backend::VMAot}) {
    auto P = ParsedProgram::parse(
        "letrec x = (lambda y. y / 0) 1 in 5");
    ASSERT_TRUE(P->ok());
    RunResult R = evaluate(kStrict & BackendTag{B}, P->root());
    EXPECT_FALSE(R.Ok) << "backend " << static_cast<int>(B);
  }
}

/// Register-form opcodes and costs of every block the native tier emits,
/// in block order, one line per block.
std::string emittedBlocks(const RegProgram &RP) {
  std::string Src = aotEmitSource(RP);
  static const std::regex Fn("uint64_t monsem_aot_b([0-9]+)\\(MonsemAotCtx");
  std::string Out;
  for (std::sregex_iterator I(Src.begin(), Src.end(), Fn), E; I != E; ++I) {
    const CodeBlock &B = RP.Blocks[std::stoul((*I)[1].str())];
    Out += B.Name + ":";
    for (const RInstr &In : B.Code)
      Out += " " + std::to_string(static_cast<int>(In.Code)) + "/" +
             std::to_string(In.Cost);
    Out += "\n";
  }
  return Out;
}

TEST(AotLiveness, CorpusEmitsTheSameBlocksWithAndWithoutPrelude) {
  namespace fs = std::filesystem;
  size_t Checked = 0, Emitting = 0;
  for (const auto &Entry :
       fs::directory_iterator(std::string(MONSEM_SOURCE_DIR) +
                              "/examples/programs")) {
    if (Entry.path().extension() != ".lam")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Src = SS.str();
    // A program that compiles without the prelude names none of it.
    {
      auto P = ParsedProgram::parse(Src);
      DiagnosticSink D;
      if (!P->ok() || !compileProgram(P->root(), D))
        continue;
    }
    Compiled Bare = compile(Src), Wrapped = compile(Src, /*Prelude=*/true);
    ASSERT_TRUE(Bare.CP && Wrapped.CP) << Entry.path();
    auto BareRP = lowerToRegisters(*Bare.CP);
    auto WrappedRP = lowerToRegisters(*Wrapped.CP);
    ASSERT_TRUE(BareRP && WrappedRP);
    std::string Want = emittedBlocks(*BareRP);
    EXPECT_EQ(emittedBlocks(*WrappedRP), Want) << Entry.path();
    ++Checked;
    Emitting += !Want.empty();
  }
  EXPECT_GE(Checked, 8u);
  EXPECT_GE(Emitting, 6u); // Not vacuous: most of them emit native code.
}

using Stream = std::vector<std::pair<uint64_t, std::string>>;

/// Runs \p RP natively (\p Lib) or on the register interpreter under a
/// call profiler, recording the probe stream.
RunResult runProfiled(const RegProgram &RP, const AotLibrary *Lib,
                      Stream &Events) {
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunOptions Opts;
  RuntimeCascade RC(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
  EventTapHooks Tap(RC, [&Events](uint64_t Step, const std::string &T) {
    Events.emplace_back(Step, T);
  });
  RunResult R = Lib ? runAotProgram(RP, *Lib, &Tap, Opts)
                    : runRegisterProgram(RP, &Tap, Opts);
  R.FinalStates = RC.takeStates();
  return R;
}

TEST(AotLiveness, WronglyDeadBlockRunsInterpretedWithSameObservables) {
  if (!aotAvailable())
    GTEST_SKIP() << "no C compiler; native tier degrades to vm-reg";
  Compiled C = compile("letrec down = lambda n. if n < 1 then 0 "
                       "else down (n - 1) in "
                       "letrec main = lambda u. {main}: down u + 1 in "
                       "main 300");
  ASSERT_TRUE(C.CP);
  std::vector<const LetrecExpr *> Down = findLetrecs(C.Root, "down");
  ASSERT_EQ(Down.size(), 1u);
  const uint32_t Hot =
      numberLambdas(C.Root).at(cast<LamExpr>(Down[0]->Bound));

  auto RP = lowerToRegisters(*C.CP);
  ASSERT_TRUE(RP);
  ASSERT_TRUE(RP->Blocks[Hot].Leaf && RP->Blocks[Hot].Live);
  Stream WantEvents;
  RunResult Want = runProfiled(*RP, nullptr, WantEvents);
  ASSERT_TRUE(Want.Ok) << Want.Error;
  ASSERT_FALSE(WantEvents.empty());

  for (bool ForceDead : {false, true}) {
    C.CP->Blocks[Hot].Live = !ForceDead;
    std::string Why;
    auto Lib = aotLoad(*RP, /*CacheDir=*/"", &Why);
    ASSERT_NE(Lib, nullptr) << Why;
    // The flag really decides emission: the hot loop is native only when
    // it is live.
    EXPECT_EQ(Lib->fns()[Hot] != nullptr, !ForceDead);
    Stream Events;
    RunResult R = runProfiled(*RP, Lib.get(), Events);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ValueText, Want.ValueText);
    EXPECT_EQ(R.Steps, Want.Steps);
    EXPECT_EQ(Events, WantEvents);
    ASSERT_EQ(R.FinalStates.size(), Want.FinalStates.size());
    for (size_t I = 0; I < R.FinalStates.size(); ++I)
      EXPECT_EQ(R.FinalStates[I]->str(), Want.FinalStates[I]->str());
  }
}

} // namespace
