//===- tests/monitor_golden_test.cpp - Byte-exact toolbox output ----------===//
//
// Golden tests for what the toolbox monitors render and save. Each final
// state's str() and save() bytes are compared with strings committed here,
// so a change to how a monitor builds its keys, lines or tables (e.g. to
// keep pre/post from allocating) cannot change a byte of its output or of
// the checkpoints that carry it.
//
//===----------------------------------------------------------------------===//

#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "interp/Eval.h"
#include "monitors/AllocProfiler.h"
#include "monitors/CallGraph.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"
#include "syntax/Annotator.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// Lower-case hex of \p S's save() bytes.
std::string savedHex(const MonitorState &S) {
  Serializer Out;
  S.save(Out);
  static const char *Digits = "0123456789abcdef";
  std::string Hex;
  for (uint8_t B : Out.bytes()) {
    Hex += Digits[B >> 4];
    Hex += Digits[B & 15];
  }
  return Hex;
}

/// Three functions, one with a name longer than a short-string buffer, so
/// the tables hold both short and heap-allocated keys.
const char *CallsSrc =
    "letrec add = lambda a. lambda b. a + b in "
    "letrec fib = lambda n. if n < 2 then n else "
    "add (fib (n - 1)) (fib (n - 2)) in "
    "letrec a_function_with_a_long_name = lambda n. fib n in "
    "a_function_with_a_long_name 4";

/// CallsSrc with every function body annotated `{f}`, run to the end and
/// cut by fuel partway (so cost and callgraph save open probes too).
struct Runs {
  std::unique_ptr<ParsedProgram> P = parseOk(CallsSrc);
  const Expr *Root = annotateFunctionBodies(P->context(), P->root(), {});

  RunResult run(const Monitor &M, uint64_t MaxSteps = 0) const {
    EvalMode Mode(M);
    if (MaxSteps)
      Mode = Mode & maxSteps(MaxSteps);
    return evaluate(Mode, Root);
  }
};

/// A context with no inner monitors, for driving hooks by hand.
class NoInner : public MonitorContext {
public:
  unsigned numInnerMonitors() const override { return 0; }
  const MonitorState &innerState(unsigned) const override { std::abort(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Profile, cost, callgraph, coverage
//===----------------------------------------------------------------------===//

TEST(MonitorGoldenTest, CallProfiler) {
  Runs Rs;
  CallProfiler M;
  RunResult R = Rs.run(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 3);
  EXPECT_EQ(R.FinalStates[0]->str(),
            "[a_function_with_a_long_name -> 1, add -> 4, fib -> 9]");
  EXPECT_EQ(savedHex(*R.FinalStates[0]),
            "030000001b000000615f66756e6374696f6e5f776974685f615f6c6f6e675f6e61"
            "6d6501000000000000000300000061646404000000000000000300000066696209"
            "00000000000000");
}

TEST(MonitorGoldenTest, CostProfiler) {
  Runs Rs;
  CostProfiler M;
  RunResult R = Rs.run(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FinalStates[0]->str(),
            "[a_function_with_a_long_name: calls=1 total=224 avg=224, "
            "add: calls=4 total=24 avg=6, fib: calls=9 total=497 avg=55]");
  EXPECT_EQ(savedHex(*R.FinalStates[0]),
            "030000001b000000615f66756e6374696f6e5f776974685f615f6c6f6e675f6e61"
            "6d650100000000000000e000000000000000e000000000000000e0000000000000"
            "000300000061646404000000000000001800000000000000060000000000000006"
            "00000000000000030000006669620900000000000000f101000000000000090000"
            "0000000000d90000000000000000000000");

  RunResult Cut = Rs.run(M, 60);
  ASSERT_TRUE(Cut.FuelExhausted);
  EXPECT_FALSE(CostProfiler::state(*Cut.FinalStates[0]).Stack.empty());
  EXPECT_EQ(Cut.FinalStates[0]->str(), "[]");
  EXPECT_EQ(savedHex(*Cut.FinalStates[0]),
            "00000000040000001b000000615f66756e6374696f6e5f776974685f615f6c6f6e"
            "675f6e616d650f0000000000000003000000666962150000000000000003000000"
            "6669622700000000000000030000006669623900000000000000");
}

TEST(MonitorGoldenTest, CallGraph) {
  Runs Rs;
  CallGraphMonitor M;
  RunResult R = Rs.run(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FinalStates[0]->str(),
            "<root> -> a_function_with_a_long_name: 1, "
            "a_function_with_a_long_name -> fib: 1, fib -> add: 4, "
            "fib -> fib: 8");
  EXPECT_EQ(savedHex(*R.FinalStates[0]),
            "04000000060000003c726f6f743e1b000000615f66756e6374696f6e5f77697468"
            "5f615f6c6f6e675f6e616d6501000000000000001b000000615f66756e6374696f"
            "6e5f776974685f615f6c6f6e675f6e616d65030000006669620100000000000000"
            "030000006669620300000061646404000000000000000300000066696203000000"
            "666962080000000000000000000000");
  const auto &S = CallGraphMonitor::state(*R.FinalStates[0]);
  EXPECT_EQ(S.edge("<root>", "a_function_with_a_long_name"), 1u);
  EXPECT_EQ(S.edge("a_function_with_a_long_name", "fib"), 1u);

  RunResult Cut = Rs.run(M, 60);
  ASSERT_TRUE(Cut.FuelExhausted);
  EXPECT_FALSE(CallGraphMonitor::state(*Cut.FinalStates[0]).Stack.empty());
  EXPECT_EQ(Cut.FinalStates[0]->str(),
            "<root> -> a_function_with_a_long_name: 1, "
            "a_function_with_a_long_name -> fib: 1, fib -> fib: 2");
  EXPECT_EQ(savedHex(*Cut.FinalStates[0]),
            "03000000060000003c726f6f743e1b000000615f66756e6374696f6e5f77697468"
            "5f615f6c6f6e675f6e616d6501000000000000001b000000615f66756e6374696f"
            "6e5f776974685f615f6c6f6e675f6e616d65030000006669620100000000000000"
            "03000000666962030000006669620200000000000000040000001b000000615f66"
            "756e6374696f6e5f776974685f615f6c6f6e675f6e616d65030000006669620300"
            "000066696203000000666962");
}

TEST(MonitorGoldenTest, Coverage) {
  auto P = parseOk(CallsSrc);
  unsigned Points = 0;
  const Expr *Root = labelProgramPoints(P->context(), P->root(), "p",
                                        Symbol::intern("cover"), &Points);
  CoverageMonitor M(Points);
  RunResult R = evaluate(EvalMode(M), Root);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FinalStates[0]->str(), "6/6 points hit (18 events)");
  EXPECT_EQ(savedHex(*R.FinalStates[0]),
            "060000000200000070300200000070310200000070320200000070330200000070"
            "34020000007035120000000000000006000000");
}

//===----------------------------------------------------------------------===//
// AllocProfiler: hooks driven by hand, so the byte counts are exact on
// either Value representation.
//===----------------------------------------------------------------------===//

TEST(MonitorGoldenTest, AllocProfiler) {
  auto P = parseOk("0");
  Annotation Outer, Long;
  Outer.Head = Symbol::intern("outer");
  Long.Head = Symbol::intern("a_label_longer_than_sso");
  NoInner Ctx;
  auto Ev = [&](const Annotation &A, uint64_t Bytes) {
    return MonitorEvent{A, *P->root(), EnvView(nullptr), 0, Bytes, Ctx};
  };

  AllocProfiler M;
  auto S = M.initialState();
  M.pre(Ev(Outer, 100), *S);
  M.pre(Ev(Long, 150), *S);
  M.post(Ev(Long, 400), Value::mkInt(0), *S);
  M.pre(Ev(Long, 400), *S);
  M.post(Ev(Long, 420), Value::mkInt(0), *S);
  M.post(Ev(Outer, 1000), Value::mkInt(0), *S);
  M.pre(Ev(Outer, 1000), *S); // Left open: saved on the stack.
  EXPECT_EQ(S->str(),
            "[a_label_longer_than_sso: calls=2 bytes=270, "
            "outer: calls=1 bytes=900]");
  EXPECT_EQ(savedHex(*S),
            "0200000017000000615f6c6162656c5f6c6f6e6765725f7468616e5f73736f0200"
            "0000000000000e01000000000000fa00000000000000050000006f757465720100"
            "0000000000008403000000000000840300000000000001000000050000006f7574"
            "6572e803000000000000");
}

//===----------------------------------------------------------------------===//
// Imp statement profiler
//===----------------------------------------------------------------------===//

TEST(MonitorGoldenTest, ImpStmtProfiler) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx,
      "n := 3; while n > 0 do {body}: n := n - 1; "
      "{a_label_longer_than_sso}: print n end",
      Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  ImpStmtProfiler M;
  ImpCascade C;
  C.use(M);
  ImpRunResult R = runImp(C, Prog);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FinalStates[0]->str(),
            "[a_label_longer_than_sso -> 3, body -> 3]");
  EXPECT_EQ(savedHex(*R.FinalStates[0]), "");
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

/// f recurses 205 levels deep, passing a list with a negative int, an int
/// outside the 48-bit inline range and INT64_MIN, and names a parameter
/// that is never bound (`zz`, rendered `?`).
TEST(MonitorGoldenTest, TracerLinesAtDepth) {
  auto P = parseOk(
      "letrec f = lambda n. lambda l. {f(n, l, "
      "zz)}: if n = 0 then l else f (n - 1) l in f 205 [1, 0 - 2, "
      "9007199254740993, 0 - 9223372036854775807 - 1]");
  const std::string List =
      "[1, -2, 9007199254740993, -9223372036854775808]";
  const int Depth = 206;
  std::vector<std::string> Want;
  for (int I = 0; I < Depth; ++I)
    Want.push_back(std::string(5 * I, ' ') + "[F receives (" +
                   std::to_string(Depth - 1 - I) + " " + List + " ?)]");
  for (int I = Depth; I-- > 0;)
    Want.push_back(std::string(5 * I, ' ') + "[F returns " + List + "]");

  for (BackendTag B : {kCEK, kVM, kVMReg}) {
    SCOPED_TRACE(static_cast<int>(B.B));
    Tracer M;
    RunResult R = evaluate(EvalMode(M) & B, P->root());
    ASSERT_TRUE(R.Ok) << R.Error;
    const auto &S = Tracer::state(*R.FinalStates[0]);
    EXPECT_EQ(S.Chan.lines(), Want);
    EXPECT_EQ(S.Level, 0);
    // The whole rendering and checkpoint image, as FNV-1a digests.
    auto Fnv = [](std::string_view Bytes) {
      uint64_t H = 0xcbf29ce484222325ull;
      for (unsigned char C : Bytes)
        H = (H ^ C) * 0x100000001b3ull;
      return H;
    };
    EXPECT_EQ(Fnv(S.str()),
            1059779080341296872ull);
    EXPECT_EQ(Fnv(savedHex(S)),
            10609255119952702732ull);
  }
}
