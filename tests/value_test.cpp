//===- tests/value_test.cpp - Value/env/primitive unit tests ---------------===//

#include "semantics/Answer.h"
#include "semantics/Primitives.h"
#include "semantics/Value.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace monsem;

namespace {

Value list(Arena &A, std::initializer_list<int64_t> Xs) {
  Value V = Value::mkNil();
  std::vector<int64_t> Rev(Xs);
  for (size_t I = Rev.size(); I-- > 0;)
    V = Value::mkCell(A.create<Cell>(Value::mkInt(Rev[I]), V));
  return V;
}

} // namespace

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::mkInt(3).is(ValueKind::Int));
  EXPECT_TRUE(Value::mkBool(true).is(ValueKind::Bool));
  EXPECT_TRUE(Value::mkNil().is(ValueKind::Nil));
  EXPECT_TRUE(Value().is(ValueKind::Unit));
  EXPECT_TRUE(Value::mkPrim1(Prim1Op::Hd).isFunction());
  EXPECT_FALSE(Value::mkInt(0).isFunction());
}

TEST(ValueTest, Display) {
  Arena A;
  EXPECT_EQ(toDisplayString(Value::mkInt(-7)), "-7");
  EXPECT_EQ(toDisplayString(Value::mkBool(true)), "True");
  EXPECT_EQ(toDisplayString(Value::mkBool(false)), "False");
  EXPECT_EQ(toDisplayString(Value::mkNil()), "[]");
  EXPECT_EQ(toDisplayString(list(A, {1, 2, 3})), "[1, 2, 3]");
  std::string S = "hi";
  EXPECT_EQ(toDisplayString(Value::mkStr(&S)), "hi");
  EXPECT_EQ(toDisplayString(Value::mkPrim1(Prim1Op::Hd)), "<prim hd>");
}

TEST(ValueTest, DisplayGoldens) {
  // Literal expectations (not std::to_string): ints are rendered with
  // std::to_chars, which must agree byte for byte, boxed ints included.
  Arena A;
  EXPECT_EQ(toDisplayString(Value::mkInt(-1)), "-1");
  EXPECT_EQ(toDisplayString(Value::mkInt(0)), "0");
  EXPECT_EQ(toDisplayString(Value::mkInt(-140737488355328)),
            "-140737488355328");
  EXPECT_EQ(toDisplayString(Value::mkInt(9007199254740993, A)),
            "9007199254740993");
  EXPECT_EQ(toDisplayString(Value::mkInt(-140737488355329, A)),
            "-140737488355329");
  EXPECT_EQ(toDisplayString(Value::mkInt(INT64_MIN, A)),
            "-9223372036854775808");
  EXPECT_EQ(toDisplayString(Value::mkInt(INT64_MAX, A)),
            "9223372036854775807");

  Value L = Value::mkCell(A.create<Cell>(
      Value::mkInt(-3),
      Value::mkCell(A.create<Cell>(Value::mkInt(INT64_MIN, A),
                                   Value::mkInt(140737488355328, A)))));
  EXPECT_EQ(toDisplayString(L),
            "[-3, -9223372036854775808 . 140737488355328]");

  // appendDisplayString appends to what the buffer already holds.
  std::string Out = "v=";
  appendDisplayString(Out, Value::mkInt(INT64_MIN, A));
  Out += ' ';
  appendDisplayString(Out, list(A, {-1, 2}));
  EXPECT_EQ(Out, "v=-9223372036854775808 [-1, 2]");
  EXPECT_EQ(Out.substr(2), toDisplayString(Value::mkInt(INT64_MIN, A)) +
                               " " + toDisplayString(list(A, {-1, 2})));
}

TEST(ValueTest, EqualityDeep) {
  Arena A;
  bool Ok = true;
  EXPECT_TRUE(valueEquals(list(A, {1, 2}), list(A, {1, 2}), Ok));
  EXPECT_TRUE(Ok);
  EXPECT_FALSE(valueEquals(list(A, {1, 2}), list(A, {1, 3}), Ok));
  EXPECT_FALSE(valueEquals(list(A, {1}), Value::mkNil(), Ok));
  EXPECT_FALSE(valueEquals(Value::mkInt(1), Value::mkBool(true), Ok));
}

TEST(ValueTest, EqualityOnFunctionsIsUndefined) {
  Arena A;
  Closure *C =
      A.create<Closure>(nullptr, static_cast<EnvNode *>(nullptr));
  bool Ok = true;
  valueEquals(Value::mkClosure(C), Value::mkClosure(C), Ok);
  EXPECT_FALSE(Ok);
}

TEST(EnvTest, LookupFindsInnermost) {
  Arena A;
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  EnvNode *E1 = extendEnv(A, nullptr, X, Value::mkInt(1));
  EnvNode *E2 = extendEnv(A, E1, Y, Value::mkInt(2));
  EnvNode *E3 = extendEnv(A, E2, X, Value::mkInt(3));
  EXPECT_EQ(lookupEnv(E3, X)->Val.asInt(), 3);
  EXPECT_EQ(lookupEnv(E3, Y)->Val.asInt(), 2);
  EXPECT_EQ(lookupEnv(E1, Y), nullptr);
  EXPECT_EQ(lookupEnv(nullptr, X), nullptr);
}

TEST(PrimTest, Arithmetic) {
  Arena A;
  EXPECT_EQ(applyPrim2(Prim2Op::Add, Value::mkInt(2), Value::mkInt(3), A)
                .Val.asInt(),
            5);
  EXPECT_EQ(applyPrim2(Prim2Op::Sub, Value::mkInt(2), Value::mkInt(3), A)
                .Val.asInt(),
            -1);
  EXPECT_EQ(applyPrim2(Prim2Op::Mul, Value::mkInt(4), Value::mkInt(3), A)
                .Val.asInt(),
            12);
  EXPECT_EQ(applyPrim2(Prim2Op::Div, Value::mkInt(7), Value::mkInt(2), A)
                .Val.asInt(),
            3);
  EXPECT_EQ(applyPrim2(Prim2Op::Mod, Value::mkInt(7), Value::mkInt(2), A)
                .Val.asInt(),
            1);
  EXPECT_EQ(applyPrim2(Prim2Op::Min, Value::mkInt(7), Value::mkInt(2), A)
                .Val.asInt(),
            2);
  EXPECT_EQ(applyPrim2(Prim2Op::Max, Value::mkInt(7), Value::mkInt(2), A)
                .Val.asInt(),
            7);
}

TEST(PrimTest, DivisionByZero) {
  Arena A;
  EXPECT_FALSE(applyPrim2(Prim2Op::Div, Value::mkInt(1), Value::mkInt(0), A)
                   .Ok);
  EXPECT_FALSE(applyPrim2(Prim2Op::Mod, Value::mkInt(1), Value::mkInt(0), A)
                   .Ok);
}

TEST(PrimTest, TypeErrorsCarryMessages) {
  Arena A;
  PrimResult R =
      applyPrim2(Prim2Op::Add, Value::mkBool(true), Value::mkInt(1), A);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("integer"), std::string::npos);
}

TEST(PrimTest, Comparisons) {
  Arena A;
  EXPECT_TRUE(applyPrim2(Prim2Op::Lt, Value::mkInt(1), Value::mkInt(2), A)
                  .Val.asBool());
  EXPECT_TRUE(applyPrim2(Prim2Op::Ge, Value::mkInt(2), Value::mkInt(2), A)
                  .Val.asBool());
  std::string S1 = "abc", S2 = "abd";
  EXPECT_TRUE(applyPrim2(Prim2Op::Lt, Value::mkStr(&S1), Value::mkStr(&S2), A)
                  .Val.asBool());
}

TEST(PrimTest, ListOps) {
  Arena A;
  Value L = applyPrim2(Prim2Op::Cons, Value::mkInt(1), Value::mkNil(), A).Val;
  EXPECT_EQ(applyPrim1(Prim1Op::Hd, L, A).Val.asInt(), 1);
  EXPECT_TRUE(applyPrim1(Prim1Op::Tl, L, A).Val.is(ValueKind::Nil));
  EXPECT_FALSE(applyPrim1(Prim1Op::Null, L, A).Val.asBool());
  EXPECT_TRUE(applyPrim1(Prim1Op::Null, Value::mkNil(), A).Val.asBool());
  EXPECT_FALSE(applyPrim1(Prim1Op::Hd, Value::mkNil(), A).Ok);
  EXPECT_FALSE(applyPrim1(Prim1Op::Tl, Value::mkNil(), A).Ok);
  EXPECT_FALSE(applyPrim1(Prim1Op::Null, Value::mkInt(3), A).Ok);
}

TEST(PrimTest, Predicates) {
  Arena A;
  EXPECT_TRUE(applyPrim1(Prim1Op::IsInt, Value::mkInt(1), A).Val.asBool());
  EXPECT_FALSE(applyPrim1(Prim1Op::IsInt, Value::mkNil(), A).Val.asBool());
  EXPECT_TRUE(
      applyPrim1(Prim1Op::IsBool, Value::mkBool(false), A).Val.asBool());
  EXPECT_TRUE(applyPrim1(Prim1Op::IsFun, Value::mkPrim1(Prim1Op::Hd), A)
                  .Val.asBool());
}

TEST(PrimTest, NegAbsNot) {
  Arena A;
  EXPECT_EQ(applyPrim1(Prim1Op::Neg, Value::mkInt(5), A).Val.asInt(), -5);
  EXPECT_EQ(applyPrim1(Prim1Op::Abs, Value::mkInt(-5), A).Val.asInt(), 5);
  EXPECT_TRUE(applyPrim1(Prim1Op::Not, Value::mkBool(false), A).Val.asBool());
  EXPECT_FALSE(applyPrim1(Prim1Op::Not, Value::mkInt(1), A).Ok);
}

TEST(InitialEnvTest, BindsPrimitives) {
  Arena A;
  EnvNode *Env = initialEnv(A);
  EXPECT_NE(lookupEnv(Env, Symbol::intern("hd")), nullptr);
  EXPECT_NE(lookupEnv(Env, Symbol::intern("min")), nullptr);
  EXPECT_EQ(lookupEnv(Env, Symbol::intern("nosuch")), nullptr);
}

TEST(AnswerAlgebraTest, StdAndString) {
  EXPECT_EQ(StdAnswerAlgebra::instance().render(Value::mkInt(6)), "6");
  EXPECT_EQ(StringAnswerAlgebra::instance().render(Value::mkInt(6)),
            "The result is: 6");
}
