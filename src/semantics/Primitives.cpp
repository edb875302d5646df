//===- semantics/Primitives.cpp --------------------------------------------===//

#include "semantics/Primitives.h"

using namespace monsem;

static std::string typeName(Value V) {
  switch (V.kind()) {
  case ValueKind::Unit:
    return "uninitialized";
  case ValueKind::Int:
    return "integer";
  case ValueKind::Bool:
    return "boolean";
  case ValueKind::Str:
    return "string";
  case ValueKind::Nil:
    return "empty list";
  case ValueKind::Cell:
    return "list";
  case ValueKind::Closure:
  case ValueKind::CompiledClosure:
  case ValueKind::Prim1:
  case ValueKind::Prim2:
  case ValueKind::Prim2Partial:
    return "function";
  case ValueKind::Thunk:
    return "thunk";
  }
  return "?";
}

static PrimResult typeError(const char *Prim, const char *Expected, Value V) {
  return PrimResult::err(std::string(Prim) + ": expected " + Expected +
                         ", found " + typeName(V));
}

PrimResult monsem::applyPrim1(Prim1Op Op, Value V, Arena &A) {
  switch (Op) {
  case Prim1Op::Neg:
    if (!V.is(ValueKind::Int))
      return typeError("-", "an integer", V);
    return PrimResult::ok(
        Value::mkInt(intArith(Prim2Op::Sub, 0, V.asInt()), A));
  case Prim1Op::Abs:
    if (!V.is(ValueKind::Int))
      return typeError("abs", "an integer", V);
    return PrimResult::ok(Value::mkInt(
        V.asInt() < 0 ? intArith(Prim2Op::Sub, 0, V.asInt()) : V.asInt(),
        A));
  case Prim1Op::Not:
    if (!V.is(ValueKind::Bool))
      return typeError("not", "a boolean", V);
    return PrimResult::ok(Value::mkBool(!V.asBool()));
  case Prim1Op::Hd:
    if (!V.is(ValueKind::Cell))
      return typeError("hd", "a non-empty list", V);
    return PrimResult::ok(V.asCell()->Head);
  case Prim1Op::Tl:
    if (!V.is(ValueKind::Cell))
      return typeError("tl", "a non-empty list", V);
    return PrimResult::ok(V.asCell()->Tail);
  case Prim1Op::Null:
    if (V.is(ValueKind::Nil))
      return PrimResult::ok(Value::mkBool(true));
    if (V.is(ValueKind::Cell))
      return PrimResult::ok(Value::mkBool(false));
    return typeError("null", "a list", V);
  case Prim1Op::IsInt:
    return PrimResult::ok(Value::mkBool(V.is(ValueKind::Int)));
  case Prim1Op::IsBool:
    return PrimResult::ok(Value::mkBool(V.is(ValueKind::Bool)));
  case Prim1Op::IsPair:
    return PrimResult::ok(Value::mkBool(V.is(ValueKind::Cell)));
  case Prim1Op::IsFun:
    return PrimResult::ok(Value::mkBool(V.isFunction()));
  }
  return PrimResult::err("unknown unary primitive");
}

PrimResult monsem::applyPrim2(Prim2Op Op, Value L, Value R, Arena &A) {
  switch (Op) {
  case Prim2Op::Add:
  case Prim2Op::Sub:
  case Prim2Op::Mul:
  case Prim2Op::Div:
  case Prim2Op::Mod:
  case Prim2Op::Min:
  case Prim2Op::Max: {
    const char *Name = prim2Name(Op);
    if (!L.is(ValueKind::Int))
      return typeError(Name, "an integer", L);
    if (!R.is(ValueKind::Int))
      return typeError(Name, "an integer", R);
    int64_t X = L.asInt(), Y = R.asInt();
    switch (Op) {
    case Prim2Op::Add:
    case Prim2Op::Sub:
    case Prim2Op::Mul:
      return PrimResult::ok(Value::mkInt(intArith(Op, X, Y), A));
    case Prim2Op::Div:
    case Prim2Op::Mod:
      if (Y == 0)
        return PrimResult::err(std::string(Name) + ": division by zero");
      return PrimResult::ok(Value::mkInt(intArith(Op, X, Y), A));
    case Prim2Op::Min:
      return PrimResult::ok(Value::mkInt(X < Y ? X : Y, A));
    case Prim2Op::Max:
      return PrimResult::ok(Value::mkInt(X > Y ? X : Y, A));
    default:
      break;
    }
    return PrimResult::err("unreachable");
  }
  case Prim2Op::Eq:
  case Prim2Op::Ne: {
    bool Ok = true;
    bool Equal = valueEquals(L, R, Ok);
    if (!Ok)
      return PrimResult::err("=: cannot compare functions");
    return PrimResult::ok(Value::mkBool(Op == Prim2Op::Eq ? Equal : !Equal));
  }
  case Prim2Op::Lt:
  case Prim2Op::Le:
  case Prim2Op::Gt:
  case Prim2Op::Ge: {
    const char *Name = prim2Name(Op);
    // Integers and strings are ordered.
    if (L.is(ValueKind::Int) && R.is(ValueKind::Int)) {
      int64_t X = L.asInt(), Y = R.asInt();
      bool B = Op == Prim2Op::Lt   ? X < Y
               : Op == Prim2Op::Le ? X <= Y
               : Op == Prim2Op::Gt ? X > Y
                                   : X >= Y;
      return PrimResult::ok(Value::mkBool(B));
    }
    if (L.is(ValueKind::Str) && R.is(ValueKind::Str)) {
      int C = L.asStr().compare(R.asStr());
      bool B = Op == Prim2Op::Lt   ? C < 0
               : Op == Prim2Op::Le ? C <= 0
               : Op == Prim2Op::Gt ? C > 0
                                   : C >= 0;
      return PrimResult::ok(Value::mkBool(B));
    }
    if (!L.is(ValueKind::Int) && !L.is(ValueKind::Str))
      return typeError(Name, "an integer or string", L);
    return typeError(Name, "an integer or string", R);
  }
  case Prim2Op::Cons: {
    Cell *C = A.create<Cell>(L, R);
    return PrimResult::ok(Value::mkCell(C));
  }
  }
  return PrimResult::err("unknown binary primitive");
}

const std::vector<PrimBinding> &monsem::primBindings() {
  static const std::vector<PrimBinding> Bindings = [] {
    std::vector<PrimBinding> B;
    auto Bind1 = [&](const char *Name, Prim1Op Op) {
      B.push_back({Symbol::intern(Name), Value::mkPrim1(Op)});
    };
    auto Bind2 = [&](const char *Name, Prim2Op Op) {
      B.push_back({Symbol::intern(Name), Value::mkPrim2(Op)});
    };
    Bind1("hd", Prim1Op::Hd);
    Bind1("tl", Prim1Op::Tl);
    Bind1("null", Prim1Op::Null);
    Bind1("not", Prim1Op::Not);
    Bind1("abs", Prim1Op::Abs);
    Bind1("int?", Prim1Op::IsInt);
    Bind1("bool?", Prim1Op::IsBool);
    Bind1("pair?", Prim1Op::IsPair);
    Bind1("fun?", Prim1Op::IsFun);
    Bind2("min", Prim2Op::Min);
    Bind2("max", Prim2Op::Max);
    return B;
  }();
  return Bindings;
}

const FrameShape *monsem::primFrameShape() {
  static const FrameShape Shape = [] {
    FrameShape S;
    for (const PrimBinding &B : primBindings())
      S.Slots.push_back(B.Name);
    return S;
  }();
  return &Shape;
}

EnvNode *monsem::initialEnv(Arena &A) {
  EnvNode *Env = nullptr;
  for (const PrimBinding &B : primBindings())
    Env = extendEnv(A, Env, B.Name, B.Val);
  return Env;
}

EnvFrame *monsem::initialFrame(Arena &A) {
  const std::vector<PrimBinding> &Bs = primBindings();
  EnvFrame *F = allocFrame(A, primFrameShape(), nullptr);
  for (size_t I = 0; I < Bs.size(); ++I)
    F->slots()[I] = Bs[I].Val;
  return F;
}
