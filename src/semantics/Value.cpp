//===- semantics/Value.cpp -------------------------------------------------===//

#include "semantics/Value.h"

#include <charconv>

using namespace monsem;

void monsem::appendDisplayString(std::string &Out, Value V) {
  switch (V.kind()) {
  case ValueKind::Unit:
    Out += "<uninitialized>";
    return;
  case ValueKind::Int: {
    char Buf[24];
    char *End = std::to_chars(Buf, Buf + sizeof(Buf), V.asInt()).ptr;
    Out.append(Buf, End);
    return;
  }
  case ValueKind::Bool:
    Out += V.asBool() ? "True" : "False";
    return;
  case ValueKind::Str:
    Out += V.asStr();
    return;
  case ValueKind::Nil:
    Out += "[]";
    return;
  case ValueKind::Cell: {
    Out += '[';
    Value Cur = V;
    bool First = true;
    while (Cur.is(ValueKind::Cell)) {
      if (!First)
        Out += ", ";
      First = false;
      appendDisplayString(Out, Cur.asCell()->Head);
      Cur = Cur.asCell()->Tail;
    }
    if (!Cur.is(ValueKind::Nil)) {
      // Improper list: render the dotted tail.
      Out += " . ";
      appendDisplayString(Out, Cur);
    }
    Out += ']';
    return;
  }
  case ValueKind::Closure:
  case ValueKind::CompiledClosure:
    Out += "<fun>";
    return;
  case ValueKind::Prim1:
    Out += "<prim ";
    Out += prim1Name(V.asPrim1());
    Out += '>';
    return;
  case ValueKind::Prim2:
    Out += "<prim ";
    Out += prim2Name(V.asPrim2());
    Out += '>';
    return;
  case ValueKind::Prim2Partial:
    Out += "<prim ";
    Out += prim2Name(V.asPrim2Partial()->Op);
    Out += " _>";
    return;
  case ValueKind::Thunk: {
    const Thunk *T = V.asThunk();
    if (T->St == Thunk::State::Forced) {
      appendDisplayString(Out, T->Memo);
      return;
    }
    Out += "<thunk>";
    return;
  }
  }
}

std::string monsem::toDisplayString(Value V) {
  std::string Out;
  appendDisplayString(Out, V);
  return Out;
}

bool monsem::valueEquals(Value A, Value B, bool &Ok) {
  // Forced thunks compare through their memo.
  if (A.is(ValueKind::Thunk) && A.asThunk()->St == Thunk::State::Forced)
    return valueEquals(A.asThunk()->Memo, B, Ok);
  if (B.is(ValueKind::Thunk) && B.asThunk()->St == Thunk::State::Forced)
    return valueEquals(A, B.asThunk()->Memo, Ok);

  if (A.isFunction() || B.isFunction() || A.is(ValueKind::Thunk) ||
      B.is(ValueKind::Thunk)) {
    Ok = false;
    return false;
  }
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case ValueKind::Int:
    return A.asInt() == B.asInt();
  case ValueKind::Bool:
    return A.asBool() == B.asBool();
  case ValueKind::Str:
    return A.asStr() == B.asStr();
  case ValueKind::Nil:
    return true;
  case ValueKind::Cell: {
    const Cell *CA = A.asCell(), *CB = B.asCell();
    return valueEquals(CA->Head, CB->Head, Ok) && Ok &&
           valueEquals(CA->Tail, CB->Tail, Ok) && Ok;
  }
  case ValueKind::Unit:
    return true;
  default:
    return false;
  }
}
