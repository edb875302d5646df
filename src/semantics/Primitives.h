//===- semantics/Primitives.h - Primitive operations ------------*- C++ -*-===//
///
/// \file
/// Strict application of the built-in operators over denotable values. A
/// primitive either produces a value or a run-time error message; errors
/// abort evaluation (they are reported through the final answer, never
/// through C++ exceptions).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SEMANTICS_PRIMITIVES_H
#define MONSEM_SEMANTICS_PRIMITIVES_H

#include "semantics/Value.h"

#include <string>

namespace monsem {

/// Result of a primitive application.
struct PrimResult {
  bool Ok = true;
  Value Val;
  std::string Error;

  static PrimResult ok(Value V) {
    PrimResult R;
    R.Val = V;
    return R;
  }
  static PrimResult err(std::string Msg) {
    PrimResult R;
    R.Ok = false;
    R.Error = std::move(Msg);
    return R;
  }
};

/// Integer arithmetic in two's complement, the one definition every
/// evaluator shares: Add, Sub and Mul wrap modulo 2^64 (as the vm-aot
/// emitter's unsigned casts do), and the one quotient that overflows gives
/// INT64_MIN / -1 = INT64_MIN and INT64_MIN % -1 = 0. Div and Mod need a
/// nonzero \p Y; callers report division by zero themselves. Negation is
/// `intArith(Prim2Op::Sub, 0, X)`.
inline int64_t intArith(Prim2Op Op, int64_t X, int64_t Y) {
  uint64_t UX = static_cast<uint64_t>(X), UY = static_cast<uint64_t>(Y);
  switch (Op) {
  case Prim2Op::Add:
    return static_cast<int64_t>(UX + UY);
  case Prim2Op::Sub:
    return static_cast<int64_t>(UX - UY);
  case Prim2Op::Mul:
    return static_cast<int64_t>(UX * UY);
  case Prim2Op::Div:
    assert(Y != 0 && "intArith: division by zero");
    return Y == -1 ? static_cast<int64_t>(0 - UX) : X / Y;
  case Prim2Op::Mod:
    assert(Y != 0 && "intArith: division by zero");
    return Y == -1 ? 0 : X % Y;
  default:
    assert(false && "intArith: not an arithmetic primitive");
    return 0;
  }
}

/// Applies a unary primitive. \p A allocates cons cells if needed.
PrimResult applyPrim1(Prim1Op Op, Value V, Arena &A);

/// Applies a binary primitive.
PrimResult applyPrim2(Prim2Op Op, Value L, Value R, Arena &A);

/// One binding of the initial environment: a primitive name and its
/// first-class function value.
struct PrimBinding {
  Symbol Name;
  Value Val;
};

/// The initial-environment bindings in slot order — the single source of
/// truth shared by initialEnv (named chain), initialFrame (flat frame) and
/// the resolver (static addresses into the global frame).
const std::vector<PrimBinding> &primBindings();

/// The frame shape of the initial environment (slot i names
/// primBindings()[i]).
const FrameShape *primFrameShape();

/// Builds the initial environment binding every primitive name (`hd`,
/// `min`, ...) to its first-class function value, so unsaturated or
/// shadow-escaping uses still work.
EnvNode *initialEnv(Arena &A);

/// Flat-frame counterpart of initialEnv: one frame of primFrameShape().
EnvFrame *initialFrame(Arena &A);

} // namespace monsem

#endif // MONSEM_SEMANTICS_PRIMITIVES_H
