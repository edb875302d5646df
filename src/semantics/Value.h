//===- semantics/Value.h - Denotable values ---------------------*- C++ -*-===//
///
/// \file
/// The paper's semantic algebras (Fig. 2):
///
///   Bas = Int + Bool + Str + Nil      basic values (incl. list nil)
///   Fun = V -> Kont -> Ans            function values
///   V   = Bas + Fun (+ Cell + Thunk)  denotable values
///
/// Function values are closures; primitives are also first-class function
/// values (bare or partially applied). Thunks appear only under the lazy
/// evaluation strategies. All heap cells are arena-allocated and trivially
/// destructible.
///
/// A Value is a single 8-byte tagged word passed by value — the
/// representation the machine copies into every environment slot, cons
/// cell, and continuation frame. Arena allocations are at least 8-aligned,
/// so the low three bits of any payload pointer are free to carry the tag;
/// small values are immediates:
///
///     bits  63..16            15..8      7..3      2..0
///          +-----------------+----------+---------+-------+
///   Int    | 48-bit payload  |    0     | imm=Int | tag=0 |  (inline)
///   Bool   |        0        | 0/1      | imm=Bool| tag=0 |
///   Prim   |        0        | opcode   | imm=Prim| tag=0 |
///   Nil    |        0        |    0     | imm=Nil | tag=0 |
///   Unit   |        0        |    0     |    0    |   0   |  (all zero)
///          +-----------------+----------+---------+-------+
///   ptr    |          pointer, low 3 bits zero    | tag!=0|
///          +--------------------------------------+-------+
///
/// Integers in [-2^47, 2^47) are stored inline, sign-extended on decode
/// (`(int64_t)bits >> 16`); anything wider is boxed as an arena int64
/// behind its own pointer tag, so the full int64 range is preserved —
/// `Value::mkInt(v, arena)` picks the representation, and `asInt()` makes
/// the choice unobservable. Unit (the letrec "not yet initialized"
/// placeholder) is the all-zero word, so a zero-filled frame is a frame of
/// placeholders.
///
/// The encoding is invisible outside this file: every consumer goes
/// through the mk*/as*/kind()/is() accessors, which is also why monitors
/// can never observe it (they receive Values, not bits). The flat
/// environment frame header is packed the same way (parent pointer plus
/// shape id in one word — see EnvFrame), and closures carry two words (the
/// defining LamExpr and the captured environment).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SEMANTICS_VALUE_H
#define MONSEM_SEMANTICS_VALUE_H

#include "support/Arena.h"
#include "support/Symbol.h"
#include "syntax/Ast.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace monsem {

class Value;

/// A single-binding environment frame (the paper's Env = Ide -> V realized
/// as a persistent linked list; extension is O(1) and shares the parent).
/// `Val` is mutated exactly twice in well-formed runs: once to tie the
/// letrec knot and once per thunk update.
struct EnvNode;

/// A flat, array-backed environment frame used by the lexically-addressed
/// CEK machine (see analysis/Resolver.h). The frame header is followed
/// in-place by Shape->numSlots() Values; a variable resolved to address
/// (depth, index) walks `depth` Parent links and indexes slot `index`,
/// with no name comparison. Slot names live in the (static) FrameShape so
/// monitors can still look bindings up by name through EnvView.
struct EnvFrame;

/// A cons cell.
struct Cell;

/// A user-defined function value: the defining `lambda` closed over its
/// environment. Param, body, and the frame shape an application allocates
/// all live on the LamExpr (the resolver annotates Shape there), so the
/// closure carries only the lambda and the captured environment — and each
/// evaluator uses exactly one environment representation, so the two
/// pointers share a slot. Two words total; closures are the second-highest
/// volume allocation after frames (one per curried application step).
struct Closure {
  const LamExpr *L;
  union {
    EnvNode *Env;   ///< The Direct interpreter's named chain.
    EnvFrame *FEnv; ///< The CEK machine's flat frames.
  };

  Closure(const LamExpr *L, EnvNode *Env) : L(L), Env(Env) {}
  Closure(const LamExpr *L, EnvFrame *FEnv) : L(L), FEnv(FEnv) {}
};

/// A suspended computation (lazy strategies only); defined after Value.
struct Thunk;

/// A binary primitive applied to its first argument.
struct PrimPartial;

/// A closure over compiled bytecode (see compile/Bytecode.h); the VM's
/// counterpart of Closure. Defined here rather than in compile/ so the
/// value-graph serializer (semantics/ValueGraph.h) can rebuild one.
struct VMClosure {
  uint32_t Block;
  EnvNode *Env;
};

enum class ValueKind : uint8_t {
  Unit, ///< The letrec "not yet initialized" placeholder.
  Int,
  Bool,
  Str,
  Nil,
  Cell,
  Closure,
  Prim1,        ///< Unapplied unary primitive.
  Prim2,        ///< Unapplied binary primitive.
  Prim2Partial, ///< Binary primitive with one argument applied.
  Thunk,
  CompiledClosure, ///< Bytecode closure (compile/VM.h).
};

class Value {
public:
  constexpr Value() : B(0) {}

  static constexpr Value mkUnit() { return Value(); }

  /// Inline-only constructor: \p V must be in the 48-bit immediate range
  /// (asserted). Run-time value producers that can see arbitrary int64s —
  /// primitive arithmetic, constant loading — use the arena overload below,
  /// which falls back to a boxed int64.
  static Value mkInt(int64_t V) {
    assert(fitsInline(V) &&
           "int outside the 48-bit inline range needs mkInt(V, Arena)");
    return fromBits(encodeInt(V));
  }
  /// Full-range constructor: inline when \p V fits 48 bits, otherwise a
  /// boxed int64 allocated in \p A. The choice is unobservable through the
  /// accessors (kind() is Int and asInt() returns \p V either way).
  static Value mkInt(int64_t V, Arena &A) {
    if (fitsInline(V))
      return fromBits(encodeInt(V));
    return fromPtr(TagBoxedInt, A.create<int64_t>(V));
  }
  static constexpr Value mkBool(bool V) {
    return fromBits((ImmBool << kImmShift) |
                    (static_cast<uint64_t>(V) << kPayloadShift));
  }
  static Value mkStr(const std::string *S) { return fromPtr(TagStr, S); }
  static constexpr Value mkNil() { return fromBits(ImmNil << kImmShift); }
  static Value mkCell(Cell *C) { return fromPtr(TagCell, C); }
  static Value mkClosure(Closure *C) { return fromPtr(TagClosure, C); }
  static constexpr Value mkPrim1(Prim1Op Op) {
    return fromBits((ImmPrim1 << kImmShift) |
                    (static_cast<uint64_t>(Op) << kPayloadShift));
  }
  static constexpr Value mkPrim2(Prim2Op Op) {
    return fromBits((ImmPrim2 << kImmShift) |
                    (static_cast<uint64_t>(Op) << kPayloadShift));
  }
  static Value mkPrim2Partial(PrimPartial *PP) {
    return fromPtr(TagPrimPartial, PP);
  }
  static Value mkThunk(Thunk *T) { return fromPtr(TagThunk, T); }
  static Value mkCompiledClosure(VMClosure *C) {
    return fromPtr(TagVMClosure, C);
  }

  ValueKind kind() const {
    switch (B & TagMask) {
    case TagImm:
      switch ((B >> kImmShift) & 7) {
      case ImmUnit:
        return ValueKind::Unit;
      case ImmInt:
        return ValueKind::Int;
      case ImmBool:
        return ValueKind::Bool;
      case ImmNil:
        return ValueKind::Nil;
      case ImmPrim1:
        return ValueKind::Prim1;
      default:
        return ValueKind::Prim2;
      }
    case TagCell:
      return ValueKind::Cell;
    case TagClosure:
      return ValueKind::Closure;
    case TagThunk:
      return ValueKind::Thunk;
    case TagPrimPartial:
      return ValueKind::Prim2Partial;
    case TagVMClosure:
      return ValueKind::CompiledClosure;
    case TagStr:
      return ValueKind::Str;
    default: // TagBoxedInt — representation detail; the kind is Int.
      return ValueKind::Int;
    }
  }
  bool is(ValueKind Kind) const { return kind() == Kind; }

  /// The Unit-placeholder tag predicate (see allocFrame): true exactly for
  /// the all-zero word. Cheaper than kind() on the slot-scanning paths.
  constexpr bool isUnit() const { return B == 0; }

  int64_t asInt() const {
    assert(kind() == ValueKind::Int);
    if ((B & TagMask) == TagImm)
      return static_cast<int64_t>(B) >> kPayloadShift16;
    return *static_cast<const int64_t *>(ptr());
  }
  bool asBool() const {
    assert(kind() == ValueKind::Bool);
    return (B >> kPayloadShift) & 1;
  }
  const std::string &asStr() const {
    assert(kind() == ValueKind::Str);
    return *static_cast<const std::string *>(ptr());
  }
  Cell *asCell() const {
    assert(kind() == ValueKind::Cell);
    return static_cast<Cell *>(ptr());
  }
  Closure *asClosure() const {
    assert(kind() == ValueKind::Closure);
    return static_cast<Closure *>(ptr());
  }
  Prim1Op asPrim1() const {
    assert(kind() == ValueKind::Prim1);
    return static_cast<Prim1Op>((B >> kPayloadShift) & 0xFF);
  }
  Prim2Op asPrim2() const {
    assert(kind() == ValueKind::Prim2);
    return static_cast<Prim2Op>((B >> kPayloadShift) & 0xFF);
  }
  PrimPartial *asPrim2Partial() const {
    assert(kind() == ValueKind::Prim2Partial);
    return static_cast<PrimPartial *>(ptr());
  }
  Thunk *asThunk() const {
    assert(kind() == ValueKind::Thunk);
    return static_cast<Thunk *>(ptr());
  }
  VMClosure *asCompiledClosure() const {
    assert(kind() == ValueKind::CompiledClosure);
    return static_cast<VMClosure *>(ptr());
  }

  /// True for closures and (partial) primitives — the paper's Fun domain.
  bool isFunction() const {
    switch (B & TagMask) {
    case TagClosure:
    case TagPrimPartial:
    case TagVMClosure:
      return true;
    case TagImm: {
      uint64_t Imm = (B >> kImmShift) & 7;
      return Imm == ImmPrim1 || Imm == ImmPrim2;
    }
    default:
      return false;
    }
  }

  /// True when \p V survives the 48-bit inline encoding round trip.
  static constexpr bool fitsInline(int64_t V) {
    return V == static_cast<int64_t>(static_cast<uint64_t>(V)
                                     << kPayloadShift16) >>
                    kPayloadShift16;
  }

private:
  // Low-3-bit tags. Tag 0 is the immediate space; every nonzero tag is a
  // pointer whose payload is `B & ~TagMask` (arena objects and std::string
  // are all at least 8-aligned, asserted in fromPtr).
  enum : uint64_t {
    TagMask = 7,
    TagImm = 0,
    TagCell = 1,
    TagClosure = 2,
    TagThunk = 3,
    TagPrimPartial = 4,
    TagVMClosure = 5,
    TagStr = 6,
    TagBoxedInt = 7, ///< Arena int64 outside the inline range.
  };
  // Immediate sub-kinds, bits [5:3]. ImmUnit is 0 so Unit is the all-zero
  // word (the letrec-placeholder convention allocFrame relies on).
  enum : uint64_t {
    ImmUnit = 0,
    ImmInt = 1,
    ImmBool = 2,
    ImmNil = 3,
    ImmPrim1 = 4,
    ImmPrim2 = 5,
  };
  static constexpr unsigned kImmShift = 3;    ///< Sub-kind bits [5:3].
  static constexpr unsigned kPayloadShift = 8;  ///< Bool/opcode payload.
  static constexpr int kPayloadShift16 = 16;    ///< Inline-int payload.

  static constexpr uint64_t encodeInt(int64_t V) {
    return (static_cast<uint64_t>(V) << kPayloadShift16) |
           (ImmInt << kImmShift);
  }
  static constexpr Value fromBits(uint64_t Bits) {
    Value R;
    R.B = Bits;
    return R;
  }
  static Value fromPtr(uint64_t Tag, const void *P) {
    uintptr_t U = reinterpret_cast<uintptr_t>(P);
    assert((U & TagMask) == 0 && "tagged pointers must be 8-aligned");
    Value R;
    R.B = U | Tag;
    return R;
  }
  void *ptr() const {
    return reinterpret_cast<void *>(static_cast<uintptr_t>(B & ~TagMask));
  }

  uint64_t B;
};

static_assert(sizeof(Value) == 8,
              "the tagged Value must be a single machine word");


struct Cell {
  Value Head;
  Value Tail;
};

struct PrimPartial {
  Prim2Op Op;
  Value First;
};

struct EnvNode {
  Symbol Name;
  Value Val;
  EnvNode *Parent;
};

struct EnvFrame {
  /// Packed header, one word: the parent pointer in the low 47 bits
  /// (x86-64/AArch64 user addresses; asserted on construction) and the
  /// frame shape's per-resolution id in the high 17. The hot path — the
  /// lexical Var transition — only ever decodes the parent; the shape is
  /// needed solely by the monitors' named-lookup paths, which carry the
  /// owning Resolution's shape table (see frameShape below).
  uint64_t Bits;

  static constexpr uint64_t kParentMask = (uint64_t(1) << 47) - 1;

  EnvFrame(const FrameShape *Shape, EnvFrame *Parent);
  EnvFrame *parent() const {
    return reinterpret_cast<EnvFrame *>(Bits & kParentMask);
  }
  uint32_t shapeId() const { return static_cast<uint32_t>(Bits >> 47); }

  Value *slots() { return reinterpret_cast<Value *>(this + 1); }
  const Value *slots() const {
    return reinterpret_cast<const Value *>(this + 1);
  }
};

inline EnvFrame::EnvFrame(const FrameShape *Shape, EnvFrame *Parent) {
  uintptr_t P = reinterpret_cast<uintptr_t>(Parent);
  assert((P & ~kParentMask) == 0 && "parent pointer exceeds 47 bits");
  assert(Shape->Id < (uint32_t(1) << 17) && "frame shape id exceeds 17 bits");
  Bits = (uint64_t(Shape->Id) << 47) | P;
}

/// A shape-id decode table: entry i is the FrameShape with Id == i. The
/// Resolution that resolved the running program owns it (entry 0 is always
/// the shared primitives-frame shape); named-chain paths pass nullptr.
using FrameShapeTable = const FrameShape *const *;

/// The shape of \p F: the frame header stores only the shape id, which
/// \p T decodes.
inline const FrameShape *frameShape(const EnvFrame *F, FrameShapeTable T) {
  return T[F->shapeId()];
}
static_assert(alignof(EnvFrame) % alignof(Value) == 0 &&
                  sizeof(EnvFrame) % alignof(Value) == 0,
              "slot array is stored in-place after the frame header");

/// A suspended expression (call-by-name and call-by-need). Exactly one of
/// the two environments is set: Env by the Direct interpreter (named
/// chain), FEnv by the CEK machine (flat frames).
struct Thunk {
  enum class State : uint8_t { Unforced, Forcing, Forced };
  const Expr *E;
  EnvNode *Env;
  State St;
  Value Memo; ///< Meaningful only when St == Forced.
  EnvFrame *FEnv = nullptr;
};

//===----------------------------------------------------------------------===//
// Environment operations
//===----------------------------------------------------------------------===//

inline EnvNode *extendEnv(Arena &A, EnvNode *Parent, Symbol Name, Value V) {
  return A.create<EnvNode>(Name, V, Parent);
}

/// Innermost binding of \p Name, or nullptr.
inline EnvNode *lookupEnv(EnvNode *Env, Symbol Name) {
  for (EnvNode *N = Env; N; N = N->Parent)
    if (N->Name == Name)
      return N;
  return nullptr;
}

/// Allocates a frame of \p Shape with slot 0 = \p Slot0 and every other
/// slot Unit. This is the single home of the Unit-placeholder convention:
/// a default-constructed Value *is* the "letrec member not yet initialized"
/// marker, and slot scanners (lookupFrame, EnvView) test for it with the
/// isUnit() tag predicate rather than re-deriving the convention.
inline EnvFrame *allocFrame(Arena &A, const FrameShape *Shape,
                            EnvFrame *Parent, Value Slot0 = Value()) {
  assert(Value().isUnit() &&
         "default Value must be the Unit placeholder slots are seeded with");
  uint32_t N = Shape->numSlots();
  void *Mem = A.allocate(sizeof(EnvFrame) + N * sizeof(Value),
                         alignof(EnvFrame));
  EnvFrame *F = new (Mem) EnvFrame{Shape, Parent};
  Value *S = F->slots();
  if (N)
    new (S) Value(Slot0);
  for (uint32_t I = 1; I < N; ++I)
    new (S + I) Value();
  return F;
}

/// Innermost non-Unit binding of \p Name in a flat-frame chain, or null.
/// Within a frame, higher slot indices were bound later, so they are
/// scanned first; Unit slots (letrec members whose binder has not run yet,
/// identified by the isUnit() tag predicate) are treated as absent.
/// \p Table is the owning Resolution's shape table (frames store shape
/// ids, not pointers; see EnvFrame).
inline const Value *lookupFrame(const EnvFrame *Env, Symbol Name,
                                FrameShapeTable Table) {
  for (const EnvFrame *F = Env; F; F = F->parent()) {
    const FrameShape *S = frameShape(F, Table);
    for (uint32_t I = S->numSlots(); I-- > 0;)
      if (S->slotName(I) == Name && !F->slots()[I].isUnit())
        return &F->slots()[I];
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Rendering and equality
//===----------------------------------------------------------------------===//

/// The paper's ToStr: "3", "True", "[3, 12, 102]", "<fun>", string contents
/// verbatim, "<thunk>" for unforced thunks (forced ones render their memo).
std::string toDisplayString(Value V);

/// Appends toDisplayString(V) to \p Out, for callers that build text in a
/// reused buffer.
void appendDisplayString(std::string &Out, Value V);

/// Structural equality as computed by the `=` primitive. Sets \p Ok to
/// false (and returns false) when the comparison is undefined (functions).
bool valueEquals(Value A, Value B, bool &Ok);

} // namespace monsem

#endif // MONSEM_SEMANTICS_VALUE_H
