//===- syntax/Ast.h - Abstract syntax for L_lambda --------------*- C++ -*-===//
///
/// \file
/// Abstract syntax of the paper's higher-order functional language
/// `L_lambda` (Fig. 2), extended per Section 4.1 with annotated expressions
/// `{mu}:e`. The BNF is:
///
///   e ::= k | x | lambda x . e | if e1 then e2 else e3 | e1 e2
///       | letrec f = e1 in e2 | {mu}: e
///
/// plus primitive-application nodes (`Prim1`/`Prim2`) that the parser
/// introduces for saturated uses of built-in operators (the paper assumes
/// `-`, `*`, `=`, `hd`, `tl`, ... are primitives). Unsaturated uses remain
/// variables bound in the initial environment, so primitives stay
/// first-class.
///
/// Nodes are immutable and arena-allocated inside an AstContext; structural
/// sharing is safe and cloning across contexts is provided.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SYNTAX_AST_H
#define MONSEM_SYNTAX_AST_H

#include "support/Arena.h"
#include "support/SourceLoc.h"
#include "support/Symbol.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace monsem {

//===----------------------------------------------------------------------===//
// Constants and primitive operators
//===----------------------------------------------------------------------===//

/// A literal constant (the paper's syntactic domain Con and the basic-value
/// part of the semantic domain Bas).
struct ConstVal {
  enum class Kind : uint8_t { Int, Bool, Str, Nil };
  Kind K = Kind::Nil;
  int64_t Int = 0;
  bool Bool = false;
  /// Owned by the AstContext that created this constant.
  const std::string *Str = nullptr;

  static ConstVal mkInt(int64_t V) {
    ConstVal C;
    C.K = Kind::Int;
    C.Int = V;
    return C;
  }
  static ConstVal mkBool(bool V) {
    ConstVal C;
    C.K = Kind::Bool;
    C.Bool = V;
    return C;
  }
  static ConstVal mkStr(const std::string *S) {
    ConstVal C;
    C.K = Kind::Str;
    C.Str = S;
    return C;
  }
  static ConstVal mkNil() { return ConstVal(); }

  friend bool operator==(const ConstVal &A, const ConstVal &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::Int:
      return A.Int == B.Int;
    case Kind::Bool:
      return A.Bool == B.Bool;
    case Kind::Str:
      return *A.Str == *B.Str;
    case Kind::Nil:
      return true;
    }
    return false;
  }
};

/// Unary primitives.
enum class Prim1Op : uint8_t { Neg, Not, Hd, Tl, Null, IsInt, IsBool, IsPair,
                               IsFun, Abs };

/// Binary primitives.
enum class Prim2Op : uint8_t { Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt,
                               Ge, Cons, Min, Max };

/// Operator spelling for printing/diagnostics, e.g. "+" or "hd".
const char *prim1Name(Prim1Op Op);
const char *prim2Name(Prim2Op Op);

/// True for primitives printed infix by the pretty printer.
bool isInfix(Prim2Op Op);

//===----------------------------------------------------------------------===//
// Static resolution annotations (analysis/Resolver.h)
//===----------------------------------------------------------------------===//

/// The shape of one flat, array-backed environment frame as computed by the
/// resolver: the slot names, in slot order. Slot 0 is the frame owner's own
/// binding (lambda parameter or letrec-head name); later slots belong to
/// letrec binders the resolver coalesced into the same frame. Shapes are
/// owned by the Resolution object that created them; AST nodes hold
/// non-owning pointers.
struct FrameShape {
  std::vector<Symbol> Slots;
  /// Index into the owning Resolution's shape table. Run-time frames store
  /// this id (packed next to the parent pointer) instead of a shape
  /// pointer; id 0 is reserved for the shared primitives-frame shape.
  uint32_t Id = 0;

  uint32_t numSlots() const { return static_cast<uint32_t>(Slots.size()); }
  Symbol slotName(uint32_t I) const { return Slots[I]; }
};

//===----------------------------------------------------------------------===//
// Annotations (Section 4.1)
//===----------------------------------------------------------------------===//

/// A monitoring annotation `{mu}` (Section 4.1). The concrete syntax we
/// support generalizes all of the paper's examples:
///
///   {A}            — bare label (counting profiler, demon, collecting)
///   {fac(x)}       — function header (fancy tracer, Fig. 7)
///   {trace:fac(x)} — qualified form; the qualifier names the monitor the
///                    annotation belongs to, making annotation syntaxes of
///                    cascaded monitors disjoint by construction (Section 6).
struct Annotation {
  Symbol Qual;                ///< Optional monitor qualifier; empty if none.
  Symbol Head;                ///< The label / function name.
  std::vector<Symbol> Params; ///< Parameters of a function-header annotation.
  bool HasParams = false;     ///< Distinguishes `{f()}` from `{f}`.
  SourceLoc Loc;

  /// Renders the annotation in concrete syntax, braces included.
  std::string text() const;

  friend bool operator==(const Annotation &A, const Annotation &B) {
    return A.Qual == B.Qual && A.Head == B.Head && A.Params == B.Params &&
           A.HasParams == B.HasParams;
  }
};

//===----------------------------------------------------------------------===//
// Expression nodes
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  Const,
  Var,
  Lam,
  If,
  App,
  Letrec,
  Prim1,
  Prim2,
  Annot,
};

class Expr {
public:
  ExprKind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

  /// Identity of the Resolution whose annotations this tree currently
  /// carries. Written on the *root* node only, by the resolver (see
  /// resolveProgramCached): it lets the process-wide resolution cache
  /// distinguish a live entry from a stale one left behind when an arena
  /// died and a new tree was allocated at the same root address. Guarded
  /// by the cache's mutex; never read by evaluators.
  mutable const void *ResolutionStamp = nullptr;

protected:
  Expr(ExprKind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  ExprKind K;
  SourceLoc Loc;
};

class ConstExpr : public Expr {
public:
  ConstVal Val;
  ConstExpr(ConstVal Val, SourceLoc Loc)
      : Expr(ExprKind::Const, Loc), Val(Val) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Const; }
};

class VarExpr : public Expr {
public:
  Symbol Name;

  /// Where the resolver (analysis/Resolver.h) located this variable.
  enum class AddrKind : uint8_t {
    Unresolved, ///< Resolver has not run (the Direct interpreter, which
                ///< looks names up in its chain, never needs it to).
    Local,      ///< User binding: FrameDepth frames up, slot SlotIndex.
    Global,     ///< Initial-environment primitive: slot SlotIndex there.
    Unbound     ///< Statically unbound; evaluation fails when reached.
  };
  /// Resolution annotations. Mutable: they are a cache derived purely from
  /// the tree's shape, (re)computed by each resolveProgram run. Valid only
  /// while the owning Resolution is alive and only for trees (the resolver
  /// refuses DAGs, where a node's address would be ambiguous).
  mutable AddrKind Addr = AddrKind::Unresolved;
  mutable uint32_t FrameDepth = 0; ///< Frames to walk (Local).
  mutable uint32_t SlotIndex = 0;  ///< Slot within that frame.
  /// Classic de Bruijn distance counted in *binders* (not frames) — the
  /// compile-time environment shape the bytecode compiler uses.
  mutable uint32_t BinderDepth = 0;

  VarExpr(Symbol Name, SourceLoc Loc) : Expr(ExprKind::Var, Loc), Name(Name) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Var; }
};

class LamExpr : public Expr {
public:
  Symbol Param;
  const Expr *Body;
  /// Shape of the flat frame each application of this lambda allocates:
  /// slot 0 is Param, later slots are coalesced letrec binders from the
  /// body. Filled by the resolver; null until it runs.
  mutable const FrameShape *Shape = nullptr;
  /// True when the body contains no lambda and no annotation anywhere in
  /// its subtree, so nothing evaluated in an activation of this lambda
  /// can capture or observe the activation frame beyond the activation
  /// itself — a self-tail-call may then overwrite the frame in place.
  /// Filled by the resolver.
  mutable bool FrameReusable = false;
  LamExpr(Symbol Param, const Expr *Body, SourceLoc Loc)
      : Expr(ExprKind::Lam, Loc), Param(Param), Body(Body) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Lam; }
};

class IfExpr : public Expr {
public:
  const Expr *Cond, *Then, *Else;
  IfExpr(const Expr *Cond, const Expr *Then, const Expr *Else, SourceLoc Loc)
      : Expr(ExprKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::If; }
};

class AppExpr : public Expr {
public:
  const Expr *Fn, *Arg;
  /// True when this application is in tail position of the enclosing
  /// lambda body (through `if` branches and coalesced letrec bodies, never
  /// under operands, bound expressions or annotations) — at evaluation
  /// time the current environment is then exactly that lambda's activation
  /// frame. Filled by the resolver; gates self-tail-call frame reuse.
  mutable bool TailPos = false;
  AppExpr(const Expr *Fn, const Expr *Arg, SourceLoc Loc)
      : Expr(ExprKind::App, Loc), Fn(Fn), Arg(Arg) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::App; }
};

/// `letrec f = e1 in e2`. The paper's grammar fixes e1 to a lambda; the
/// Section 8 demon example also uses plain value bindings (`letrec l1 =
/// {l1}:(...) in ...`), so we accept any e1. Self-reference during the
/// strict evaluation of a non-lambda e1 is a run-time error.
class LetrecExpr : public Expr {
public:
  Symbol Name;
  const Expr *Bound, *Body;
  /// Resolver annotations. A letrec is either a *frame head* (Shape
  /// non-null: evaluating it allocates a fresh frame whose slot 0 is Name)
  /// or a *member* (Shape null, SlotIndex > 0 possible: it writes its
  /// binding into slot SlotIndex of the frame already current, which the
  /// enclosing head preallocated). Null/0 until the resolver runs.
  mutable const FrameShape *Shape = nullptr;
  mutable uint32_t SlotIndex = 0;
  LetrecExpr(Symbol Name, const Expr *Bound, const Expr *Body, SourceLoc Loc)
      : Expr(ExprKind::Letrec, Loc), Name(Name), Bound(Bound), Body(Body) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Letrec; }
};

class Prim1Expr : public Expr {
public:
  Prim1Op Op;
  const Expr *Arg;
  Prim1Expr(Prim1Op Op, const Expr *Arg, SourceLoc Loc)
      : Expr(ExprKind::Prim1, Loc), Op(Op), Arg(Arg) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Prim1; }
};

class Prim2Expr : public Expr {
public:
  Prim2Op Op;
  const Expr *Lhs, *Rhs;
  Prim2Expr(Prim2Op Op, const Expr *Lhs, const Expr *Rhs, SourceLoc Loc)
      : Expr(ExprKind::Prim2, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Prim2; }
};

/// `{mu}: e` — the annotated-syntax production added by the syntactic
/// functional Hbar of Section 4.1.
class AnnotExpr : public Expr {
public:
  const Annotation *Ann;
  const Expr *Inner;
  AnnotExpr(const Annotation *Ann, const Expr *Inner, SourceLoc Loc)
      : Expr(ExprKind::Annot, Loc), Ann(Ann), Inner(Inner) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Annot; }
};

/// Checked downcast in the LLVM style (kind-tag based, no RTTI).
template <typename T> const T *cast(const Expr *E) {
  assert(E && T::classof(E) && "cast to wrong expression kind");
  return static_cast<const T *>(E);
}

template <typename T> const T *dyn_cast(const Expr *E) {
  return E && T::classof(E) ? static_cast<const T *>(E) : nullptr;
}

//===----------------------------------------------------------------------===//
// AstContext
//===----------------------------------------------------------------------===//

/// Owns the storage of a program's AST: expression nodes live in a bump
/// arena; annotations and string literals (which need destructors) live in
/// stable deques.
class AstContext {
public:
  AstContext() = default;
  AstContext(const AstContext &) = delete;
  AstContext &operator=(const AstContext &) = delete;

  const Expr *mkInt(int64_t V, SourceLoc Loc = {}) {
    return A.create<ConstExpr>(ConstVal::mkInt(V), Loc);
  }
  const Expr *mkBool(bool V, SourceLoc Loc = {}) {
    return A.create<ConstExpr>(ConstVal::mkBool(V), Loc);
  }
  const Expr *mkNil(SourceLoc Loc = {}) {
    return A.create<ConstExpr>(ConstVal::mkNil(), Loc);
  }
  const Expr *mkStr(std::string S, SourceLoc Loc = {}) {
    Strings.push_back(std::move(S));
    return A.create<ConstExpr>(ConstVal::mkStr(&Strings.back()), Loc);
  }
  const Expr *mkConst(ConstVal V, SourceLoc Loc = {}) {
    if (V.K == ConstVal::Kind::Str)
      return mkStr(*V.Str, Loc);
    return A.create<ConstExpr>(V, Loc);
  }
  const Expr *mkVar(Symbol Name, SourceLoc Loc = {}) {
    return A.create<VarExpr>(Name, Loc);
  }
  const Expr *mkLam(Symbol Param, const Expr *Body, SourceLoc Loc = {}) {
    return A.create<LamExpr>(Param, Body, Loc);
  }
  const Expr *mkIf(const Expr *C, const Expr *T, const Expr *E,
                   SourceLoc Loc = {}) {
    return A.create<IfExpr>(C, T, E, Loc);
  }
  const Expr *mkApp(const Expr *Fn, const Expr *Arg, SourceLoc Loc = {}) {
    return A.create<AppExpr>(Fn, Arg, Loc);
  }
  const Expr *mkLetrec(Symbol Name, const Expr *Bound, const Expr *Body,
                       SourceLoc Loc = {}) {
    return A.create<LetrecExpr>(Name, Bound, Body, Loc);
  }
  const Expr *mkPrim1(Prim1Op Op, const Expr *Arg, SourceLoc Loc = {}) {
    return A.create<Prim1Expr>(Op, Arg, Loc);
  }
  const Expr *mkPrim2(Prim2Op Op, const Expr *L, const Expr *R,
                      SourceLoc Loc = {}) {
    return A.create<Prim2Expr>(Op, L, R, Loc);
  }
  const Expr *mkAnnot(const Annotation *Ann, const Expr *Inner,
                      SourceLoc Loc = {}) {
    return A.create<AnnotExpr>(Ann, Inner, Loc);
  }

  /// Copies \p Ann into this context and returns a stable pointer.
  const Annotation *internAnnotation(Annotation Ann) {
    Annotations.push_back(std::move(Ann));
    return &Annotations.back();
  }

  size_t numAnnotations() const { return Annotations.size(); }

private:
  Arena A;
  std::deque<Annotation> Annotations;
  std::deque<std::string> Strings;
};

//===----------------------------------------------------------------------===//
// Structural utilities
//===----------------------------------------------------------------------===//

/// Structural equality (annotations compared by content).
bool exprEquals(const Expr *A, const Expr *B);

/// Deep-copies \p E into \p Ctx (which may differ from the owning context).
const Expr *cloneExpr(AstContext &Ctx, const Expr *E);

/// Number of nodes, counting annotations.
size_t exprSize(const Expr *E);

/// Nodes on the longest root-to-leaf path of \p E (a leaf has depth 1).
/// Iterative, so it is safe on trees deeper than the C stack could
/// recurse through. When \p Deepest is given, it receives a node on that
/// path at the greatest depth.
size_t exprDepth(const Expr *E, const Expr **Deepest = nullptr);

/// Collects every annotation reachable in \p E in pre-order.
void collectAnnotations(const Expr *E, std::vector<const Annotation *> &Out);

/// Collects every node of \p E in pre-order (children visited in field
/// order). Because every ExprKind has a fixed arity, a node's pre-order
/// position is a stable identity across processes for structurally
/// identical trees — the checkpoint format uses it to name expressions.
void collectExprs(const Expr *E, std::vector<const Expr *> &Out);

/// Deterministic structural fingerprint: FNV-1a over the pre-order stream
/// of node kinds, constants, binder/variable spellings and annotation text.
/// Equal for structurally equal trees in any process; used to refuse
/// resuming a checkpoint against a different program.
uint64_t exprFingerprint(const Expr *E);

/// Strips every annotation node: the mapping from sbar back to s used in the
/// soundness theorem (Thm. 7.7).
const Expr *stripAnnotations(AstContext &Ctx, const Expr *E);

} // namespace monsem

#endif // MONSEM_SYNTAX_AST_H
