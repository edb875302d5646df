//===- analysis/Resolver.h - Lexical-address resolution ---------*- C++ -*-===//
///
/// \file
/// The static resolution pass behind the CEK machine's level-2
/// specialization (Section 9.1 of the paper: after fixing the monitor
/// specification, fix the *program* and precompute everything the standard
/// semantics would otherwise rediscover at run time).
///
/// For every variable occurrence the pass computes a lexical address
/// `(frame depth, slot index)` into a chain of flat, array-backed
/// environment frames, so the machine's Var transition is two pointer hops
/// and an array index instead of an O(env-depth) name scan. For every
/// binder it computes the frame layout ("per-binder slot counts"): each
/// lambda owns one frame whose slot 0 is its parameter, and letrec binders
/// are *coalesced* into the nearest enclosing frame whenever that is
/// observationally sound, so a letrec in a hot function body costs a slot
/// write instead of an environment allocation.
///
/// Coalescing rule: a letrec joins the enclosing frame iff the path from
/// the frame owner's body to the letrec crosses only edges that (a) keep
/// the runtime environment unchanged and (b) are evaluated at most once
/// per frame instance under *every* strategy: If cond/branches, App
/// operator, primitive operands, annotation bodies, and letrec bodies.
/// App operands and letrec bound expressions are excluded — under the lazy
/// strategies they become thunks that may re-evaluate, and a re-evaluated
/// letrec must allocate a fresh frame (exactly like the Direct
/// interpreter's named chain allocates a fresh node) so closures captured
/// by an earlier evaluation keep their own binding.
///
/// Free variables naming primitives resolve to Global slots in the shared
/// initial frame; other free variables resolve to a static Unbound marker
/// that reproduces the standard semantics' run-time error. The pass also
/// records the classic binder-counted de Bruijn distance that the bytecode
/// compiler uses as its compile-time environment shape.
///
/// Results are stored in mutable annotation fields of the AST (VarExpr,
/// LamExpr, LetrecExpr); the returned Resolution owns the frame shapes
/// those annotations point to and must outlive any run that uses them.
/// Resolution is only well-defined for trees: if the same node is
/// reachable twice (a DAG) the pass reports !ok(), and both executors that
/// consume it — the CEK machine and the bytecode compiler — refuse the
/// program with kSharedNodesError. Every producer in the repo (parser,
/// prelude wrapper, annotators, partial evaluator) emits trees; cloneExpr
/// turns a hand-built DAG into one. Monitors keep named lookup through
/// EnvView over the frames' slot names, so Thm. 7.7 holds on flat frames.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_ANALYSIS_RESOLVER_H
#define MONSEM_ANALYSIS_RESOLVER_H

#include "syntax/Ast.h"

#include <deque>
#include <memory>

namespace monsem {

/// What the CEK machine and the bytecode compiler report for a program
/// that does not resolve because it shares AST nodes.
inline constexpr const char *kSharedNodesError =
    "program shares syntax nodes (a DAG, not a tree) and cannot be run; "
    "copy it into a tree first (cloneExpr)";

/// Owns the frame shapes referenced by a resolved AST's annotations.
class Resolution {
public:
  /// False when the program is not a tree (shared nodes) and per-node
  /// addresses would be ambiguous; the AST annotations are then invalid
  /// and the program cannot be run (see kSharedNodesError).
  bool ok() const { return Ok; }

  /// Shape of the program's top-level frame (letrecs at the program's
  /// outermost level live here). May have zero slots.
  const FrameShape *rootShape() const { return Root; }

  /// Total number of frame shapes (diagnostics/tests).
  size_t numShapes() const { return Shapes.size(); }

  /// Shape-id decode table for run-time frames: entry `S->Id` is `S`.
  /// Entry 0 is the shared primitives-frame shape (seeded by the
  /// resolver); machines hand this to EnvView so monitors can map a
  /// frame's packed shape id back to its slot names.
  const FrameShape *const *shapeTable() const { return Table.data(); }

private:
  friend class Resolver;
  FrameShape *newShape() {
    Shapes.emplace_back();
    FrameShape *S = &Shapes.back();
    S->Id = static_cast<uint32_t>(Table.size());
    Table.push_back(S);
    return S;
  }

  std::deque<FrameShape> Shapes;
  std::vector<const FrameShape *> Table;
  const FrameShape *Root = nullptr;
  bool Ok = true;
};

/// Runs the resolution pass over \p Program (see file comment). Always
/// returns a Resolution; check ok() before using the annotations.
///
/// The pass *writes* the AST annotation fields, so it must never run
/// concurrently with anything reading them — including another run of the
/// same tree. Single-threaded analysis and tests may call this directly;
/// execution paths (interpreter, compiler) go through
/// resolveProgramCached() instead, which serializes the write and reuses
/// one Resolution per tree.
std::unique_ptr<Resolution> resolveProgram(const Expr *Program);

/// Memoized, thread-safe front end to resolveProgram(): resolves each tree
/// at most once and hands every caller the same Resolution, pinned by a
/// process-wide cache so it outlives all runs that use it. This is what
/// makes one Expr tree shareable by concurrent runs (Session workers
/// time-slicing many runs of one program): the mutating pass happens once,
/// under the cache mutex — which also publishes the annotation writes to
/// every thread that looks the tree up afterwards — and later lookups are
/// read-only. Stale entries (the tree died; a new one reuses the root
/// address) are detected via Expr::ResolutionStamp and re-resolved.
std::shared_ptr<const Resolution> resolveProgramCached(const Expr *Program);

} // namespace monsem

#endif // MONSEM_ANALYSIS_RESOLVER_H
