//===- pe/PartialEval.h - Online partial evaluation -------------*- C++ -*-===//
///
/// \file
/// The paper's third level of specialization (Section 9.1, Fig. 10):
/// specializing an (instrumented) program with respect to partial input.
/// This is an *online* partial evaluator for L_lambda: it interprets the
/// static parts of a program at specialization time (constant folding,
/// conditional pruning, call unfolding) and emits residual code for the
/// dynamic parts, including memoized residual versions of letrec functions
/// whose calls cannot be unfolded.
///
/// Monitoring annotations are the canonical *dynamic* computation: an
/// annotated expression always residualizes (with its annotation intact),
/// so the residual program performs exactly the same monitoring events, in
/// the same order, with the same values — specialization preserves the
/// monitoring semantics, not just the standard one (checked by property
/// tests).
///
/// Safety rules guaranteeing that the residual program has the original's
/// observable behavior under the strict semantics:
///  * a dynamic argument is substituted into an unfolded body only when it
///    is trivial (a variable); otherwise a residual beta-redex keeps the
///    argument's evaluation (and thus its errors, divergence, and
///    monitoring events) exactly where the original had it;
///  * primitive applications fold only when they succeed; failing ones
///    (hd [], division by zero) residualize so the error stays at run time;
///  * every residual binder is freshly named, preventing capture;
///  * residual letrec definitions are emitted at the original letrec site,
///    so they close over exactly what the source function closed over.
///
/// The residual is always a tree (no node is reachable twice), so the
/// resolver accepts it and every backend can run it.
///
/// The specializer gives up (returning the original program and GaveUp =
/// true) on its step/depth budgets or on shapes it cannot scope correctly
/// (e.g. a recursive closure escaping its letrec and being specialized
/// later). Giving up is always sound.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_PE_PARTIALEVAL_H
#define MONSEM_PE_PARTIALEVAL_H

#include "syntax/Ast.h"

#include <vector>

namespace monsem {

struct PEOptions {
  /// Maximum nested call unfoldings before a call residualizes.
  unsigned MaxUnfoldDepth = 200;
  /// Specializer work budget (peval steps) before giving up.
  uint64_t MaxSteps = 400000;
  /// C-stack guard for the recursive specializer.
  unsigned MaxDepth = 2500;
};

struct PEResult {
  const Expr *Residual = nullptr;
  bool GaveUp = false;
  uint64_t Steps = 0;
  unsigned Unfolds = 0;
  unsigned Specializations = 0;
};

/// Specializes the closed program \p Program (free variables other than
/// primitives are treated as dynamic inputs). The residual is built in
/// \p Out.
PEResult partialEvaluate(AstContext &Out, const Expr *Program,
                         PEOptions Opts = {});

/// Specializes the function expression \p Fn to the known arguments
/// \p StaticArgs, leaving \p NumDynamicArgs trailing arguments unknown.
/// The residual is a \p NumDynamicArgs-ary curried lambda; applying it to
/// the dynamic arguments is observationally equal to applying \p Fn to all
/// arguments.
PEResult specializeApply(AstContext &Out, const Expr *Fn,
                         const std::vector<const Expr *> &StaticArgs,
                         unsigned NumDynamicArgs, PEOptions Opts = {});

} // namespace monsem

#endif // MONSEM_PE_PARTIALEVAL_H
