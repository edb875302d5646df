//===- interp/Direct.h - Definitional CPS interpreter -----------*- C++ -*-===//
///
/// \file
/// A direct transliteration of the paper's semantics into C++ closures.
/// This is the *reference* evaluator: it exists to realize the paper's
/// derivation technique literally and to cross-check the production CEK
/// machine (its defunctionalized form) and the VMs, not to run big
/// programs. CPS in C++ consumes C stack, so a call budget bounds
/// execution, and a stack guard stops the run with DepthExceeded before
/// the thread's stack runs out.
///
/// All three strategies of Section 9.2's language modules run here, the
/// way the CEK machine runs them: under call-by-name and call-by-need,
/// application operands and letrec bound expressions become Thunks over
/// the named environment chain, a variable reference forces them
/// (memoized under need, with the machine's black-hole error), and
/// primitives force their arguments.
///
/// The valuation type is the paper's
///
///   T_lambda = Exp -> Env -> Kont -> Ans      (Fig. 2)
///
/// and valuation *functionals* G : T -> T are first-class values here, so
/// the fixpoint construction `V = fix G`, the monitoring derivation
/// `Gbar` (Fig. 3), and cascading (Fig. 5: derive, treat as standard,
/// derive again) are all expressed exactly as in the paper:
///
///   Valuation Std  = fixpoint(standardFunctional(Ctx));
///   Valuation Mon  = fixpoint(deriveMonitoring(standardFunctional(Ctx),
///                                              monitor, state, Ctx));
///   // Cascading: wrap the already-derived functional again.
///   Valuation Mon2 = fixpoint(deriveMonitoring(deriveMonitoring(G, m1,
///                                              s1, Ctx), m2, s2, Ctx));
///
/// Monitor states are updated in place; because evaluation is sequential
/// and monitoring functions are state transformers, this is observationally
/// the paper's state-threading MS -> (Ans x MS).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_INTERP_DIRECT_H
#define MONSEM_INTERP_DIRECT_H

#include "interp/Machine.h"
#include "monitor/Cascade.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace monsem {

/// Shared mutable context of one direct-interpretation run: the arena, the
/// final answer slot, failure state, and the call budget.
struct DirectContext {
  Arena A;
  /// Aborts runaway CPS recursion (0 = unlimited). Every valuation call
  /// nests on the C stack until the final continuation fires, so the
  /// budget bounds the peak C-stack depth as well as the work
  /// (ResourceLimits::MaxDepth has no separate meaning here); StackFloor
  /// below is the hard stop when the stack runs out first.
  uint64_t CallBudget = 15000;
  /// Optional resource governor (deadline, arena cap, cancellation);
  /// checked from charge(), one compare per valuation call.
  Governor *Gov = nullptr;
  /// Evaluation strategy (Section 9.2's language modules).
  Strategy Strat = Strategy::Strict;
  /// A valuation call whose frame lies below this address stops the run
  /// with DepthExceeded: the thread's stack base plus a reserve for the
  /// work one call does after its charge (see runDirect). 0 = unchecked.
  uintptr_t StackFloor = 0;

  // Run state.
  uint64_t Calls = 0;
  bool Failed = false;
  Outcome Stop = Outcome::Ok; ///< Governance stop reason, if any.
  std::string Error;
  Value Result;
  bool HasResult = false;

  /// True once any stop condition fired; valuations and continuations
  /// unwind without further work.
  bool stopped() const { return Failed || Stop != Outcome::Ok; }

  void fail(std::string Msg) {
    if (stopped())
      return;
    Failed = true;
    Error = std::move(Msg);
  }

  /// Charges one valuation call; false when out of budget, out of C
  /// stack, or stopped by the governor.
  bool charge() {
    ++Calls;
    if (CallBudget && Calls > CallBudget) {
      Stop = Outcome::FuelExhausted;
      return false;
    }
    if (reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <
        StackFloor) {
      Stop = Outcome::DepthExceeded;
      return false;
    }
    if (Gov && Calls >= Gov->nextPause()) {
      Outcome O = Gov->pause(Calls, A.bytesAllocated(), /*Depth=*/0);
      if (O != Outcome::Ok) {
        Stop = O;
        return false;
      }
    }
    return true;
  }
};

/// Kont = V -> Ans. Answers are delivered by side effect into the context,
/// so the C++ return type is void; every continuation call is a tail call
/// in the semantics (Reynolds' "serious" functions).
using DirectKont = std::function<void(Value)>;

/// The valuation-function type T_lambda.
using DirectValuation =
    std::function<void(const Expr *, EnvNode *, const DirectKont &)>;

/// A valuation functional G : T_lambda -> T_lambda.
using DirectFunctional =
    std::function<DirectValuation(const DirectValuation &)>;

/// fix : (T -> T) -> T, by knot-tying.
DirectValuation fixpoint(DirectFunctional G);

/// G_lambda of Fig. 2, under the strategy Ctx.Strat.
DirectFunctional standardFunctional(DirectContext &Ctx);

/// Gbar of Fig. 3 / Definition 4.2, derived from any functional \p G:
/// handles annotations accepted by \p M (updPre / kappa_post with updPost)
/// and inherits \p G's behavior everywhere else. Wrapping an already
/// derived functional yields the doubly-derived semantics of Fig. 5.
///
/// When \p Iso is given, updPre/updPost run inside its fault boundary as
/// monitor \p MonitorIdx (see FaultIsolation.h); without it a throwing
/// hook propagates.
DirectFunctional deriveMonitoring(DirectFunctional G, const Monitor &M,
                                  MonitorState &State,
                                  const MonitorContext &MCtx,
                                  DirectContext &Ctx,
                                  FaultIsolator *Iso = nullptr,
                                  unsigned MonitorIdx = 0);

/// Everything runDirect needs beyond the program and cascade.
struct DirectOptions {
  Strategy Strat = Strategy::Strict;
  uint64_t CallBudget = 15000;
  ResourceLimits Limits;
  FaultPolicy MonitorFaultPolicy = FaultPolicy::Quarantine;
  unsigned MonitorRetryBudget = 3;
};

/// Convenience: derives a full cascade (innermost first) and runs
/// \p Program to a RunResult comparable with the CEK machine's.
RunResult runDirect(const Expr *Program, const Cascade *C = nullptr,
                    uint64_t CallBudget = 15000);

/// Same, with a full resource budget and monitor fault policy.
RunResult runDirect(const Expr *Program, const Cascade *C,
                    const DirectOptions &Opts);

} // namespace monsem

#endif // MONSEM_INTERP_DIRECT_H
