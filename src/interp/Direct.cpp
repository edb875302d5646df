//===- interp/Direct.cpp ---------------------------------------------------===//

#include "interp/Direct.h"

#include <pthread.h>

using namespace monsem;

DirectValuation monsem::fixpoint(DirectFunctional G) {
  // The recursive references inside the knot are non-owning: if Self held
  // the shared_ptr, `*Hole = G(Self)` would store Self inside Hole and
  // the reference cycle would never be collected. Only the returned
  // valuation owns Hole, so destroying it frees the whole structure.
  auto Hole = std::make_shared<DirectValuation>();
  DirectValuation *Raw = Hole.get();
  DirectValuation Self = [Raw](const Expr *E, EnvNode *Env,
                               const DirectKont &K) { (*Raw)(E, Env, K); };
  *Hole = G(Self);
  return [Hole, Self](const Expr *E, EnvNode *Env, const DirectKont &K) {
    Self(E, Env, K);
  };
}

namespace {

/// Delivers \p V to \p K, forcing it first if it is a thunk: re-evaluated
/// under call-by-name, evaluated once and memoized under call-by-need.
/// Same black-hole text as the CEK machine.
void forceDirect(DirectContext &Ctx, const DirectValuation &Self, Value V,
                 const DirectKont &K) {
  if (!V.is(ValueKind::Thunk)) {
    K(V);
    return;
  }
  Thunk *T = V.asThunk();
  switch (T->St) {
  case Thunk::State::Forced:
    K(T->Memo);
    return;
  case Thunk::State::Forcing:
    Ctx.fail("infinite value dependency (black hole)");
    return;
  case Thunk::State::Unforced:
    break;
  }
  if (Ctx.Strat != Strategy::CallByNeed) {
    Self(T->E, T->Env, K);
    return;
  }
  T->St = Thunk::State::Forcing;
  Self(T->E, T->Env, [T, &K](Value R) {
    T->St = Thunk::State::Forced;
    T->Memo = R;
    K(R);
  });
}

/// Applies function value \p Fn to \p Arg; recursive evaluation goes
/// through \p Self (the fixpoint), so derived behavior is inherited at all
/// levels of recursion.
void applyDirect(DirectContext &Ctx, const DirectValuation &Self, Value Fn,
                 Value Arg, const DirectKont &K) {
  if (Arg.is(ValueKind::Thunk) &&
      (Fn.is(ValueKind::Prim1) || Fn.is(ValueKind::Prim2) ||
       Fn.is(ValueKind::Prim2Partial))) {
    // Primitives are strict: force the argument, then apply.
    forceDirect(Ctx, Self, Arg, [&Ctx, &Self, Fn, &K](Value V) {
      applyDirect(Ctx, Self, Fn, V, K);
    });
    return;
  }
  switch (Fn.kind()) {
  case ValueKind::Closure: {
    Closure *C = Fn.asClosure();
    EnvNode *Env = extendEnv(Ctx.A, C->Env, C->L->Param, Arg);
    Self(C->L->Body, Env, K);
    return;
  }
  case ValueKind::Prim1: {
    PrimResult R = applyPrim1(Fn.asPrim1(), Arg, Ctx.A);
    if (!R.Ok) {
      Ctx.fail(std::move(R.Error));
      return;
    }
    K(R.Val);
    return;
  }
  case ValueKind::Prim2: {
    PrimPartial *PP = Ctx.A.create<PrimPartial>(Fn.asPrim2(), Arg);
    K(Value::mkPrim2Partial(PP));
    return;
  }
  case ValueKind::Prim2Partial: {
    PrimPartial *PP = Fn.asPrim2Partial();
    PrimResult R = applyPrim2(PP->Op, PP->First, Arg, Ctx.A);
    if (!R.Ok) {
      Ctx.fail(std::move(R.Error));
      return;
    }
    K(R.Val);
    return;
  }
  default:
    Ctx.fail("cannot apply a non-function value (" + toDisplayString(Fn) +
             ")");
    return;
  }
}

} // namespace

// Continuations capture the enclosing continuation (and the recursive
// valuation Self) by reference. That is sound because answers are
// delivered by side effect, never by return: a continuation runs, if at
// all, before the valuation call it was handed to returns, and nothing
// stores one (thunks hold expressions and environments). Capturing by
// value would copy the whole continuation chain at every nesting level.
DirectFunctional monsem::standardFunctional(DirectContext &Ctx) {
  return [&Ctx](const DirectValuation &Self) -> DirectValuation {
    return [&Ctx, Self](const Expr *E, EnvNode *Env, const DirectKont &K) {
      if (Ctx.stopped() || !Ctx.charge())
        return;
      switch (E->kind()) {
      case ExprKind::Const: {
        const ConstVal &C = cast<ConstExpr>(E)->Val;
        switch (C.K) {
        case ConstVal::Kind::Int:
          K(Value::mkInt(C.Int, Ctx.A));
          return;
        case ConstVal::Kind::Bool:
          K(Value::mkBool(C.Bool));
          return;
        case ConstVal::Kind::Str:
          K(Value::mkStr(C.Str));
          return;
        case ConstVal::Kind::Nil:
          K(Value::mkNil());
          return;
        }
        return;
      }
      case ExprKind::Var: {
        const auto *V = cast<VarExpr>(E);
        EnvNode *N = lookupEnv(Env, V->Name);
        if (!N) {
          Ctx.fail("unbound variable '" + std::string(V->Name.str()) +
                   "' at " + E->loc().str());
          return;
        }
        if (N->Val.isUnit()) {
          Ctx.fail("letrec variable '" + std::string(V->Name.str()) +
                   "' referenced before initialization");
          return;
        }
        forceDirect(Ctx, Self, N->Val, K);
        return;
      }
      case ExprKind::Lam: {
        const auto *L = cast<LamExpr>(E);
        Closure *C = Ctx.A.create<Closure>(L, Env);
        K(Value::mkClosure(C));
        return;
      }
      case ExprKind::If: {
        const auto *I = cast<IfExpr>(E);
        // E[e1] rho { \v. v|Bool -> E[e2] rho k, E[e3] rho k }
        Self(I->Cond, Env, [&Ctx, &Self, I, Env, &K](Value V) {
          if (!V.is(ValueKind::Bool)) {
            Ctx.fail("conditional scrutinee must be a boolean, found " +
                     toDisplayString(V));
            return;
          }
          Self(V.asBool() ? I->Then : I->Else, Env, K);
        });
        return;
      }
      case ExprKind::App: {
        const auto *App = cast<AppExpr>(E);
        if (Ctx.Strat != Strategy::Strict) {
          // Lazy: suspend the operand, evaluate the operator.
          Value Arg = Value::mkThunk(Ctx.A.create<Thunk>(
              App->Arg, Env, Thunk::State::Unforced, Value()));
          Self(App->Fn, Env, [&Ctx, &Self, Arg, &K](Value V1) {
            applyDirect(Ctx, Self, V1, Arg, K);
          });
          return;
        }
        // E[e2] rho { \v2. E[e1] rho { \v1. (v1|Fun) v2 k } }
        Self(App->Arg, Env, [&Ctx, &Self, App, Env, &K](Value V2) {
          Self(App->Fn, Env, [&Ctx, &Self, V2, &K](Value V1) {
            applyDirect(Ctx, Self, V1, V2, K);
          });
        });
        return;
      }
      case ExprKind::Letrec: {
        const auto *L = cast<LetrecExpr>(E);
        EnvNode *Node = extendEnv(Ctx.A, Env, L->Name, Value::mkUnit());
        if (Ctx.Strat != Strategy::Strict) {
          // Lazy: bind the name to a suspension of the bound expression in
          // the extended environment.
          Node->Val = Value::mkThunk(Ctx.A.create<Thunk>(
              L->Bound, Node, Thunk::State::Unforced, Value()));
          Self(L->Body, Node, K);
          return;
        }
        Self(L->Bound, Node, [&Ctx, &Self, L, Node, &K](Value V) {
          Node->Val = V; // rho' = rho[f -> ...]: tie the knot.
          Self(L->Body, Node, K);
        });
        return;
      }
      case ExprKind::Prim1: {
        const auto *P = cast<Prim1Expr>(E);
        Self(P->Arg, Env, [&Ctx, P, &K](Value V) {
          PrimResult R = applyPrim1(P->Op, V, Ctx.A);
          if (!R.Ok) {
            Ctx.fail(std::move(R.Error));
            return;
          }
          K(R.Val);
        });
        return;
      }
      case ExprKind::Prim2: {
        const auto *P = cast<Prim2Expr>(E);
        Self(P->Lhs, Env, [&Ctx, &Self, P, Env, &K](Value L) {
          Self(P->Rhs, Env, [&Ctx, P, L, &K](Value R) {
            PrimResult PR = applyPrim2(P->Op, L, R, Ctx.A);
            if (!PR.Ok) {
              Ctx.fail(std::move(PR.Error));
              return;
            }
            K(PR.Val);
          });
        });
        return;
      }
      case ExprKind::Annot:
        // G is oblivious to monitor annotations (Definition 7.1):
        // G_obl V [{mu}: sbar] a* k = V [sbar] a* k.
        Self(cast<AnnotExpr>(E)->Inner, Env, K);
        return;
      }
    };
  };
}

DirectFunctional monsem::deriveMonitoring(DirectFunctional G, const Monitor &M,
                                          MonitorState &State,
                                          const MonitorContext &MCtx,
                                          DirectContext &Ctx,
                                          FaultIsolator *Iso,
                                          unsigned MonitorIdx) {
  return [G, &M, &State, &MCtx, &Ctx, Iso, MonitorIdx](
             const DirectValuation &Self) -> DirectValuation {
    // Gbar Vbar: for non-annotated syntax, inherit G's equations (with the
    // *derived* fixpoint Vbar as the recursive valuation).
    DirectValuation Inherited = G(Self);
    return [&M, &State, &MCtx, &Ctx, Iso, MonitorIdx, Inherited, Self](
               const Expr *E, EnvNode *Env, const DirectKont &K) {
      if (Ctx.stopped())
        return;
      if (const auto *N = dyn_cast<AnnotExpr>(E)) {
        const Annotation &Ann = *N->Ann;
        bool Mine = Ann.Qual ? Ann.Qual.str() == M.name() : M.accepts(Ann);
        if (Mine) {
          // (Vbar [sbar'] a* kpost) . updPre   (Definition 4.2)
          MonitorEvent Pre{Ann,      *N->Inner, EnvView(Env),
                           Ctx.Calls, Ctx.A.bytesAllocated(), MCtx};
          if (Iso)
            Iso->guard(MonitorIdx, M.name(), [&Ann] { return Ann.text(); },
                       /*InPost=*/false, Ctx.Calls,
                       [&] { M.pre(Pre, State); });
          else
            M.pre(Pre, State);
          const Expr *Inner = N->Inner;
          DirectKont KPost = [&M, &State, &MCtx, &Ctx, Iso, MonitorIdx, N,
                              Inner, Env, &K](Value V) {
            // kpost = { \iota*. (k iota*) . updPost }
            MonitorEvent Post{*N->Ann,   *Inner, EnvView(Env), Ctx.Calls,
                              Ctx.A.bytesAllocated(), MCtx};
            if (Iso)
              Iso->guard(MonitorIdx, M.name(),
                         [N] { return N->Ann->text(); }, /*InPost=*/true,
                         Ctx.Calls,
                         [&] { M.post(Post, V, State); });
            else
              M.post(Post, V, State);
            K(V);
          };
          Self(Inner, Env, KPost);
          return;
        }
      }
      Inherited(E, Env, K);
    };
  };
}

namespace {

/// MonitorContext exposing the first N states of a cascade run.
class PrefixContext : public MonitorContext {
public:
  PrefixContext(const std::vector<std::unique_ptr<MonitorState>> &States,
                unsigned N)
      : States(States), N(N) {}
  unsigned numInnerMonitors() const override { return N; }
  const MonitorState &innerState(unsigned I) const override {
    return *States[I];
  }

private:
  const std::vector<std::unique_ptr<MonitorState>> &States;
  unsigned N;
};

/// Stack kept free below the deepest valuation call: room for what one
/// call does after its charge (primitives, monitor hooks, rendering).
constexpr uintptr_t kStackReserve = 256 * 1024;

/// The most stack a run may use. Under `ulimit -s unlimited` the initial
/// thread's reported base is the next mapping down, which the kernel's
/// guard gap keeps the stack from reaching; this bound comes first.
constexpr uintptr_t kMaxStack = uintptr_t(1) << 30;

/// The calling thread's stack base plus kStackReserve, or 0 when the
/// bounds are unknown.
uintptr_t stackFloor() {
  pthread_attr_t Attr;
  if (pthread_getattr_np(pthread_self(), &Attr) != 0)
    return 0;
  void *Base = nullptr;
  size_t Size = 0;
  int Rc = pthread_attr_getstack(&Attr, &Base, &Size);
  pthread_attr_destroy(&Attr);
  if (Rc != 0 || !Base)
    return 0;
  uintptr_t Low = reinterpret_cast<uintptr_t>(Base);
  if (Size > kMaxStack)
    Low += Size - kMaxStack;
  return Low + kStackReserve;
}

} // namespace

RunResult monsem::runDirect(const Expr *Program, const Cascade *C,
                            uint64_t CallBudget) {
  DirectOptions Opts;
  Opts.CallBudget = CallBudget;
  return runDirect(Program, C, Opts);
}

RunResult monsem::runDirect(const Expr *Program, const Cascade *C,
                            const DirectOptions &Opts) {
  DirectContext Ctx;
  Ctx.CallBudget = Opts.CallBudget;
  Ctx.Strat = Opts.Strat;
  Ctx.StackFloor = stackFloor();
  Governor Gov(Opts.Limits);
  Ctx.Gov = Opts.Limits.any() ? &Gov : nullptr;
  Ctx.A.setByteLimit(Gov.arenaByteCap());

  FaultIsolator Iso;
  std::vector<std::unique_ptr<MonitorState>> States;
  std::vector<std::unique_ptr<PrefixContext>> MCtxs;
  DirectFunctional G = standardFunctional(Ctx);
  if (C) {
    Iso.configure(C->size(), Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
    for (unsigned I = 0; I < C->size(); ++I) {
      States.push_back(C->monitor(I).initialState());
      MCtxs.push_back(std::make_unique<PrefixContext>(States, I));
      if (auto P = C->faultPolicy(I))
        Iso.setPolicy(I, *P);
      G = deriveMonitoring(G, C->monitor(I), *States[I], *MCtxs[I], Ctx,
                           &Iso, I);
    }
  }

  DirectValuation V = fixpoint(G);
  DirectKont KInit = [&Ctx](Value Val) {
    Ctx.Result = Val;
    Ctx.HasResult = true;
  };
  try {
    V(Program, initialEnv(Ctx.A), KInit);
  } catch (const MonitorAbort &E) {
    Ctx.Failed = true;
    Ctx.Error = E.what();
  } catch (const ArenaLimitExceeded &) {
    Ctx.Stop = Outcome::MemoryExceeded;
  }

  RunResult R;
  R.Steps = Ctx.Calls;
  R.FinalStates = std::move(States);
  R.MonitorFaults = Iso.takeFaults();
  if (Ctx.Stop != Outcome::Ok) {
    R.setOutcome(Ctx.Stop);
    return R;
  }
  if (Ctx.Failed || !Ctx.HasResult) {
    R.setOutcome(Outcome::Error);
    R.Error = Ctx.Failed ? Ctx.Error : "no result produced";
    return R;
  }
  R.setOutcome(Outcome::Ok);
  R.ValueText = StdAnswerAlgebra::instance().render(Ctx.Result);
  if (Ctx.Result.is(ValueKind::Int))
    R.IntValue = Ctx.Result.asInt();
  if (Ctx.Result.is(ValueKind::Bool))
    R.BoolValue = Ctx.Result.asBool();
  return R;
}
