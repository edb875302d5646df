//===- pe/PartialEval.cpp --------------------------------------------------===//

#include "pe/PartialEval.h"

#include "semantics/Primitives.h"
#include "support/Arena.h"
#include "syntax/Parser.h"

#include <string>
#include <unordered_set>

using namespace monsem;

namespace {

struct SClosure;

/// A specialization-time value: fully known (Ground), a known function
/// (Fun), or residual code (Dyn).
struct PEVal {
  enum class Kind : uint8_t { Ground, Fun, Dyn };
  Kind K = Kind::Dyn;
  Value V;                   ///< Ground (incl. primitives, ground cells).
  SClosure *F = nullptr;     ///< Fun.
  const Expr *Res = nullptr; ///< Dyn (expression in the output context).

  static PEVal ground(Value V) {
    PEVal R;
    R.K = Kind::Ground;
    R.V = V;
    return R;
  }
  static PEVal fun(SClosure *F) {
    PEVal R;
    R.K = Kind::Fun;
    R.F = F;
    return R;
  }
  static PEVal dyn(const Expr *E) {
    PEVal R;
    R.K = Kind::Dyn;
    R.Res = E;
    return R;
  }
  bool isStatic() const { return K != Kind::Dyn; }
};

struct PEEnvNode {
  Symbol Name;
  PEVal Val;
  PEEnvNode *Parent;
};

/// A known function value. RecName is set for letrec-bound functions;
/// such functions may acquire one memoized residual specialization
/// (SpecName/SpecLam) emitted at their letrec site.
struct SClosure {
  Symbol Param;
  const Expr *Body;
  PEEnvNode *Env;
  Symbol RecName;

  Symbol SpecName = {};
  const Expr *SpecLam = nullptr;
  bool SpecInProgress = false;
  bool Emitted = false; ///< The letrec scope has closed.
};

class PE {
public:
  PE(AstContext &Out, PEOptions Opts) : Out(Out), Opts(Opts) {}

  PEResult run(const Expr *Program) {
    PEVal R = peval(Program, nullptr, 0);
    PEResult Result;
    if (!GaveUp)
      Result.Residual = lift(R); // May itself give up.
    if (GaveUp) {
      Result.GaveUp = true;
      Result.Residual = cloneExpr(Out, Program);
    }
    Result.Steps = Steps;
    Result.Unfolds = Unfolds;
    Result.Specializations = Specializations;
    return Result;
  }

private:
  AstContext &Out;
  PEOptions Opts;
  Arena A;
  uint64_t Steps = 0;
  unsigned Depth = 0;
  unsigned Unfolds = 0;
  unsigned Specializations = 0;
  unsigned FreshCounter = 0;
  bool GaveUp = false;
  /// Dynamic residual nodes already placed in the output (see lift()).
  std::unordered_set<const Expr *> Placed;

  Symbol fresh(std::string_view Base) {
    return Symbol::intern(std::string(Base) + "_" +
                          std::to_string(FreshCounter++));
  }

  PEEnvNode *extend(PEEnvNode *Env, Symbol Name, PEVal V) {
    return A.create<PEEnvNode>(Name, V, Env);
  }

  PEVal giveUp() {
    GaveUp = true;
    return PEVal::dyn(Out.mkInt(0));
  }

  //===--------------------------------------------------------------------===//
  // Lifting static values into residual code
  //===--------------------------------------------------------------------===//

  const Expr *liftValue(Value V) {
    switch (V.kind()) {
    case ValueKind::Int:
      return Out.mkInt(V.asInt());
    case ValueKind::Bool:
      return Out.mkBool(V.asBool());
    case ValueKind::Nil:
      return Out.mkNil();
    case ValueKind::Str:
      return Out.mkStr(V.asStr());
    case ValueKind::Cell:
      return Out.mkPrim2(Prim2Op::Cons, liftValue(V.asCell()->Head),
                         liftValue(V.asCell()->Tail));
    case ValueKind::Prim1:
      return Out.mkVar(Symbol::intern(prim1Name(V.asPrim1())));
    case ValueKind::Prim2: {
      // Only named (non-infix) primitives can occur as first-class
      // statics; infix operator values are never bound in environments.
      if (isInfix(V.asPrim2())) {
        GaveUp = true;
        return Out.mkInt(0);
      }
      return Out.mkVar(Symbol::intern(prim2Name(V.asPrim2())));
    }
    case ValueKind::Prim2Partial: {
      PrimPartial *PP = V.asPrim2Partial();
      if (isInfix(PP->Op)) {
        GaveUp = true;
        return Out.mkInt(0);
      }
      return Out.mkApp(Out.mkVar(Symbol::intern(prim2Name(PP->Op))),
                       liftValue(PP->First));
    }
    default:
      GaveUp = true;
      return Out.mkInt(0);
    }
  }

  /// Residualizes a known closure as a lambda with a fresh parameter.
  const Expr *liftClosure(SClosure *C) {
    Symbol P = fresh(C->Param.str());
    PEEnvNode *Env = extend(C->Env, C->Param, PEVal::dyn(Out.mkVar(P)));
    // A residual function body starts a fresh unfolding context.
    const Expr *Body = lift(peval(C->Body, Env, 0));
    return Out.mkLam(P, Body);
  }

  /// Residual code for \p V, at a single place in the output. A dynamic
  /// value may be lifted more than once (a variable bound to residual code
  /// and referenced twice); its node goes into the first place and a copy
  /// into every later one, so the residual is a tree, never a DAG.
  const Expr *lift(PEVal V) {
    switch (V.K) {
    case PEVal::Kind::Ground:
      return liftValue(V.V);
    case PEVal::Kind::Fun:
      return liftClosure(V.F);
    case PEVal::Kind::Dyn:
      return Placed.insert(V.Res).second ? V.Res : cloneExpr(Out, V.Res);
    }
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Function application
  //===--------------------------------------------------------------------===//

  /// The memoized dynamic-argument specialization of a letrec function.
  Symbol ensureSpec(SClosure *C) {
    if (C->Emitted && !C->SpecLam) {
      // The letrec scope has already closed; a fresh specialization could
      // not be scoped. Sound fallback: give up.
      GaveUp = true;
      return C->RecName;
    }
    if (C->SpecName && (C->SpecInProgress || C->SpecLam))
      return C->SpecName;
    ++Specializations;
    C->SpecName = fresh(C->RecName ? C->RecName.str() : "fn");
    C->SpecInProgress = true;
    Symbol P = fresh(C->Param.str());
    PEEnvNode *Env = extend(C->Env, C->Param, PEVal::dyn(Out.mkVar(P)));
    // The memoized residual body starts a fresh unfolding context.
    const Expr *Body = lift(peval(C->Body, Env, 0));
    C->SpecLam = Out.mkLam(P, Body);
    C->SpecInProgress = false;
    return C->SpecName;
  }

  PEVal apply(PEVal Fn, PEVal Arg, unsigned UDepth) {
    if (GaveUp)
      return Fn;
    switch (Fn.K) {
    case PEVal::Kind::Fun: {
      SClosure *C = Fn.F;
      bool Trivial =
          Arg.isStatic() || (Arg.Res && Arg.Res->kind() == ExprKind::Var);
      if (Trivial && UDepth < Opts.MaxUnfoldDepth) {
        ++Unfolds;
        PEEnvNode *Env = extend(C->Env, C->Param, Arg);
        return peval(C->Body, Env, UDepth + 1);
      }
      if (C->RecName && Arg.K == PEVal::Kind::Dyn) {
        // Call the memoized residual version.
        Symbol Name = ensureSpec(C);
        return PEVal::dyn(Out.mkApp(Out.mkVar(Name), lift(Arg)));
      }
      // Residual beta-redex: keeps the argument's evaluation in place and
      // specializes the body against a dynamic parameter.
      Symbol P = fresh(C->Param.str());
      PEEnvNode *Env = extend(C->Env, C->Param, PEVal::dyn(Out.mkVar(P)));
      const Expr *Body = lift(peval(C->Body, Env, UDepth + 1));
      return PEVal::dyn(Out.mkApp(Out.mkLam(P, Body), lift(Arg)));
    }
    case PEVal::Kind::Ground: {
      Value F = Fn.V;
      if (F.is(ValueKind::Prim1) && Arg.K == PEVal::Kind::Ground) {
        PrimResult R = applyPrim1(F.asPrim1(), Arg.V, A);
        if (R.Ok)
          return PEVal::ground(R.Val);
        return PEVal::dyn(Out.mkApp(lift(Fn), lift(Arg)));
      }
      if (F.is(ValueKind::Prim2) && Arg.K == PEVal::Kind::Ground) {
        PrimPartial *PP = A.create<PrimPartial>(F.asPrim2(), Arg.V);
        return PEVal::ground(Value::mkPrim2Partial(PP));
      }
      if (F.is(ValueKind::Prim2Partial) && Arg.K == PEVal::Kind::Ground) {
        PrimPartial *PP = F.asPrim2Partial();
        PrimResult R = applyPrim2(PP->Op, PP->First, Arg.V, A);
        if (R.Ok)
          return PEVal::ground(R.Val);
        return PEVal::dyn(Out.mkApp(lift(Fn), lift(Arg)));
      }
      // Non-function ground value or a function/argument mix we do not
      // fold: keep the application (run-time error or prim application).
      return PEVal::dyn(Out.mkApp(lift(Fn), lift(Arg)));
    }
    case PEVal::Kind::Dyn:
      return PEVal::dyn(Out.mkApp(lift(Fn), lift(Arg)));
    }
    return giveUp();
  }

  //===--------------------------------------------------------------------===//
  // The specializer proper
  //===--------------------------------------------------------------------===//

  /// Syntactic occurrence check (conservative: ignores shadowing).
  static bool mentionsVar(const Expr *E, Symbol S) {
    switch (E->kind()) {
    case ExprKind::Const:
      return false;
    case ExprKind::Var:
      return cast<VarExpr>(E)->Name == S;
    case ExprKind::Lam:
      return mentionsVar(cast<LamExpr>(E)->Body, S);
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      return mentionsVar(I->Cond, S) || mentionsVar(I->Then, S) ||
             mentionsVar(I->Else, S);
    }
    case ExprKind::App: {
      const auto *Ap = cast<AppExpr>(E);
      return mentionsVar(Ap->Fn, S) || mentionsVar(Ap->Arg, S);
    }
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      return mentionsVar(L->Bound, S) || mentionsVar(L->Body, S);
    }
    case ExprKind::Prim1:
      return mentionsVar(cast<Prim1Expr>(E)->Arg, S);
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(E);
      return mentionsVar(P->Lhs, S) || mentionsVar(P->Rhs, S);
    }
    case ExprKind::Annot:
      return mentionsVar(cast<AnnotExpr>(E)->Inner, S);
    }
    return true;
  }

  PEVal peval(const Expr *E, PEEnvNode *Env, unsigned UDepth) {
    if (GaveUp)
      return PEVal::dyn(Out.mkInt(0));
    if (++Steps > Opts.MaxSteps || Depth >= Opts.MaxDepth)
      return giveUp();
    ++Depth;
    PEVal R = pevalImpl(E, Env, UDepth);
    --Depth;
    return R;
  }

  PEVal pevalImpl(const Expr *E, PEEnvNode *Env, unsigned UDepth) {
    switch (E->kind()) {
    case ExprKind::Const: {
      const ConstVal &C = cast<ConstExpr>(E)->Val;
      switch (C.K) {
      case ConstVal::Kind::Int:
        return PEVal::ground(Value::mkInt(C.Int, A));
      case ConstVal::Kind::Bool:
        return PEVal::ground(Value::mkBool(C.Bool));
      case ConstVal::Kind::Nil:
        return PEVal::ground(Value::mkNil());
      case ConstVal::Kind::Str:
        return PEVal::ground(Value::mkStr(C.Str));
      }
      return giveUp();
    }
    case ExprKind::Var: {
      Symbol Name = cast<VarExpr>(E)->Name;
      for (PEEnvNode *N = Env; N; N = N->Parent)
        if (N->Name == Name)
          return N->Val;
      if (auto P1 = lookupPrim1(Name))
        return PEVal::ground(Value::mkPrim1(*P1));
      if (auto P2 = lookupPrim2(Name))
        return PEVal::ground(Value::mkPrim2(*P2));
      // Free variable: a dynamic input.
      return PEVal::dyn(Out.mkVar(Name));
    }
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      return PEVal::fun(
          A.create<SClosure>(L->Param, L->Body, Env, Symbol()));
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      PEVal C = peval(I->Cond, Env, UDepth);
      if (C.K == PEVal::Kind::Ground && C.V.is(ValueKind::Bool))
        return peval(C.V.asBool() ? I->Then : I->Else, Env, UDepth);
      const Expr *CR = lift(C);
      const Expr *TR = lift(peval(I->Then, Env, UDepth));
      const Expr *ER = lift(peval(I->Else, Env, UDepth));
      return PEVal::dyn(Out.mkIf(CR, TR, ER));
    }
    case ExprKind::App: {
      const auto *Ap = cast<AppExpr>(E);
      PEVal Fn = peval(Ap->Fn, Env, UDepth);
      PEVal Arg = peval(Ap->Arg, Env, UDepth);
      return apply(Fn, Arg, UDepth);
    }
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      if (const auto *Lam = dyn_cast<LamExpr>(L->Bound)) {
        // Tie the specialization-time knot.
        SClosure *C =
            A.create<SClosure>(Lam->Param, Lam->Body, nullptr, L->Name);
        PEEnvNode *Env2 = extend(Env, L->Name, PEVal::fun(C));
        C->Env = Env2;
        PEVal R = peval(L->Body, Env2, UDepth);
        // Closures must not escape the letrec scope unlifted: lift here so
        // any specialization they trigger is still in scope.
        if (R.K == PEVal::Kind::Fun)
          R = PEVal::dyn(lift(R));
        if (C->SpecLam) {
          // Emit the memoized residual version at the original site.
          const Expr *Body = lift(R);
          C->Emitted = true;
          return PEVal::dyn(Out.mkLetrec(C->SpecName, C->SpecLam, Body));
        }
        C->Emitted = true;
        return R;
      }
      // Value binding. If the bound expression does not mention the name,
      // this is an ordinary let; otherwise residualize conservatively.
      if (!mentionsVar(L->Bound, L->Name)) {
        PEVal BV = peval(L->Bound, Env, UDepth);
        if (BV.K == PEVal::Kind::Fun)
          BV = PEVal::dyn(lift(BV));
        return peval(L->Body, extend(Env, L->Name, BV), UDepth);
      }
      Symbol N = fresh(L->Name.str());
      PEEnvNode *Env2 = extend(Env, L->Name, PEVal::dyn(Out.mkVar(N)));
      const Expr *BR = lift(peval(L->Bound, Env2, UDepth));
      const Expr *Body = lift(peval(L->Body, Env2, UDepth));
      return PEVal::dyn(Out.mkLetrec(N, BR, Body));
    }
    case ExprKind::Prim1: {
      const auto *P = cast<Prim1Expr>(E);
      PEVal V = peval(P->Arg, Env, UDepth);
      if (V.K == PEVal::Kind::Ground) {
        PrimResult R = applyPrim1(P->Op, V.V, A);
        if (R.Ok)
          return PEVal::ground(R.Val);
      }
      return PEVal::dyn(Out.mkPrim1(P->Op, lift(V)));
    }
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(E);
      PEVal L = peval(P->Lhs, Env, UDepth);
      PEVal R = peval(P->Rhs, Env, UDepth);
      if (L.K == PEVal::Kind::Ground && R.K == PEVal::Kind::Ground) {
        PrimResult PR = applyPrim2(P->Op, L.V, R.V, A);
        if (PR.Ok)
          return PEVal::ground(PR.Val);
      }
      return PEVal::dyn(Out.mkPrim2(P->Op, lift(L), lift(R)));
    }
    case ExprKind::Annot: {
      // Monitoring is dynamic: the annotation (and hence its events) must
      // survive specialization. Annotation parameters are *names* resolved
      // in rho at probe time, so they must be mapped to the residual
      // environment: params bound to residual variables are renamed to
      // them; params bound to static values are rebound around the
      // annotated expression so the probe observes the same value.
      const auto *N = cast<AnnotExpr>(E);
      PEVal Inner = peval(N->Inner, Env, UDepth);
      Annotation NewAnn = *N->Ann;
      std::vector<std::pair<Symbol, const Expr *>> Rebinds;
      for (Symbol &Prm : NewAnn.Params) {
        PEEnvNode *Found = nullptr;
        for (PEEnvNode *Nd = Env; Nd; Nd = Nd->Parent)
          if (Nd->Name == Prm) {
            Found = Nd;
            break;
          }
        if (!Found)
          continue; // Unbound in the source too; renders "?" either way.
        if (Found->Val.K == PEVal::Kind::Dyn) {
          if (const auto *V = dyn_cast<VarExpr>(Found->Val.Res)) {
            Prm = V->Name;
            continue;
          }
          // A non-variable dynamic binding cannot be re-observed without
          // duplicating its evaluation; sound fallback only.
          return giveUp();
        }
        Symbol Fresh = fresh(Prm.str());
        Rebinds.emplace_back(Fresh, lift(Found->Val));
        Prm = Fresh;
      }
      const Expr *R =
          Out.mkAnnot(Out.internAnnotation(std::move(NewAnn)), lift(Inner));
      for (size_t I = Rebinds.size(); I-- > 0;)
        R = Out.mkApp(Out.mkLam(Rebinds[I].first, R), Rebinds[I].second);
      return PEVal::dyn(R);
    }
    }
    return giveUp();
  }
};

} // namespace

PEResult monsem::partialEvaluate(AstContext &Out, const Expr *Program,
                                 PEOptions Opts) {
  PE Engine(Out, Opts);
  return Engine.run(Program);
}

PEResult monsem::specializeApply(AstContext &Out, const Expr *Fn,
                                 const std::vector<const Expr *> &StaticArgs,
                                 unsigned NumDynamicArgs, PEOptions Opts) {
  // Build (in a scratch context):  Fn s1 ... sk h0 ... h{n-1}
  AstContext Scratch;
  const Expr *App = cloneExpr(Scratch, Fn);
  for (const Expr *Arg : StaticArgs)
    App = Scratch.mkApp(App, cloneExpr(Scratch, Arg));
  std::vector<Symbol> Holes;
  for (unsigned I = 0; I < NumDynamicArgs; ++I) {
    Symbol H = Symbol::intern("dyn_arg" + std::to_string(I));
    Holes.push_back(H);
    App = Scratch.mkApp(App, Scratch.mkVar(H));
  }
  PE Engine(Out, Opts);
  PEResult R = Engine.run(App);
  // Bind the holes.
  for (size_t I = Holes.size(); I-- > 0;)
    R.Residual = Out.mkLam(Holes[I], R.Residual);
  return R;
}
