//===- tests/RandomProgram.h - Random L_lambda programs ---------*- C++ -*-===//
///
/// \file
/// A seeded generator of (mostly) well-behaved L_lambda programs for
/// property tests: soundness (monitored == standard, Thm. 7.7),
/// differential testing of the evaluators (direct CPS vs CEK vs bytecode
/// VM), and partial-evaluation correctness.
///
/// Generation is typed (Int / Bool / IntList) so most programs compute a
/// value; run-time errors (hd [], division by zero) are still possible and
/// are part of the compared outcome. Recursive functions follow a
/// structurally decreasing template, so almost all programs terminate;
/// tests additionally run with fuel.
///
/// genCurriedProgram adds curried letrec functions of arity 2-4 and calls
/// to them that are saturated, over-applied (a function that returns a
/// function), partial applications passed on as values, the function
/// itself passed as a value, and spines with an annotated intermediate
/// application. genProgram's programs are unchanged by it: the curried
/// shapes draw from the generator only in curried mode.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_TESTS_RANDOMPROGRAM_H
#define MONSEM_TESTS_RANDOMPROGRAM_H

#include "syntax/Ast.h"

#include <random>
#include <string>
#include <vector>

namespace monsem::testing {

class ProgramGen {
public:
  ProgramGen(AstContext &Ctx, unsigned Seed, bool Curried = false)
      : Ctx(Ctx), Rng(Seed), Curried(Curried) {}

  /// Generates a closed Int-valued program, possibly with annotations
  /// (bare labels m0..m9 and A/B), letrec functions, lists, and booleans.
  const Expr *gen() {
    // A couple of integer variables via lets, one recursive function, then
    // an Int body using everything in scope.
    const Expr *Body = genTop(3);
    return Body;
  }

private:
  AstContext &Ctx;
  std::mt19937 Rng;
  std::vector<Symbol> IntVars;
  std::vector<Symbol> FunVars;  ///< Int -> Int functions.
  std::vector<Symbol> ListVars; ///< Integer lists.
  unsigned NextName = 0;
  unsigned NextLabel = 0;

  /// A curried letrec function: Int^Arity -> Int, or with ReturnsFn
  /// Int -> Int -> (Int -> Int), whose calls always pass a third argument.
  struct CurriedFn {
    Symbol Name;
    unsigned Arity;
    bool ReturnsFn;
  };
  bool Curried;
  std::vector<CurriedFn> CurriedVars;

  unsigned pick(unsigned N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  }
  bool flip(double P = 0.5) {
    return std::uniform_real_distribution<double>(0, 1)(Rng) < P;
  }
  Symbol fresh(const char *Prefix) {
    return Symbol::intern(std::string(Prefix) + std::to_string(NextName++));
  }

  /// Wraps \p E with a bare annotation about 20% of the time.
  const Expr *maybeAnnotate(const Expr *E) {
    if (!flip(0.2))
      return E;
    Annotation Ann;
    switch (pick(3)) {
    case 0:
      Ann.Head = Symbol::intern("A");
      break;
    case 1:
      Ann.Head = Symbol::intern("B");
      break;
    default:
      Ann.Head = Symbol::intern("m" + std::to_string(NextLabel++ % 10));
      break;
    }
    return Ctx.mkAnnot(Ctx.internAnnotation(std::move(Ann)), E);
  }

  const Expr *genTop(int Depth) {
    // let x = <int> in ... ; letrec f = ... in ... ; let l = <list> in ...
    switch (pick(Curried ? 5 : 4)) {
    case 0: {
      Symbol X = fresh("x");
      const Expr *Init = genInt(Depth - 1);
      IntVars.push_back(X);
      const Expr *Body = genTop(Depth - 1);
      IntVars.pop_back();
      return Ctx.mkApp(Ctx.mkLam(X, Body), Init);
    }
    case 1: {
      Symbol F = fresh("f");
      Symbol N = fresh("n");
      // letrec f = lambda n. if n < 1 then <leaf> else <body with f(n-1)>
      IntVars.push_back(N);
      const Expr *Leaf = genInt(1);
      FunVars.push_back(F);
      const Expr *Rec = Ctx.mkApp(
          Ctx.mkVar(F), Ctx.mkPrim2(Prim2Op::Sub, Ctx.mkVar(N), Ctx.mkInt(1)));
      const Expr *Step = genIntAround(Rec, Depth - 1);
      IntVars.pop_back();
      const Expr *FunBody = Ctx.mkIf(
          Ctx.mkPrim2(Prim2Op::Lt, Ctx.mkVar(N), Ctx.mkInt(1)), Leaf,
          maybeAnnotate(Step));
      const Expr *Fun = Ctx.mkLam(N, FunBody);
      const Expr *Body = genTop(Depth - 1);
      FunVars.pop_back();
      return Ctx.mkLetrec(F, Fun, Body);
    }
    case 2: {
      Symbol L = fresh("l");
      const Expr *Init = genList(Depth - 1);
      ListVars.push_back(L);
      const Expr *Body = genTop(Depth - 1);
      ListVars.pop_back();
      return Ctx.mkApp(Ctx.mkLam(L, Body), Init);
    }
    case 4:
      return genCurriedLetrec(Depth);
    default:
      return maybeAnnotate(genInt(Depth));
    }
  }

  /// letrec g = lambda p0 ... pk-1. if p0 < 1 then <leaf> else <body with
  /// a recursive call g (p0 - 1) ...>, the call a curried call of any
  /// shape (callCurried).
  const Expr *genCurriedLetrec(int Depth) {
    CurriedFn F{fresh("g"), 2 + pick(3), false};
    F.ReturnsFn = F.Arity == 2 && flip(0.3);
    std::vector<Symbol> Params;
    for (unsigned I = 0; I < F.Arity; ++I)
      Params.push_back(fresh("p"));
    for (Symbol P : Params)
      IntVars.push_back(P);
    const Expr *Leaf = genInt(1);
    CurriedVars.push_back(F);
    std::vector<const Expr *> Args = {
        Ctx.mkPrim2(Prim2Op::Sub, Ctx.mkVar(Params[0]), Ctx.mkInt(1))};
    for (unsigned I = 1; I < F.Arity + F.ReturnsFn; ++I)
      Args.push_back(genInt(1));
    const Expr *Step = genIntAround(callCurried(F, Args), Depth - 1);
    for (size_t I = 0; I < Params.size(); ++I)
      IntVars.pop_back();
    const Expr *Cond =
        Ctx.mkPrim2(Prim2Op::Lt, Ctx.mkVar(Params[0]), Ctx.mkInt(1));
    const Expr *Body;
    if (F.ReturnsFn) {
      // Both arms are functions of one more argument c.
      Symbol C = fresh("c");
      Body = Ctx.mkIf(
          Cond, Ctx.mkLam(C, Ctx.mkPrim2(Prim2Op::Add, Ctx.mkVar(C), Leaf)),
          Ctx.mkLam(C, Ctx.mkPrim2(Prim2Op::Sub, maybeAnnotate(Step),
                                   Ctx.mkVar(C))));
    } else {
      Body = Ctx.mkIf(Cond, Leaf, maybeAnnotate(Step));
    }
    for (size_t I = Params.size(); I-- > 0;)
      Body = Ctx.mkLam(Params[I], Body);
    const Expr *Rest = genTop(Depth - 1);
    CurriedVars.pop_back();
    return Ctx.mkLetrec(F.Name, Body, Rest);
  }

  /// A call of \p F on \p Args (Arity of them, one more when F returns a
  /// function), in one of four shapes: the plain spine; a partial
  /// application passed to a lambda that applies the rest; F itself
  /// passed to a lambda that applies it; or the spine with its first
  /// application annotated.
  const Expr *callCurried(const CurriedFn &F,
                          const std::vector<const Expr *> &Args) {
    auto Spine = [&](const Expr *Head, size_t From) {
      for (size_t I = From; I < Args.size(); ++I)
        Head = Ctx.mkApp(Head, Args[I]);
      return Head;
    };
    switch (pick(4)) {
    case 0:
      return Spine(Ctx.mkVar(F.Name), 0);
    case 1: {
      Symbol H = fresh("h");
      return Ctx.mkApp(Ctx.mkLam(H, Spine(Ctx.mkVar(H), 1)),
                       Ctx.mkApp(Ctx.mkVar(F.Name), Args[0]));
    }
    case 2: {
      Symbol H = fresh("h");
      return Ctx.mkApp(Ctx.mkLam(H, Spine(Ctx.mkVar(H), 0)),
                       Ctx.mkVar(F.Name));
    }
    default: {
      Annotation Ann;
      Ann.Head = Symbol::intern("m" + std::to_string(NextLabel++ % 10));
      const Expr *First =
          Ctx.mkAnnot(Ctx.internAnnotation(std::move(Ann)),
                      Ctx.mkApp(Ctx.mkVar(F.Name), Args[0]));
      return Spine(First, 1);
    }
    }
  }

  /// An Int expression that uses \p Hole (a recursive call) exactly once.
  const Expr *genIntAround(const Expr *Hole, int Depth) {
    switch (pick(3)) {
    case 0:
      return Ctx.mkPrim2(Prim2Op::Add, Hole, genInt(Depth - 1));
    case 1:
      return Ctx.mkPrim2(flip() ? Prim2Op::Mul : Prim2Op::Sub,
                         genInt(Depth - 1), Hole);
    default:
      return Ctx.mkIf(genBool(Depth - 1), Hole, genInt(Depth - 1));
    }
  }

  const Expr *genInt(int Depth) {
    if (Depth <= 0 || flip(0.25)) {
      if (!IntVars.empty() && flip(0.5))
        return Ctx.mkVar(IntVars[pick((unsigned)IntVars.size())]);
      return Ctx.mkInt((int64_t)pick(20) - 5);
    }
    switch (pick(Curried ? 9 : 8)) {
    case 0:
      return Ctx.mkPrim2(Prim2Op::Add, genInt(Depth - 1), genInt(Depth - 1));
    case 1:
      return Ctx.mkPrim2(Prim2Op::Sub, genInt(Depth - 1), genInt(Depth - 1));
    case 2:
      return Ctx.mkPrim2(Prim2Op::Mul, genInt(Depth - 1), genInt(Depth - 1));
    case 3:
      // Division/modulo: may fail with division by zero — intentional.
      return Ctx.mkPrim2(flip() ? Prim2Op::Div : Prim2Op::Mod,
                         genInt(Depth - 1), genInt(Depth - 1));
    case 4:
      return Ctx.mkIf(genBool(Depth - 1), genInt(Depth - 1),
                      genInt(Depth - 1));
    case 5:
      if (!FunVars.empty()) {
        // Call a recursive function on a small argument.
        return Ctx.mkApp(Ctx.mkVar(FunVars[pick((unsigned)FunVars.size())]),
                         Ctx.mkInt(pick(6)));
      }
      return maybeAnnotate(genInt(Depth - 1));
    case 6:
      // hd of a list: may fail on [] — intentional.
      return Ctx.mkPrim1(Prim1Op::Hd, genList(Depth - 1));
    case 8:
      if (!CurriedVars.empty()) {
        // A curried call with a small first argument (the recursion
        // bound) and arbitrary others.
        const CurriedFn F =
            CurriedVars[pick(static_cast<unsigned>(CurriedVars.size()))];
        std::vector<const Expr *> Args = {Ctx.mkInt(pick(5))};
        for (unsigned I = 1; I < F.Arity + F.ReturnsFn; ++I)
          Args.push_back(genInt(Depth - 1));
        return callCurried(F, Args);
      }
      return genInt(Depth - 1);
    default: {
      // Immediately applied lambda.
      Symbol X = fresh("x");
      IntVars.push_back(X);
      const Expr *Body = genInt(Depth - 1);
      IntVars.pop_back();
      return Ctx.mkApp(Ctx.mkLam(X, Body), genInt(Depth - 1));
    }
    }
  }

  const Expr *genBool(int Depth) {
    if (Depth <= 0 || flip(0.3))
      return Ctx.mkBool(flip());
    switch (pick(4)) {
    case 0:
      return Ctx.mkPrim2(Prim2Op::Lt, genInt(Depth - 1), genInt(Depth - 1));
    case 1:
      return Ctx.mkPrim2(Prim2Op::Eq, genInt(Depth - 1), genInt(Depth - 1));
    case 2:
      return Ctx.mkPrim1(Prim1Op::Not, genBool(Depth - 1));
    default:
      return Ctx.mkPrim1(Prim1Op::Null, genList(Depth - 1));
    }
  }

  const Expr *genList(int Depth) {
    if (Depth <= 0 || flip(0.3)) {
      if (!ListVars.empty() && flip(0.5))
        return Ctx.mkVar(ListVars[pick((unsigned)ListVars.size())]);
      // Small literal list.
      const Expr *L = Ctx.mkNil();
      for (unsigned I = 0, N = pick(4); I < N; ++I)
        L = Ctx.mkPrim2(Prim2Op::Cons, Ctx.mkInt((int64_t)pick(10)), L);
      return L;
    }
    switch (pick(3)) {
    case 0:
      return Ctx.mkPrim2(Prim2Op::Cons, genInt(Depth - 1),
                         genList(Depth - 1));
    case 1:
      // tl: may fail on [] — intentional.
      return Ctx.mkPrim1(Prim1Op::Tl, genList(Depth - 1));
    default:
      return Ctx.mkIf(genBool(Depth - 1), genList(Depth - 1),
                      genList(Depth - 1));
    }
  }
};

/// Convenience: generate program #Seed into \p Ctx.
inline const Expr *genProgram(AstContext &Ctx, unsigned Seed) {
  return ProgramGen(Ctx, Seed).gen();
}

/// Program #Seed of the curried family (see the file comment).
inline const Expr *genCurriedProgram(AstContext &Ctx, unsigned Seed) {
  return ProgramGen(Ctx, Seed, /*Curried=*/true).gen();
}

} // namespace monsem::testing

#endif // MONSEM_TESTS_RANDOMPROGRAM_H
