//===- syntax/Parser.cpp ---------------------------------------------------===//

#include "syntax/Parser.h"

#include "syntax/Lexer.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace monsem;

std::optional<Prim1Op> monsem::lookupPrim1(Symbol Name) {
  static const std::unordered_map<std::string_view, Prim1Op> Table = {
      {"hd", Prim1Op::Hd},      {"tl", Prim1Op::Tl},
      {"null", Prim1Op::Null},  {"not", Prim1Op::Not},
      {"abs", Prim1Op::Abs},    {"int?", Prim1Op::IsInt},
      {"bool?", Prim1Op::IsBool}, {"pair?", Prim1Op::IsPair},
      {"fun?", Prim1Op::IsFun},
  };
  auto It = Table.find(Name.str());
  if (It == Table.end())
    return std::nullopt;
  return It->second;
}

std::optional<Prim2Op> monsem::lookupPrim2(Symbol Name) {
  static const std::unordered_map<std::string_view, Prim2Op> Table = {
      {"min", Prim2Op::Min},
      {"max", Prim2Op::Max},
  };
  auto It = Table.find(Name.str());
  if (It == Table.end())
    return std::nullopt;
  return It->second;
}

namespace {

class Parser {
public:
  Parser(AstContext &Ctx, Lexer &Lex, DiagnosticSink &Diags)
      : Ctx(Ctx), Lex(Lex), Diags(Diags) {}

  const Expr *parseOne() { return parseExpr(); }

  const Expr *parseTop() {
    const Expr *E = parseExpr();
    if (!E)
      return nullptr;
    if (!Lex.peek().is(TokenKind::Eof)) {
      error("expected end of input, found " +
            std::string(tokenKindName(Lex.peek().Kind)));
      return nullptr;
    }
    return E;
  }

private:
  AstContext &Ctx;
  Lexer &Lex;
  DiagnosticSink &Diags;
  unsigned Depth = 0; ///< Nesting levels open on the current parse path.

  void error(const std::string &Msg) { Diags.error(Lex.peek().Loc, Msg); }

  /// One nesting level for as long as it lives (see kMaxNestingDepth).
  /// Past the bound it reports the error; the caller returns nullptr,
  /// which unwinds the whole parse.
  class Nest {
  public:
    explicit Nest(Parser &P) : P(P) {
      if (++P.Depth == kMaxNestingDepth + 1)
        P.error("expression nests deeper than " +
                std::to_string(kMaxNestingDepth) + " levels");
    }
    ~Nest() { --P.Depth; }
    bool ok() const { return P.Depth <= kMaxNestingDepth; }

  private:
    Parser &P;
  };

  bool expect(TokenKind K) {
    if (Lex.peek().is(K)) {
      Lex.next();
      return true;
    }
    error(std::string("expected ") + tokenKindName(K) + ", found " +
          tokenKindName(Lex.peek().Kind));
    return false;
  }

  /// expr := '{'ann'}' ':' expr | lambda | if | letrec | let | orExpr
  const Expr *parseExpr() {
    Nest N(*this);
    if (!N.ok())
      return nullptr;
    const Token &T = Lex.peek();
    switch (T.Kind) {
    case TokenKind::LBrace:
      return parseAnnotated();
    case TokenKind::KwLambda:
      return parseLambda();
    case TokenKind::KwIf:
      return parseIf();
    case TokenKind::KwLetrec:
      return parseLetBinding(/*Recursive=*/true);
    case TokenKind::KwLet:
      return parseLetBinding(/*Recursive=*/false);
    default:
      return parseOr();
    }
  }

  const Expr *parseAnnotated() {
    SourceLoc Loc = Lex.peek().Loc;
    Lex.next(); // '{'
    Annotation Ann;
    Ann.Loc = Loc;
    if (!Lex.peek().is(TokenKind::Ident)) {
      error("expected annotation label");
      return nullptr;
    }
    Ann.Head = Lex.next().Ident;
    // Optional qualifier: {qual:head...}.
    if (Lex.peek().is(TokenKind::Colon)) {
      Lex.next();
      if (!Lex.peek().is(TokenKind::Ident)) {
        error("expected annotation label after qualifier");
        return nullptr;
      }
      Ann.Qual = Ann.Head;
      Ann.Head = Lex.next().Ident;
    }
    // Optional parameter list: {f(x, y)}.
    if (Lex.peek().is(TokenKind::LParen)) {
      Lex.next();
      Ann.HasParams = true;
      if (!Lex.peek().is(TokenKind::RParen)) {
        while (true) {
          if (!Lex.peek().is(TokenKind::Ident)) {
            error("expected parameter name in annotation");
            return nullptr;
          }
          Ann.Params.push_back(Lex.next().Ident);
          if (!Lex.peek().is(TokenKind::Comma))
            break;
          Lex.next();
        }
      }
      if (!expect(TokenKind::RParen))
        return nullptr;
    }
    if (!expect(TokenKind::RBrace) || !expect(TokenKind::Colon))
      return nullptr;
    const Expr *Inner = parseExpr();
    if (!Inner)
      return nullptr;
    return Ctx.mkAnnot(Ctx.internAnnotation(std::move(Ann)), Inner, Loc);
  }

  const Expr *parseLambda() {
    SourceLoc Loc = Lex.next().Loc; // 'lambda'
    std::vector<std::pair<Symbol, SourceLoc>> Params;
    while (Lex.peek().is(TokenKind::Ident)) {
      const Token &T = Lex.peek();
      Params.emplace_back(T.Ident, T.Loc);
      Lex.next();
    }
    if (Params.empty()) {
      error("expected parameter name after 'lambda'");
      return nullptr;
    }
    if (!expect(TokenKind::Dot))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    for (size_t I = Params.size(); I-- > 0;)
      Body = Ctx.mkLam(Params[I].first, Body,
                       I == 0 ? Loc : Params[I].second);
    return Body;
  }

  const Expr *parseIf() {
    SourceLoc Loc = Lex.next().Loc; // 'if'
    const Expr *C = parseExpr();
    if (!C || !expect(TokenKind::KwThen))
      return nullptr;
    const Expr *T = parseExpr();
    if (!T || !expect(TokenKind::KwElse))
      return nullptr;
    const Expr *E = parseExpr();
    if (!E)
      return nullptr;
    return Ctx.mkIf(C, T, E, Loc);
  }

  const Expr *parseLetBinding(bool Recursive) {
    SourceLoc Loc = Lex.next().Loc; // 'letrec' / 'let'
    if (!Lex.peek().is(TokenKind::Ident)) {
      error("expected binding name");
      return nullptr;
    }
    Symbol Name = Lex.next().Ident;
    if (!expect(TokenKind::Eq))
      return nullptr;
    const Expr *Bound = parseExpr();
    if (!Bound || !expect(TokenKind::KwIn))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    if (Recursive)
      return Ctx.mkLetrec(Name, Bound, Body, Loc);
    // let x = e1 in e2  ==  (lambda x. e2) e1
    return Ctx.mkApp(Ctx.mkLam(Name, Body, Loc), Bound, Loc);
  }

  const Expr *parseOr() {
    const Expr *L = parseAnd();
    if (!L)
      return nullptr;
    while (Lex.peek().is(TokenKind::KwOr)) {
      SourceLoc Loc = Lex.next().Loc;
      const Expr *R = parseAnd();
      if (!R)
        return nullptr;
      // Short-circuit: a or b == if a then true else b.
      L = Ctx.mkIf(L, Ctx.mkBool(true, Loc), R, Loc);
    }
    return L;
  }

  const Expr *parseAnd() {
    const Expr *L = parseCmp();
    if (!L)
      return nullptr;
    while (Lex.peek().is(TokenKind::KwAnd)) {
      SourceLoc Loc = Lex.next().Loc;
      const Expr *R = parseCmp();
      if (!R)
        return nullptr;
      // Short-circuit: a and b == if a then b else false.
      L = Ctx.mkIf(L, R, Ctx.mkBool(false, Loc), Loc);
    }
    return L;
  }

  const Expr *parseCmp() {
    const Expr *L = parseCons();
    if (!L)
      return nullptr;
    Prim2Op Op;
    switch (Lex.peek().Kind) {
    case TokenKind::Eq:
      Op = Prim2Op::Eq;
      break;
    case TokenKind::Ne:
      Op = Prim2Op::Ne;
      break;
    case TokenKind::Lt:
      Op = Prim2Op::Lt;
      break;
    case TokenKind::Le:
      Op = Prim2Op::Le;
      break;
    case TokenKind::Gt:
      Op = Prim2Op::Gt;
      break;
    case TokenKind::Ge:
      Op = Prim2Op::Ge;
      break;
    default:
      return L;
    }
    SourceLoc Loc = Lex.next().Loc;
    const Expr *R = parseCons();
    if (!R)
      return nullptr;
    return Ctx.mkPrim2(Op, L, R, Loc);
  }

  const Expr *parseCons() {
    const Expr *L = parseAdd();
    if (!L)
      return nullptr;
    if (!Lex.peek().is(TokenKind::Colon))
      return L;
    SourceLoc Loc = Lex.next().Loc;
    Nest N(*this);
    if (!N.ok())
      return nullptr;
    const Expr *R = parseCons(); // Right-associative.
    if (!R)
      return nullptr;
    return Ctx.mkPrim2(Prim2Op::Cons, L, R, Loc);
  }

  const Expr *parseAdd() {
    const Expr *L = parseMul();
    if (!L)
      return nullptr;
    while (true) {
      Prim2Op Op;
      if (Lex.peek().is(TokenKind::Plus))
        Op = Prim2Op::Add;
      else if (Lex.peek().is(TokenKind::Minus))
        Op = Prim2Op::Sub;
      else
        return L;
      SourceLoc Loc = Lex.next().Loc;
      const Expr *R = parseMul();
      if (!R)
        return nullptr;
      L = Ctx.mkPrim2(Op, L, R, Loc);
    }
  }

  const Expr *parseMul() {
    const Expr *L = parseUnary();
    if (!L)
      return nullptr;
    while (true) {
      Prim2Op Op;
      if (Lex.peek().is(TokenKind::Star))
        Op = Prim2Op::Mul;
      else if (Lex.peek().is(TokenKind::Slash))
        Op = Prim2Op::Div;
      else if (Lex.peek().is(TokenKind::Percent))
        Op = Prim2Op::Mod;
      else
        return L;
      SourceLoc Loc = Lex.next().Loc;
      const Expr *R = parseUnary();
      if (!R)
        return nullptr;
      L = Ctx.mkPrim2(Op, L, R, Loc);
    }
  }

  const Expr *parseUnary() {
    if (Lex.peek().is(TokenKind::Minus)) {
      SourceLoc Loc = Lex.next().Loc;
      Nest N(*this);
      if (!N.ok())
        return nullptr;
      const Expr *E = parseUnary();
      if (!E)
        return nullptr;
      // Fold negation of literals so `-3` is a constant.
      if (const auto *C = dyn_cast<ConstExpr>(E);
          C && C->Val.K == ConstVal::Kind::Int)
        return Ctx.mkInt(-C->Val.Int, Loc);
      return Ctx.mkPrim1(Prim1Op::Neg, E, Loc);
    }
    return parseApp();
  }

  static bool startsAtom(TokenKind K) {
    switch (K) {
    case TokenKind::IntLit:
    case TokenKind::StrLit:
    case TokenKind::Ident:
    case TokenKind::KwTrue:
    case TokenKind::KwFalse:
    case TokenKind::LParen:
    case TokenKind::LBracket:
      return true;
    default:
      return false;
    }
  }

  const Expr *parseApp() {
    const Expr *E = parseAtom();
    if (!E)
      return nullptr;
    while (startsAtom(Lex.peek().Kind)) {
      SourceLoc Loc = Lex.peek().Loc;
      const Expr *Arg = parseAtom();
      if (!Arg)
        return nullptr;
      E = Ctx.mkApp(E, Arg, Loc);
    }
    return E;
  }

  const Expr *parseAtom() {
    const Token &T = Lex.peek();
    switch (T.Kind) {
    case TokenKind::IntLit: {
      Token Tok = Lex.next();
      return Ctx.mkInt(Tok.IntValue, Tok.Loc);
    }
    case TokenKind::StrLit: {
      Token Tok = Lex.next();
      return Ctx.mkStr(std::move(Tok.StrValue), Tok.Loc);
    }
    case TokenKind::KwTrue: {
      SourceLoc Loc = Lex.next().Loc;
      return Ctx.mkBool(true, Loc);
    }
    case TokenKind::KwFalse: {
      SourceLoc Loc = Lex.next().Loc;
      return Ctx.mkBool(false, Loc);
    }
    case TokenKind::Ident: {
      Token Tok = Lex.next();
      return Ctx.mkVar(Tok.Ident, Tok.Loc);
    }
    case TokenKind::LParen: {
      Lex.next();
      const Expr *E = parseExpr();
      if (!E || !expect(TokenKind::RParen))
        return nullptr;
      return E;
    }
    case TokenKind::LBracket:
      return parseList();
    default:
      error(std::string("expected expression, found ") +
            tokenKindName(T.Kind));
      return nullptr;
    }
  }

  const Expr *parseList() {
    SourceLoc Loc = Lex.next().Loc; // '['
    std::vector<const Expr *> Elems;
    if (!Lex.peek().is(TokenKind::RBracket)) {
      while (true) {
        const Expr *E = parseExpr();
        if (!E)
          return nullptr;
        Elems.push_back(E);
        if (!Lex.peek().is(TokenKind::Comma))
          break;
        if (Elems.size() == kMaxListLength) {
          error("list literal has more than " +
                std::to_string(kMaxListLength) + " elements");
          return nullptr;
        }
        Lex.next();
      }
    }
    if (!expect(TokenKind::RBracket))
      return nullptr;
    const Expr *List = Ctx.mkNil(Loc);
    for (size_t I = Elems.size(); I-- > 0;)
      List = Ctx.mkPrim2(Prim2Op::Cons, Elems[I], List, Loc);
    return List;
  }
};

//===----------------------------------------------------------------------===//
// Primitive-application resolution
//===----------------------------------------------------------------------===//

/// Rewrites saturated applications of unshadowed primitive names into
/// Prim1/Prim2 nodes. Rebuilds the tree bottom-up; unchanged structure is
/// still rebuilt (cheap, arena-allocated).
class PrimResolver {
public:
  explicit PrimResolver(AstContext &Ctx) : Ctx(Ctx) {}

  const Expr *resolve(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Const:
    case ExprKind::Var:
      return E;
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      ScopeGuard G(*this, L->Param);
      return Ctx.mkLam(L->Param, resolve(L->Body), E->loc());
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      return Ctx.mkIf(resolve(I->Cond), resolve(I->Then), resolve(I->Else),
                      E->loc());
    }
    case ExprKind::App:
      return resolveApp(cast<AppExpr>(E));
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      ScopeGuard G(*this, L->Name);
      return Ctx.mkLetrec(L->Name, resolve(L->Bound), resolve(L->Body),
                          E->loc());
    }
    case ExprKind::Prim1: {
      const auto *P = cast<Prim1Expr>(E);
      return Ctx.mkPrim1(P->Op, resolve(P->Arg), E->loc());
    }
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(E);
      return Ctx.mkPrim2(P->Op, resolve(P->Lhs), resolve(P->Rhs), E->loc());
    }
    case ExprKind::Annot: {
      const auto *N = cast<AnnotExpr>(E);
      return Ctx.mkAnnot(N->Ann, resolve(N->Inner), E->loc());
    }
    }
    return E;
  }

private:
  struct ScopeGuard {
    ScopeGuard(PrimResolver &R, Symbol S) : R(R), S(S) {
      ++R.Shadowed[S.id()];
    }
    ~ScopeGuard() { --R.Shadowed[S.id()]; }
    PrimResolver &R;
    Symbol S;
  };

  bool isShadowed(Symbol S) const {
    auto It = Shadowed.find(S.id());
    return It != Shadowed.end() && It->second > 0;
  }

  const Expr *resolveApp(const AppExpr *E) {
    // Unwind the application spine.
    std::vector<const AppExpr *> Spine;
    const Expr *Head = E;
    while (const auto *A = dyn_cast<AppExpr>(Head)) {
      Spine.push_back(A);
      Head = A->Fn;
    }
    // Spine.back() is the innermost application.
    if (const auto *V = dyn_cast<VarExpr>(Head); V && !isShadowed(V->Name)) {
      size_t NArgs = Spine.size();
      if (auto Op1 = lookupPrim1(V->Name); Op1 && NArgs >= 1) {
        const AppExpr *Inner = Spine[NArgs - 1];
        const Expr *Base =
            Ctx.mkPrim1(*Op1, resolve(Inner->Arg), Inner->loc());
        return rebuildOuter(Base, Spine, NArgs - 1);
      }
      if (auto Op2 = lookupPrim2(V->Name); Op2 && NArgs >= 2) {
        const AppExpr *Inner = Spine[NArgs - 1];
        const AppExpr *Second = Spine[NArgs - 2];
        const Expr *Base = Ctx.mkPrim2(*Op2, resolve(Inner->Arg),
                                       resolve(Second->Arg), Second->loc());
        return rebuildOuter(Base, Spine, NArgs - 2);
      }
    }
    return Ctx.mkApp(resolve(E->Fn), resolve(E->Arg), E->loc());
  }

  /// Reapplies the remaining outer spine applications (indices
  /// [0, Remaining) in outermost-first order) on top of \p Base.
  const Expr *rebuildOuter(const Expr *Base,
                           const std::vector<const AppExpr *> &Spine,
                           size_t Remaining) {
    for (size_t I = Remaining; I-- > 0;)
      Base = Ctx.mkApp(Base, resolve(Spine[I]->Arg), Spine[I]->loc());
    return Base;
  }

  AstContext &Ctx;
  std::unordered_map<unsigned, int> Shadowed;
};

} // namespace

/// The parser's bounds leave room for chains it builds in a loop; this
/// catches those, before any recursive pass walks the tree.
static bool checkSyntaxDepth(const Expr *E, DiagnosticSink &Diags) {
  const Expr *Deepest = E;
  if (exprDepth(E, &Deepest) <= kMaxSyntaxDepth)
    return true;
  Diags.error(Deepest->loc(),
              "expression nests deeper than " +
                  std::to_string(kMaxSyntaxDepth) +
                  " levels once its sugar is expanded");
  return false;
}

const Expr *monsem::parseProgram(AstContext &Ctx, std::string_view Source,
                                 DiagnosticSink &Diags, ParseOptions Opts) {
  Lexer Lex(Source, Diags);
  Parser P(Ctx, Lex, Diags);
  const Expr *E = P.parseTop();
  if (!E || Diags.hasErrors() || !checkSyntaxDepth(E, Diags))
    return nullptr;
  if (Opts.ResolvePrims)
    E = PrimResolver(Ctx).resolve(E);
  return E;
}

const Expr *monsem::parseExprWith(AstContext &Ctx, Lexer &Lex,
                                  DiagnosticSink &Diags, ParseOptions Opts) {
  Parser P(Ctx, Lex, Diags);
  const Expr *E = P.parseOne();
  if (!E || Diags.hasErrors() || !checkSyntaxDepth(E, Diags))
    return nullptr;
  if (Opts.ResolvePrims)
    E = PrimResolver(Ctx).resolve(E);
  return E;
}
