//===- imp/ImpParser.cpp ---------------------------------------------------===//

#include "imp/ImpParser.h"

#include "syntax/Lexer.h"
#include "syntax/Parser.h"

using namespace monsem;

namespace {

class ImpParser {
public:
  ImpParser(ImpContext &Ctx, std::string_view Source, DiagnosticSink &Diags)
      : Ctx(Ctx), Lex(Source, Diags), Diags(Diags) {}

  const Cmd *parseTop() {
    const Cmd *C = parseSeq();
    if (!C)
      return nullptr;
    if (!Lex.peek().is(TokenKind::Eof)) {
      error("expected end of program, found " +
            std::string(tokenKindName(Lex.peek().Kind)));
      return nullptr;
    }
    return C;
  }

private:
  ImpContext &Ctx;
  Lexer Lex;
  DiagnosticSink &Diags;
  unsigned Depth = 0; ///< Commands open on the current parse path.

  void error(const std::string &Msg) { Diags.error(Lex.peek().Loc, Msg); }

  bool expect(TokenKind K) {
    if (Lex.peek().is(K)) {
      Lex.next();
      return true;
    }
    error(std::string("expected ") + tokenKindName(K) + ", found " +
          tokenKindName(Lex.peek().Kind));
    return false;
  }

  const Expr *parseCondExpr() {
    const Expr *E = parseExprWith(Ctx.exprs(), Lex, Diags);
    if (!E)
      return nullptr;
    return E;
  }

  const Cmd *parseSeq() {
    const Cmd *C = parseCmd();
    if (!C)
      return nullptr;
    while (Lex.peek().is(TokenKind::Semi)) {
      SourceLoc Loc = Lex.next().Loc;
      const Cmd *Next = parseCmd();
      if (!Next)
        return nullptr;
      C = Ctx.mkSeq(C, Next, Loc);
    }
    return C;
  }

  /// One nesting level per open command, bounded like the expression
  /// parser's (kMaxNestingDepth): the parser, the machine, the printer and
  /// the annotators all recurse on the command tree, so a deeper program
  /// gets a diagnostic instead of overflowing the C stack.
  const Cmd *parseCmd() {
    if (Depth == kMaxNestingDepth) {
      error("command nests deeper than " + std::to_string(kMaxNestingDepth) +
            " levels");
      return nullptr;
    }
    ++Depth;
    const Cmd *C = parseCmdAtDepth();
    --Depth;
    return C;
  }

  const Cmd *parseCmdAtDepth() {
    const Token &T = Lex.peek();
    switch (T.Kind) {
    case TokenKind::KwSkip: {
      SourceLoc Loc = Lex.next().Loc;
      return Ctx.mkSkip(Loc);
    }
    case TokenKind::KwPrint: {
      SourceLoc Loc = Lex.next().Loc;
      const Expr *E = parseCondExpr();
      if (!E)
        return nullptr;
      return Ctx.mkPrint(E, Loc);
    }
    case TokenKind::KwIf: {
      SourceLoc Loc = Lex.next().Loc;
      const Expr *Cond = parseCondExpr();
      if (!Cond || !expect(TokenKind::KwThen))
        return nullptr;
      const Cmd *Then = parseSeq();
      if (!Then)
        return nullptr;
      const Cmd *Else = nullptr;
      if (Lex.peek().is(TokenKind::KwElse)) {
        Lex.next();
        Else = parseSeq();
        if (!Else)
          return nullptr;
      } else {
        Else = Ctx.mkSkip(Loc);
      }
      if (!expect(TokenKind::KwEnd))
        return nullptr;
      return Ctx.mkIf(Cond, Then, Else, Loc);
    }
    case TokenKind::KwWhile: {
      SourceLoc Loc = Lex.next().Loc;
      const Expr *Cond = parseCondExpr();
      if (!Cond || !expect(TokenKind::KwDo))
        return nullptr;
      const Cmd *Body = parseSeq();
      if (!Body || !expect(TokenKind::KwEnd))
        return nullptr;
      return Ctx.mkWhile(Cond, Body, Loc);
    }
    case TokenKind::KwBegin: {
      Lex.next();
      const Cmd *C = parseSeq();
      if (!C || !expect(TokenKind::KwEnd))
        return nullptr;
      return C;
    }
    case TokenKind::LBrace:
      return parseAnnotated();
    case TokenKind::Ident: {
      Token Name = Lex.next();
      // `read x`: contextual keyword (not reserved, so `read := 1` still
      // works as an assignment).
      if (Name.Ident.str() == "read" && Lex.peek().is(TokenKind::Ident)) {
        Token Var = Lex.next();
        return Ctx.mkRead(Var.Ident, Name.Loc);
      }
      if (!expect(TokenKind::Assign))
        return nullptr;
      const Expr *E = parseCondExpr();
      if (!E)
        return nullptr;
      return Ctx.mkAssign(Name.Ident, E, Name.Loc);
    }
    default:
      error(std::string("expected a command, found ") +
            tokenKindName(T.Kind));
      return nullptr;
    }
  }

  const Cmd *parseAnnotated() {
    SourceLoc Loc = Lex.next().Loc; // '{'
    Annotation Ann;
    Ann.Loc = Loc;
    if (!Lex.peek().is(TokenKind::Ident)) {
      error("expected annotation label");
      return nullptr;
    }
    Ann.Head = Lex.next().Ident;
    if (Lex.peek().is(TokenKind::Colon)) {
      Lex.next();
      if (!Lex.peek().is(TokenKind::Ident)) {
        error("expected annotation label after qualifier");
        return nullptr;
      }
      Ann.Qual = Ann.Head;
      Ann.Head = Lex.next().Ident;
    }
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
    const Cmd *Inner = parseCmd();
    if (!Inner)
      return nullptr;
    return Ctx.mkAnnot(Ctx.exprs().internAnnotation(std::move(Ann)), Inner,
                       Loc);
  }
};

} // namespace

const Cmd *monsem::parseImpProgram(ImpContext &Ctx, std::string_view Source,
                                   DiagnosticSink &Diags) {
  ImpParser P(Ctx, Source, Diags);
  const Cmd *C = P.parseTop();
  if (!C || Diags.hasErrors())
    return nullptr;
  return C;
}
