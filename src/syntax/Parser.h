//===- syntax/Parser.h - Parser for L_lambda --------------------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for L_lambda's concrete syntax. Precedence, from
/// loosest to tightest:
///
///   expression forms:  {ann}: e   lambda x. e   if/then/else
///                      letrec f = e in e        let x = e in e
///   or  <  and  <  comparisons (= <> < <= > >=, non-associative)
///   <  cons `:` (right-assoc)  <  + -  <  * / %  <  unary -  <  application
///
/// Sugar handled here:
///  * `let x = e1 in e2`       desugars to `(lambda x. e2) e1`.
///  * `a and b` / `a or b`     desugar to conditionals (short-circuit).
///  * `lambda x y. e`          desugars to nested lambdas.
///  * `[e1, e2, ...]`          desugars to cons chains ending in `[]`.
///  * saturated applications of primitive names (`hd e`, `min a b`) become
///    Prim1/Prim2 nodes when the name is not locally shadowed; unsaturated
///    or shadowed uses stay variables (the initial environment binds them).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SYNTAX_PARSER_H
#define MONSEM_SYNTAX_PARSER_H

#include "support/Diagnostics.h"
#include "syntax/Ast.h"

#include <optional>
#include <string_view>

namespace monsem {

/// Bounds that keep every later phase inside an 8 MB stack. The parser,
/// the resolvers, the annotator, the partial evaluator, the printer and
/// the bytecode compiler all recurse on the syntax tree, so a program
/// nested deeply enough would overflow the C stack (SIGSEGV) instead of
/// getting a diagnostic. Measured per level on an x86-64 Release build:
/// the parser about 1.1 KB per parenthesized level; the resolvers, the
/// annotator and the partial evaluator about 180 bytes per tree level,
/// coverage labeling about 260 bytes and the compiler about 275 bytes.
/// An ASan+UBSan build needs about 3.4 KB per tree level, so its 64 MB
/// test stack holds about 19,500 levels; kMaxSyntaxDepth stays below.
///
/// kMaxNestingDepth bounds the parser's own nesting: sub-expressions
/// (parentheses, operands, bodies, branches, annotated and bound
/// expressions, list elements) plus each right-nested `:` and each
/// prefix `-`. At the bound the parser uses about 4.5 MB of stack.
inline constexpr unsigned kMaxNestingDepth = 4096;
/// The most elements one list literal `[e1, ..., en]` may have. A literal
/// desugars to a chain of n cons cells, one tree level each, without
/// recursing in the parser.
inline constexpr unsigned kMaxListLength = 12288;
/// The deepest syntax tree a parsed program may have once its sugar is
/// expanded: room for a full-length list literal at the deepest nesting.
/// It also bounds left-nested chains the parser builds in a loop
/// (`a + b + ...`, `f a b ...`, `lambda x y ... .`). At the bound the
/// compiler uses about 4.5 MB of stack.
inline constexpr unsigned kMaxSyntaxDepth = kMaxNestingDepth + kMaxListLength;

struct ParseOptions {
  /// Rewrite saturated applications of unshadowed primitive names into
  /// Prim1/Prim2 nodes.
  bool ResolvePrims = true;
};

/// Parses a complete program. Returns nullptr and fills \p Diags on error
/// (including a program past kMaxNestingDepth, kMaxListLength or
/// kMaxSyntaxDepth); on success the returned expression is owned by
/// \p Ctx.
const Expr *parseProgram(AstContext &Ctx, std::string_view Source,
                         DiagnosticSink &Diags, ParseOptions Opts = {});

class Lexer;

/// Parses one (maximal) expression from \p Lex, leaving trailing tokens
/// (e.g. the imperative module's `then`, `do`, `;`) unconsumed. Used by
/// host languages that embed L_lambda expressions.
const Expr *parseExprWith(AstContext &Ctx, Lexer &Lex, DiagnosticSink &Diags,
                          ParseOptions Opts = {});

/// Looks up \p Name in the primitive tables used by prim resolution.
std::optional<Prim1Op> lookupPrim1(Symbol Name);
std::optional<Prim2Op> lookupPrim2(Symbol Name);

} // namespace monsem

#endif // MONSEM_SYNTAX_PARSER_H
