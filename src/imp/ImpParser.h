//===- imp/ImpParser.h - Parser for L_imp -----------------------*- C++ -*-===//
///
/// \file
/// Parses the imperative language. Sequencing with `;` is right-nested;
/// `else` is optional (defaults to skip); block delimiters are
/// `then/do ... end` and `begin ... end`; `{label}: cmd` annotates a
/// command. Expressions use the full L_lambda expression parser.
///
///   -- gcd
///   a := 252; b := 105;
///   while a <> b do
///     {gcdstep}: if a > b then a := a - b else b := b - a end
///   end;
///   print a
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_IMP_IMPPARSER_H
#define MONSEM_IMP_IMPPARSER_H

#include "imp/ImpAst.h"
#include "support/Diagnostics.h"

#include <string_view>

namespace monsem {

/// Parses a complete imperative program; nullptr plus diagnostics on error,
/// including a program whose commands nest deeper than kMaxNestingDepth
/// (syntax/Parser.h) — each `if`, `while`, `begin` and annotation opens a
/// level around the commands inside it.
const Cmd *parseImpProgram(ImpContext &Ctx, std::string_view Source,
                           DiagnosticSink &Diags);

} // namespace monsem

#endif // MONSEM_IMP_IMPPARSER_H
