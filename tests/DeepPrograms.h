//===- tests/DeepPrograms.h - Programs at the parser's bounds ---*- C++ -*-===//
///
/// \file
/// Source generators for every shape that nests: parentheses, `:`, unary
/// minus, if, let, lambda, annotations and list literals (nested, and one
/// long literal), plus a left-nested `+` chain for the desugared-depth
/// bound. `program(Levels)` yields a program whose depth, as the parser
/// counts it, is exactly Levels; shapes at their bound must run, one past
/// it must get a parse diagnostic — never a signal. deepImpProgram does the
/// same for the imperative language's commands.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_TESTS_DEEPPROGRAMS_H
#define MONSEM_TESTS_DEEPPROGRAMS_H

#include "syntax/Parser.h"

#include <string>
#include <vector>

namespace monsem::testing {

/// Without Sep: Levels - 1 copies of Prefix, Core, Levels - 1 copies of
/// Suffix. With Sep: Prefix, Levels copies of Core joined by Sep, Suffix.
struct DeepShape {
  const char *Name;
  unsigned Bound; ///< The largest accepted Levels.
  std::string Prefix;
  std::string Core;
  std::string Suffix;
  std::string Sep;

  std::string program(unsigned Levels) const {
    std::string S;
    if (!Sep.empty()) {
      S = Prefix;
      for (unsigned I = 0; I < Levels; ++I)
        S += (I ? Sep : "") + Core;
      return S + Suffix;
    }
    for (unsigned I = 1; I < Levels; ++I)
      S += Prefix;
    S += Core;
    for (unsigned I = 1; I < Levels; ++I)
      S += Suffix;
    return S;
  }
};

inline std::vector<DeepShape> deepShapes() {
  return {
      {"parens", kMaxNestingDepth, "1 + (", "1", ")", ""},
      {"cons", kMaxNestingDepth, "1 : ", "[]", "", ""},
      {"minus", kMaxNestingDepth, "- ", "1", "", ""},
      {"if", kMaxNestingDepth, "if true then ", "1", " else 0", ""},
      {"let", kMaxNestingDepth, "let x = 1 in ", "x", "", ""},
      {"lambda", kMaxNestingDepth, "lambda x. ", "x", "", ""},
      {"annotation", kMaxNestingDepth, "{A}: ", "1", "", ""},
      {"nested-list", kMaxNestingDepth, "[", "1", "]", ""},
      {"list-literal", kMaxListLength, "[", "1", "]", ", "},
      {"plus-chain", kMaxSyntaxDepth, "", "1", "", " + "},
  };
}

/// A tree exactly kMaxSyntaxDepth deep: the head of a full-length list
/// literal, inside the deepest parentheses its elements may sit in. The parser's stack peaks in the parentheses, every later
/// phase's in the list.
inline std::string deepestAcceptedProgram() {
  DeepShape Parens{"parens", kMaxNestingDepth, "1 + (", "", ")", ""};
  DeepShape List{"list-literal", kMaxListLength, "[", "1", "]", ", "};
  Parens.Core = "hd " + List.program(kMaxListLength);
  return Parens.program(kMaxNestingDepth - 1);
}

/// An imperative program whose commands nest exactly \p Levels deep: one
/// `while`, `if` or annotated command per level around an assignment.
inline std::string deepImpProgram(unsigned Levels) {
  static const char *const Open[] = {"while x < 1 do ", "if x < 1 then ",
                                     "{a}: "};
  static const char *const Close[] = {" end", " else skip end", ""};
  std::string S = "x := 0; ";
  for (unsigned I = 1; I < Levels; ++I)
    S += Open[I % 3];
  S += "x := 1";
  for (unsigned I = Levels - 1; I >= 1; --I)
    S += Close[I % 3];
  return S + "; print x";
}

/// A straight-line Imp program of \p N `x := x + 1; print x` steps after
/// `x := 0`. The parser builds the `;` chain left-nested in a loop, so no
/// nesting bound applies: every walk over it must iterate the chain.
inline std::string longImpSequence(unsigned N) {
  std::string S = "x := 0";
  for (unsigned I = 0; I < N; ++I)
    S += "; x := x + 1; print x";
  return S;
}

} // namespace monsem::testing

#endif // MONSEM_TESTS_DEEPPROGRAMS_H
