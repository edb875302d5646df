//===- imp/ImpAst.h - Imperative language module ----------------*- C++ -*-===//
///
/// \file
/// The imperative language module of Section 9.2 ("lazy, strict and
/// imperative languages"). `L_imp` is a small while-language whose
/// expression sub-language is L_lambda itself:
///
///   c ::= skip | x := e | c ; c | print e | read x
///       | if e then c [else c] end | while e do c end
///       | begin c end | {mu}: c
///
/// Its standard semantics is a continuation semantics over a store; the
/// monitoring semantics is derived exactly as for L_lambda (Definition 4.2
/// instantiated at the command valuation function): the pre/post monitoring
/// functions observe the annotation, the command, and the store (the A*_i
/// semantic context of commands).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_IMP_IMPAST_H
#define MONSEM_IMP_IMPAST_H

#include "syntax/Ast.h"

#include <string>

namespace monsem {

enum class CmdKind : uint8_t { Skip, Assign, Seq, If, While, Print,
                               Read, Annot };

class Cmd {
public:
  CmdKind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

protected:
  Cmd(CmdKind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  CmdKind K;
  SourceLoc Loc;
};

class SkipCmd : public Cmd {
public:
  explicit SkipCmd(SourceLoc Loc) : Cmd(CmdKind::Skip, Loc) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::Skip; }
};

class AssignCmd : public Cmd {
public:
  Symbol Var;
  const Expr *Value;
  AssignCmd(Symbol Var, const Expr *Value, SourceLoc Loc)
      : Cmd(CmdKind::Assign, Loc), Var(Var), Value(Value) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::Assign; }
};

class SeqCmd : public Cmd {
public:
  const Cmd *First, *Second;
  SeqCmd(const Cmd *First, const Cmd *Second, SourceLoc Loc)
      : Cmd(CmdKind::Seq, Loc), First(First), Second(Second) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::Seq; }
};

class IfCmd : public Cmd {
public:
  const Expr *Cond;
  const Cmd *Then, *Else;
  IfCmd(const Expr *Cond, const Cmd *Then, const Cmd *Else, SourceLoc Loc)
      : Cmd(CmdKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::If; }
};

class WhileCmd : public Cmd {
public:
  const Expr *Cond;
  const Cmd *Body;
  WhileCmd(const Expr *Cond, const Cmd *Body, SourceLoc Loc)
      : Cmd(CmdKind::While, Loc), Cond(Cond), Body(Body) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::While; }
};

/// `read x` — consume the next value from the program's input stream
/// (ImpRunOptions::Input) into x; reading past the end is a run-time
/// error. This is the §8 remark about interactive monitors applied to the
/// object language itself: programs get an input as well as an output
/// stream.
class ReadCmd : public Cmd {
public:
  Symbol Var;
  ReadCmd(Symbol Var, SourceLoc Loc) : Cmd(CmdKind::Read, Loc), Var(Var) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::Read; }
};

class PrintCmd : public Cmd {
public:
  const Expr *Value;
  PrintCmd(const Expr *Value, SourceLoc Loc)
      : Cmd(CmdKind::Print, Loc), Value(Value) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::Print; }
};

class AnnotCmd : public Cmd {
public:
  const Annotation *Ann;
  const Cmd *Inner;
  AnnotCmd(const Annotation *Ann, const Cmd *Inner, SourceLoc Loc)
      : Cmd(CmdKind::Annot, Loc), Ann(Ann), Inner(Inner) {}
  static bool classof(const Cmd *C) { return C->kind() == CmdKind::Annot; }
};

template <typename T> const T *cast(const Cmd *C) {
  assert(C && T::classof(C) && "cast to wrong command kind");
  return static_cast<const T *>(C);
}

template <typename T> const T *dyn_cast(const Cmd *C) {
  return C && T::classof(C) ? static_cast<const T *>(C) : nullptr;
}

/// Owns an imperative program: commands in a bump arena, expressions and
/// annotations in the embedded AstContext.
class ImpContext {
public:
  AstContext &exprs() { return ExprCtx; }

  const Cmd *mkSkip(SourceLoc Loc = {}) { return A.create<SkipCmd>(Loc); }
  const Cmd *mkAssign(Symbol Var, const Expr *Value, SourceLoc Loc = {}) {
    return A.create<AssignCmd>(Var, Value, Loc);
  }
  const Cmd *mkSeq(const Cmd *First, const Cmd *Second, SourceLoc Loc = {}) {
    return A.create<SeqCmd>(First, Second, Loc);
  }
  const Cmd *mkIf(const Expr *Cond, const Cmd *Then, const Cmd *Else,
                  SourceLoc Loc = {}) {
    return A.create<IfCmd>(Cond, Then, Else, Loc);
  }
  const Cmd *mkWhile(const Expr *Cond, const Cmd *Body, SourceLoc Loc = {}) {
    return A.create<WhileCmd>(Cond, Body, Loc);
  }
  const Cmd *mkPrint(const Expr *Value, SourceLoc Loc = {}) {
    return A.create<PrintCmd>(Value, Loc);
  }
  const Cmd *mkRead(Symbol Var, SourceLoc Loc = {}) {
    return A.create<ReadCmd>(Var, Loc);
  }
  const Cmd *mkAnnot(const Annotation *Ann, const Cmd *Inner,
                     SourceLoc Loc = {}) {
    return A.create<AnnotCmd>(Ann, Inner, Loc);
  }

private:
  AstContext ExprCtx;
  Arena A;
};

/// The commands of the `;` chain \p S in execution order. The parser
/// builds chains left-nested and as long as the program, so walks over
/// commands iterate along the spine with this instead of recursing down
/// it, which would overflow the C stack on a long straight-line program.
std::vector<const Cmd *> seqItems(const SeqCmd *S);

/// Renders a command in concrete syntax on one line.
std::string printCmd(const Cmd *C);

/// Collects every command-level annotation in pre-order.
void collectCmdAnnotations(const Cmd *C,
                           std::vector<const Annotation *> &Out);

/// Strips command-level annotations (the soundness theorem's sbar -> s).
const Cmd *stripCmdAnnotations(ImpContext &Ctx, const Cmd *C);

} // namespace monsem

#endif // MONSEM_IMP_IMPAST_H
