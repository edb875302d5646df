//===- imp/ImpAst.cpp ------------------------------------------------------===//

#include "imp/ImpAst.h"

#include "syntax/Printer.h"

#include <algorithm>

using namespace monsem;

namespace {

void print(std::string &Out, const Cmd *C) {
  switch (C->kind()) {
  case CmdKind::Skip:
    Out += "skip";
    return;
  case CmdKind::Assign: {
    const auto *A = cast<AssignCmd>(C);
    Out += A->Var.str();
    Out += " := ";
    Out += printExpr(A->Value);
    return;
  }
  case CmdKind::Seq: {
    const char *Sep = "";
    for (const Cmd *I : seqItems(cast<SeqCmd>(C))) {
      Out += Sep;
      print(Out, I);
      Sep = "; ";
    }
    return;
  }
  case CmdKind::If: {
    const auto *I = cast<IfCmd>(C);
    Out += "if ";
    Out += printExpr(I->Cond);
    Out += " then ";
    print(Out, I->Then);
    Out += " else ";
    print(Out, I->Else);
    Out += " end";
    return;
  }
  case CmdKind::While: {
    const auto *W = cast<WhileCmd>(C);
    Out += "while ";
    Out += printExpr(W->Cond);
    Out += " do ";
    print(Out, W->Body);
    Out += " end";
    return;
  }
  case CmdKind::Print: {
    Out += "print ";
    Out += printExpr(cast<PrintCmd>(C)->Value);
    return;
  }
  case CmdKind::Read:
    Out += "read ";
    Out += cast<ReadCmd>(C)->Var.str();
    return;
  case CmdKind::Annot: {
    const auto *A = cast<AnnotCmd>(C);
    Out += A->Ann->text();
    Out += ": ";
    print(Out, A->Inner);
    return;
  }
  }
}

} // namespace

std::vector<const Cmd *> monsem::seqItems(const SeqCmd *S) {
  std::vector<const Cmd *> Items;
  const Cmd *C = S;
  for (; const auto *Seq = dyn_cast<SeqCmd>(C); C = Seq->First)
    Items.push_back(Seq->Second);
  Items.push_back(C);
  std::reverse(Items.begin(), Items.end());
  return Items;
}

std::string monsem::printCmd(const Cmd *C) {
  std::string Out;
  print(Out, C);
  return Out;
}

void monsem::collectCmdAnnotations(const Cmd *C,
                                   std::vector<const Annotation *> &Out) {
  switch (C->kind()) {
  case CmdKind::Skip:
  case CmdKind::Assign:
  case CmdKind::Print:
  case CmdKind::Read:
    return;
  case CmdKind::Seq:
    for (const Cmd *I : seqItems(cast<SeqCmd>(C)))
      collectCmdAnnotations(I, Out);
    return;
  case CmdKind::If: {
    const auto *I = cast<IfCmd>(C);
    collectCmdAnnotations(I->Then, Out);
    collectCmdAnnotations(I->Else, Out);
    return;
  }
  case CmdKind::While:
    collectCmdAnnotations(cast<WhileCmd>(C)->Body, Out);
    return;
  case CmdKind::Annot: {
    const auto *A = cast<AnnotCmd>(C);
    Out.push_back(A->Ann);
    collectCmdAnnotations(A->Inner, Out);
    return;
  }
  }
}

const Cmd *monsem::stripCmdAnnotations(ImpContext &Ctx, const Cmd *C) {
  switch (C->kind()) {
  case CmdKind::Skip:
  case CmdKind::Assign:
  case CmdKind::Print:
  case CmdKind::Read:
    return C; // Leaves share structure (expressions are untouched).
  case CmdKind::Seq: {
    // Rebuild the left-nested spine bottom-up, iteratively (seqItems).
    std::vector<const SeqCmd *> Spine;
    const Cmd *Leftmost = C;
    while (const auto *S = dyn_cast<SeqCmd>(Leftmost)) {
      Spine.push_back(S);
      Leftmost = S->First;
    }
    const Cmd *Acc = stripCmdAnnotations(Ctx, Leftmost);
    for (auto It = Spine.rbegin(); It != Spine.rend(); ++It)
      Acc = Ctx.mkSeq(Acc, stripCmdAnnotations(Ctx, (*It)->Second),
                      (*It)->loc());
    return Acc;
  }
  case CmdKind::If: {
    const auto *I = cast<IfCmd>(C);
    return Ctx.mkIf(I->Cond, stripCmdAnnotations(Ctx, I->Then),
                    stripCmdAnnotations(Ctx, I->Else), C->loc());
  }
  case CmdKind::While: {
    const auto *W = cast<WhileCmd>(C);
    return Ctx.mkWhile(W->Cond, stripCmdAnnotations(Ctx, W->Body), C->loc());
  }
  case CmdKind::Annot:
    return stripCmdAnnotations(Ctx, cast<AnnotCmd>(C)->Inner);
  }
  return C;
}
