//===- syntax/Ast.cpp - AST utilities --------------------------------------===//

#include "syntax/Ast.h"

#include "support/Checkpoint.h"

using namespace monsem;

const char *monsem::prim1Name(Prim1Op Op) {
  switch (Op) {
  case Prim1Op::Neg:
    return "-";
  case Prim1Op::Not:
    return "not";
  case Prim1Op::Hd:
    return "hd";
  case Prim1Op::Tl:
    return "tl";
  case Prim1Op::Null:
    return "null";
  case Prim1Op::IsInt:
    return "int?";
  case Prim1Op::IsBool:
    return "bool?";
  case Prim1Op::IsPair:
    return "pair?";
  case Prim1Op::IsFun:
    return "fun?";
  case Prim1Op::Abs:
    return "abs";
  }
  return "?";
}

const char *monsem::prim2Name(Prim2Op Op) {
  switch (Op) {
  case Prim2Op::Add:
    return "+";
  case Prim2Op::Sub:
    return "-";
  case Prim2Op::Mul:
    return "*";
  case Prim2Op::Div:
    return "/";
  case Prim2Op::Mod:
    return "%";
  case Prim2Op::Eq:
    return "=";
  case Prim2Op::Ne:
    return "<>";
  case Prim2Op::Lt:
    return "<";
  case Prim2Op::Le:
    return "<=";
  case Prim2Op::Gt:
    return ">";
  case Prim2Op::Ge:
    return ">=";
  case Prim2Op::Cons:
    return ":";
  case Prim2Op::Min:
    return "min";
  case Prim2Op::Max:
    return "max";
  }
  return "?";
}

bool monsem::isInfix(Prim2Op Op) {
  switch (Op) {
  case Prim2Op::Min:
  case Prim2Op::Max:
    return false;
  default:
    return true;
  }
}

std::string Annotation::text() const {
  std::string Out = "{";
  if (Qual) {
    Out += Qual.str();
    Out += ':';
  }
  Out += Head.str();
  if (HasParams) {
    Out += '(';
    for (size_t I = 0; I < Params.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += Params[I].str();
    }
    Out += ')';
  }
  Out += '}';
  return Out;
}

bool monsem::exprEquals(const Expr *A, const Expr *B) {
  if (A == B)
    return true;
  if (!A || !B || A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::Const:
    return cast<ConstExpr>(A)->Val == cast<ConstExpr>(B)->Val;
  case ExprKind::Var:
    return cast<VarExpr>(A)->Name == cast<VarExpr>(B)->Name;
  case ExprKind::Lam: {
    const auto *LA = cast<LamExpr>(A), *LB = cast<LamExpr>(B);
    return LA->Param == LB->Param && exprEquals(LA->Body, LB->Body);
  }
  case ExprKind::If: {
    const auto *IA = cast<IfExpr>(A), *IB = cast<IfExpr>(B);
    return exprEquals(IA->Cond, IB->Cond) && exprEquals(IA->Then, IB->Then) &&
           exprEquals(IA->Else, IB->Else);
  }
  case ExprKind::App: {
    const auto *AA = cast<AppExpr>(A), *AB = cast<AppExpr>(B);
    return exprEquals(AA->Fn, AB->Fn) && exprEquals(AA->Arg, AB->Arg);
  }
  case ExprKind::Letrec: {
    const auto *LA = cast<LetrecExpr>(A), *LB = cast<LetrecExpr>(B);
    return LA->Name == LB->Name && exprEquals(LA->Bound, LB->Bound) &&
           exprEquals(LA->Body, LB->Body);
  }
  case ExprKind::Prim1: {
    const auto *PA = cast<Prim1Expr>(A), *PB = cast<Prim1Expr>(B);
    return PA->Op == PB->Op && exprEquals(PA->Arg, PB->Arg);
  }
  case ExprKind::Prim2: {
    const auto *PA = cast<Prim2Expr>(A), *PB = cast<Prim2Expr>(B);
    return PA->Op == PB->Op && exprEquals(PA->Lhs, PB->Lhs) &&
           exprEquals(PA->Rhs, PB->Rhs);
  }
  case ExprKind::Annot: {
    const auto *NA = cast<AnnotExpr>(A), *NB = cast<AnnotExpr>(B);
    return *NA->Ann == *NB->Ann && exprEquals(NA->Inner, NB->Inner);
  }
  }
  return false;
}

const Expr *monsem::cloneExpr(AstContext &Ctx, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const:
    return Ctx.mkConst(cast<ConstExpr>(E)->Val, E->loc());
  case ExprKind::Var:
    return Ctx.mkVar(cast<VarExpr>(E)->Name, E->loc());
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    return Ctx.mkLam(L->Param, cloneExpr(Ctx, L->Body), E->loc());
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    return Ctx.mkIf(cloneExpr(Ctx, I->Cond), cloneExpr(Ctx, I->Then),
                    cloneExpr(Ctx, I->Else), E->loc());
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    return Ctx.mkApp(cloneExpr(Ctx, A->Fn), cloneExpr(Ctx, A->Arg), E->loc());
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    return Ctx.mkLetrec(L->Name, cloneExpr(Ctx, L->Bound),
                        cloneExpr(Ctx, L->Body), E->loc());
  }
  case ExprKind::Prim1: {
    const auto *P = cast<Prim1Expr>(E);
    return Ctx.mkPrim1(P->Op, cloneExpr(Ctx, P->Arg), E->loc());
  }
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    return Ctx.mkPrim2(P->Op, cloneExpr(Ctx, P->Lhs), cloneExpr(Ctx, P->Rhs),
                       E->loc());
  }
  case ExprKind::Annot: {
    const auto *N = cast<AnnotExpr>(E);
    const Annotation *Ann = Ctx.internAnnotation(*N->Ann);
    return Ctx.mkAnnot(Ann, cloneExpr(Ctx, N->Inner), E->loc());
  }
  }
  return nullptr;
}

size_t monsem::exprDepth(const Expr *E, const Expr **Deepest) {
  std::vector<std::pair<const Expr *, size_t>> Work{{E, 1}};
  size_t Max = 0;
  while (!Work.empty()) {
    auto [N, D] = Work.back();
    Work.pop_back();
    if (D > Max) {
      Max = D;
      if (Deepest)
        *Deepest = N;
    }
    switch (N->kind()) {
    case ExprKind::Const:
    case ExprKind::Var:
      break;
    case ExprKind::Lam:
      Work.push_back({cast<LamExpr>(N)->Body, D + 1});
      break;
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(N);
      Work.push_back({I->Cond, D + 1});
      Work.push_back({I->Then, D + 1});
      Work.push_back({I->Else, D + 1});
      break;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(N);
      Work.push_back({A->Fn, D + 1});
      Work.push_back({A->Arg, D + 1});
      break;
    }
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(N);
      Work.push_back({L->Bound, D + 1});
      Work.push_back({L->Body, D + 1});
      break;
    }
    case ExprKind::Prim1:
      Work.push_back({cast<Prim1Expr>(N)->Arg, D + 1});
      break;
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(N);
      Work.push_back({P->Lhs, D + 1});
      Work.push_back({P->Rhs, D + 1});
      break;
    }
    case ExprKind::Annot:
      Work.push_back({cast<AnnotExpr>(N)->Inner, D + 1});
      break;
    }
  }
  return Max;
}

size_t monsem::exprSize(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Var:
    return 1;
  case ExprKind::Lam:
    return 1 + exprSize(cast<LamExpr>(E)->Body);
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    return 1 + exprSize(I->Cond) + exprSize(I->Then) + exprSize(I->Else);
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    return 1 + exprSize(A->Fn) + exprSize(A->Arg);
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    return 1 + exprSize(L->Bound) + exprSize(L->Body);
  }
  case ExprKind::Prim1:
    return 1 + exprSize(cast<Prim1Expr>(E)->Arg);
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    return 1 + exprSize(P->Lhs) + exprSize(P->Rhs);
  }
  case ExprKind::Annot:
    return 1 + exprSize(cast<AnnotExpr>(E)->Inner);
  }
  return 0;
}

void monsem::collectAnnotations(const Expr *E,
                                std::vector<const Annotation *> &Out) {
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Var:
    return;
  case ExprKind::Lam:
    collectAnnotations(cast<LamExpr>(E)->Body, Out);
    return;
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    collectAnnotations(I->Cond, Out);
    collectAnnotations(I->Then, Out);
    collectAnnotations(I->Else, Out);
    return;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    collectAnnotations(A->Fn, Out);
    collectAnnotations(A->Arg, Out);
    return;
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    collectAnnotations(L->Bound, Out);
    collectAnnotations(L->Body, Out);
    return;
  }
  case ExprKind::Prim1:
    collectAnnotations(cast<Prim1Expr>(E)->Arg, Out);
    return;
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    collectAnnotations(P->Lhs, Out);
    collectAnnotations(P->Rhs, Out);
    return;
  }
  case ExprKind::Annot: {
    const auto *N = cast<AnnotExpr>(E);
    Out.push_back(N->Ann);
    collectAnnotations(N->Inner, Out);
    return;
  }
  }
}

void monsem::collectExprs(const Expr *E, std::vector<const Expr *> &Out) {
  Out.push_back(E);
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Var:
    return;
  case ExprKind::Lam:
    collectExprs(cast<LamExpr>(E)->Body, Out);
    return;
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    collectExprs(I->Cond, Out);
    collectExprs(I->Then, Out);
    collectExprs(I->Else, Out);
    return;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    collectExprs(A->Fn, Out);
    collectExprs(A->Arg, Out);
    return;
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    collectExprs(L->Bound, Out);
    collectExprs(L->Body, Out);
    return;
  }
  case ExprKind::Prim1:
    collectExprs(cast<Prim1Expr>(E)->Arg, Out);
    return;
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    collectExprs(P->Lhs, Out);
    collectExprs(P->Rhs, Out);
    return;
  }
  case ExprKind::Annot:
    collectExprs(cast<AnnotExpr>(E)->Inner, Out);
    return;
  }
}

namespace {
uint64_t hashChain(uint64_t H, std::string_view S) {
  H = fnv1aHash(S.data(), S.size(), H);
  return fnv1aHash("\x1f", 1, H); // field separator
}
} // namespace

uint64_t monsem::exprFingerprint(const Expr *E) {
  // Every kind has a fixed arity, so hashing the pre-order stream of
  // (kind, payload) pairs identifies the tree unambiguously.
  std::vector<const Expr *> Nodes;
  collectExprs(E, Nodes);
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Expr *N : Nodes) {
    uint8_t K = static_cast<uint8_t>(N->kind());
    H = fnv1aHash(&K, 1, H);
    switch (N->kind()) {
    case ExprKind::Const: {
      const ConstVal &V = cast<ConstExpr>(N)->Val;
      uint8_t CK = static_cast<uint8_t>(V.K);
      H = fnv1aHash(&CK, 1, H);
      switch (V.K) {
      case ConstVal::Kind::Int: {
        int64_t I = V.Int;
        H = fnv1aHash(&I, sizeof(I), H);
        break;
      }
      case ConstVal::Kind::Bool:
        H = hashChain(H, V.Bool ? "t" : "f");
        break;
      case ConstVal::Kind::Str:
        H = hashChain(H, *V.Str);
        break;
      case ConstVal::Kind::Nil:
        break;
      }
      break;
    }
    case ExprKind::Var:
      H = hashChain(H, cast<VarExpr>(N)->Name.str());
      break;
    case ExprKind::Lam:
      H = hashChain(H, cast<LamExpr>(N)->Param.str());
      break;
    case ExprKind::Letrec:
      H = hashChain(H, cast<LetrecExpr>(N)->Name.str());
      break;
    case ExprKind::Prim1: {
      uint8_t Op = static_cast<uint8_t>(cast<Prim1Expr>(N)->Op);
      H = fnv1aHash(&Op, 1, H);
      break;
    }
    case ExprKind::Prim2: {
      uint8_t Op = static_cast<uint8_t>(cast<Prim2Expr>(N)->Op);
      H = fnv1aHash(&Op, 1, H);
      break;
    }
    case ExprKind::Annot:
      H = hashChain(H, cast<AnnotExpr>(N)->Ann->text());
      break;
    case ExprKind::If:
    case ExprKind::App:
      break;
    }
  }
  return H;
}

const Expr *monsem::stripAnnotations(AstContext &Ctx, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const:
    return Ctx.mkConst(cast<ConstExpr>(E)->Val, E->loc());
  case ExprKind::Var:
    return Ctx.mkVar(cast<VarExpr>(E)->Name, E->loc());
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    return Ctx.mkLam(L->Param, stripAnnotations(Ctx, L->Body), E->loc());
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    return Ctx.mkIf(stripAnnotations(Ctx, I->Cond),
                    stripAnnotations(Ctx, I->Then),
                    stripAnnotations(Ctx, I->Else), E->loc());
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    return Ctx.mkApp(stripAnnotations(Ctx, A->Fn),
                     stripAnnotations(Ctx, A->Arg), E->loc());
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    return Ctx.mkLetrec(L->Name, stripAnnotations(Ctx, L->Bound),
                        stripAnnotations(Ctx, L->Body), E->loc());
  }
  case ExprKind::Prim1: {
    const auto *P = cast<Prim1Expr>(E);
    return Ctx.mkPrim1(P->Op, stripAnnotations(Ctx, P->Arg), E->loc());
  }
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    return Ctx.mkPrim2(P->Op, stripAnnotations(Ctx, P->Lhs),
                       stripAnnotations(Ctx, P->Rhs), E->loc());
  }
  case ExprKind::Annot:
    return stripAnnotations(Ctx, cast<AnnotExpr>(E)->Inner);
  }
  return nullptr;
}
