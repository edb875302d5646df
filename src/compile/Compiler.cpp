//===- compile/Compiler.cpp ------------------------------------------------===//

#include "compile/Compiler.h"

#include "analysis/Resolver.h"
#include "semantics/Primitives.h"
#include "syntax/Parser.h"

#include <cstdlib>
#include <optional>
#include <unordered_set>
#include <vector>

using namespace monsem;

namespace {

/// Finds the letrecs whose binder no live code refers to (PAPER.md §9.1:
/// precompute only what the program's runs need). One linear walk over
/// the resolved tree: a letrec's body is visited first, and its bound
/// expression only if live code referred to the binder by then, so a
/// self-reference never keeps a binder live. Everything under a bound
/// that is not visited is dead, and so are the binders only it names
/// (the prelude's `foldl` when nothing calls `sum`).
class Liveness {
public:
  std::unordered_set<const LetrecExpr *> run(const Expr *Program) {
    visit(Program);
    return std::move(Dead);
  }

private:
  /// One entry per binder in scope, innermost last: each lambda parameter
  /// and each letrec binder, the stack VarExpr::BinderDepth counts in.
  std::vector<bool> Used;
  std::unordered_set<const LetrecExpr *> Dead;

  void visit(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Const:
      return;
    case ExprKind::Var: {
      const auto *V = cast<VarExpr>(E);
      if (V->Addr == VarExpr::AddrKind::Local && V->BinderDepth < Used.size())
        Used[Used.size() - 1 - V->BinderDepth] = true;
      return;
    }
    case ExprKind::Lam:
      Used.push_back(false);
      visit(cast<LamExpr>(E)->Body);
      Used.pop_back();
      return;
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      visit(I->Cond);
      visit(I->Then);
      visit(I->Else);
      return;
    }
    case ExprKind::App:
      visit(cast<AppExpr>(E)->Arg);
      visit(cast<AppExpr>(E)->Fn);
      return;
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      Used.push_back(false);
      visit(L->Body);
      if (Used.back())
        visit(L->Bound);
      else
        Dead.insert(L);
      Used.pop_back();
      return;
    }
    case ExprKind::Prim1:
      visit(cast<Prim1Expr>(E)->Arg);
      return;
    case ExprKind::Prim2:
      visit(cast<Prim2Expr>(E)->Lhs);
      visit(cast<Prim2Expr>(E)->Rhs);
      return;
    case ExprKind::Annot:
      visit(cast<AnnotExpr>(E)->Inner);
      return;
    }
  }
};

class Compiler {
public:
  Compiler(DiagnosticSink &Diags, CompileOptions Opts)
      : Diags(Diags), Opts(Opts), Prog(std::make_unique<CompiledProgram>()) {
    Prog->Instrumented = Opts.Instrument;
  }

  std::unique_ptr<CompiledProgram> run(const Expr *Program) {
    // Reuse the resolver's binder numbering: its BinderDepth is exactly
    // the VM's env-link distance (the compiler and the VM both push one
    // env node per lambda parameter and per letrec binder, the latter in
    // scope for bound expression and body alike).
    Res = resolveProgramCached(Program);
    if (!Res->ok()) {
      Diags.error(Program->loc(), kSharedNodesError);
      return nullptr;
    }
    Dead = Liveness().run(Program);
    Prog->Blocks.emplace_back();
    Prog->Blocks[0].Name = "<main>";
    compileInto(0, Program);
    if (Failed)
      return nullptr;
    emit(0, Op::Halt);
    if (Opts.Fuse)
      fuseSuperinstructions(*Prog);
    markReusableFrames(*Prog);
    return std::move(Prog);
  }

private:
  DiagnosticSink &Diags;
  CompileOptions Opts;
  std::unique_ptr<CompiledProgram> Prog;
  std::shared_ptr<const Resolution> Res;
  /// Letrecs with a dead binder, and how many of their bound expressions
  /// enclose the expression being compiled: blocks compiled there get
  /// CodeBlock::Live = false.
  std::unordered_set<const LetrecExpr *> Dead;
  uint32_t InDeadBound = 0;
  bool Failed = false;

  void emit(uint32_t Block, Op Code, uint32_t A = 0) {
    Instr I;
    I.Code = Code;
    I.A = A;
    Prog->Blocks[Block].Code.push_back(I);
  }
  size_t here(uint32_t Block) const {
    return Prog->Blocks[Block].Code.size();
  }
  void patch(uint32_t Block, size_t At, uint32_t Target) {
    Prog->Blocks[Block].Code[At].A = Target;
  }

  uint32_t addConst(Value V) {
    Prog->ConstPool.push_back(V);
    return static_cast<uint32_t>(Prog->ConstPool.size() - 1);
  }
  uint32_t addName(Symbol S) {
    Prog->Names.push_back(S);
    return static_cast<uint32_t>(Prog->Names.size() - 1);
  }
  uint32_t addProbe(const Annotation *Ann, const Expr *Inner) {
    Prog->Probes.push_back(ProbeSite{Ann, Inner});
    return static_cast<uint32_t>(Prog->Probes.size() - 1);
  }

  void compileInto(uint32_t Block, const Expr *Top) {
    compileExpr(Block, Top, /*Tail=*/true, /*H=*/0);
  }

  /// Every push happens at a leaf (Const, Var, MkClosure), so checking the
  /// height there bounds the block's whole operand stack: the register
  /// tier gives each stack slot its own register.
  bool pushFits(const Expr *E, uint32_t H) {
    if (H < kMaxOperandStack)
      return true;
    Diags.error(E->loc(), "expression needs more than " +
                              std::to_string(kMaxOperandStack) +
                              " pending operands; the register encoding "
                              "holds at most that many");
    Failed = true;
    return false;
  }

  /// Compiles \p E into \p Block with \p H values already on the block's
  /// operand stack; when \p Tail, the expression's value is the block's
  /// result (calls become TailCall; the caller then emits Ret/Halt after
  /// the block body).
  void compileExpr(uint32_t Block, const Expr *E, bool Tail, uint32_t H) {
    if (Failed)
      return;
    switch (E->kind()) {
    case ExprKind::Const: {
      const ConstVal &C = cast<ConstExpr>(E)->Val;
      Value V;
      switch (C.K) {
      case ConstVal::Kind::Int:
        V = Value::mkInt(C.Int, Prog->ConstArena);
        break;
      case ConstVal::Kind::Bool:
        V = Value::mkBool(C.Bool);
        break;
      case ConstVal::Kind::Str:
        V = Value::mkStr(C.Str);
        break;
      case ConstVal::Kind::Nil:
        V = Value::mkNil();
        break;
      }
      if (pushFits(E, H))
        emit(Block, Op::Const, addConst(V));
      return;
    }
    case ExprKind::Var: {
      const auto *V = cast<VarExpr>(E);
      if (!pushFits(E, H))
        return;
      switch (V->Addr) {
      case VarExpr::AddrKind::Local:
        if (V->BinderDepth >= kParamReg) {
          Diags.error(E->loc(), "variable '" + std::string(V->Name.str()) +
                                    "' is bound more than " +
                                    std::to_string(kParamReg - 1) +
                                    " binders out; the register encoding "
                                    "reaches at most that far");
          Failed = true;
          return;
        }
        emit(Block, Op::Var, V->BinderDepth);
        return;
      case VarExpr::AddrKind::Global:
        // Free variables denote primitives (the initial environment); the
        // resolver's global slot indexes primBindings directly.
        emit(Block, Op::Const, addConst(primBindings()[V->SlotIndex].Val));
        return;
      case VarExpr::AddrKind::Unbound:
      case VarExpr::AddrKind::Unresolved:
        // The environment shape is fully static: a compile-time error.
        Diags.error(E->loc(),
                    "unbound variable '" + std::string(V->Name.str()) + "'");
        Failed = true;
        return;
      }
      return;
    }
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      if (!pushFits(E, H))
        return;
      uint32_t Sub = static_cast<uint32_t>(Prog->Blocks.size());
      Prog->Blocks.emplace_back();
      Prog->Blocks[Sub].Param = L->Param;
      Prog->Blocks[Sub].Name = "lambda " + std::string(L->Param.str());
      Prog->Blocks[Sub].Live = InDeadBound == 0;
      compileExpr(Sub, L->Body, /*Tail=*/true, /*H=*/0);
      emit(Sub, Op::Ret);
      emit(Block, Op::MkClosure, Sub);
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      compileExpr(Block, I->Cond, /*Tail=*/false, H);
      size_t JF = here(Block);
      emit(Block, Op::JumpIfFalse);
      compileExpr(Block, I->Then, Tail, H);
      size_t J = here(Block);
      emit(Block, Op::Jump);
      patch(Block, JF, static_cast<uint32_t>(here(Block)));
      compileExpr(Block, I->Else, Tail, H);
      patch(Block, J, static_cast<uint32_t>(here(Block)));
      return;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      // Paper order: operand, then operator.
      compileExpr(Block, A->Arg, /*Tail=*/false, H);
      compileExpr(Block, A->Fn, /*Tail=*/false, H + 1);
      emit(Block, Tail && Opts.TailCalls ? Op::TailCall : Op::Call);
      return;
    }
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      emit(Block, Op::PushRecEnv, addName(L->Name));
      const bool DeadBound = Dead.count(L) != 0;
      InDeadBound += DeadBound;
      compileExpr(Block, L->Bound, /*Tail=*/false, H);
      InDeadBound -= DeadBound;
      emit(Block, Op::PatchRec);
      compileExpr(Block, L->Body, Tail, H);
      if (!Tail)
        emit(Block, Op::PopEnv, 1);
      return;
    }
    case ExprKind::Prim1: {
      const auto *P = cast<Prim1Expr>(E);
      compileExpr(Block, P->Arg, /*Tail=*/false, H);
      emit(Block, Op::Prim1, static_cast<uint32_t>(P->Op));
      return;
    }
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(E);
      compileExpr(Block, P->Lhs, /*Tail=*/false, H);
      compileExpr(Block, P->Rhs, /*Tail=*/false, H + 1);
      emit(Block, Op::Prim2, static_cast<uint32_t>(P->Op));
      return;
    }
    case ExprKind::Annot: {
      const auto *N = cast<AnnotExpr>(E);
      if (!Opts.Instrument) {
        // Compile-time obliviousness (Definition 7.1).
        compileExpr(Block, N->Inner, Tail, H);
        return;
      }
      uint32_t Probe = addProbe(N->Ann, N->Inner);
      emit(Block, Op::MonPre, Probe);
      // The post probe must run after the value is produced, so the inner
      // expression is not in tail position (same as the CEK machine's
      // MonPost frame).
      compileExpr(Block, N->Inner, /*Tail=*/false, H);
      emit(Block, Op::MonPost, Probe);
      return;
    }
    }
  }
};

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

bool isJump(Op O) {
  return O == Op::Jump || O == Op::JumpIfFalse || O == Op::Prim2JumpIfFalse;
}

/// One left-to-right fusion scan over \p Code. \p TryFuse maps an adjacent
/// pair to its fused form (or nullopt). A pair is skipped when its second
/// member is a branch target — fusing it would make the jump land in the
/// middle of a superinstruction — or when the summed Cost would overflow
/// the step counter's per-instruction byte. Jump operands are remapped to
/// the post-fusion indices afterward. Returns the number of pairs fused.
template <typename FuseFn>
size_t fusePhase(std::vector<Instr> &Code, FuseFn TryFuse) {
  // Branch targets always point at an instruction (every patched operand
  // is filled by a later emit before the block's closing Ret/Halt), but
  // size n+1 tolerates an end-of-block target anyway.
  std::vector<bool> Target(Code.size() + 1, false);
  for (const Instr &I : Code)
    if (isJump(I.Code))
      Target[I.A] = true;
  std::vector<Instr> Out;
  Out.reserve(Code.size());
  std::vector<uint32_t> Map(Code.size() + 1);
  size_t Fused = 0;
  for (size_t I = 0; I < Code.size(); ++I) {
    Map[I] = static_cast<uint32_t>(Out.size());
    if (I + 1 < Code.size() && !Target[I + 1] &&
        Code[I].Cost + Code[I + 1].Cost <= 0xFF) {
      if (std::optional<Instr> F = TryFuse(Code[I], Code[I + 1])) {
        F->Cost = static_cast<uint8_t>(Code[I].Cost + Code[I + 1].Cost);
        Map[I + 1] = static_cast<uint32_t>(Out.size());
        Out.push_back(*F);
        ++I;
        ++Fused;
        continue;
      }
    }
    Out.push_back(Code[I]);
  }
  Map[Code.size()] = static_cast<uint32_t>(Out.size());
  for (Instr &I : Out)
    if (isJump(I.Code))
      I.A = Map[I.A];
  Code = std::move(Out);
  return Fused;
}

std::optional<Instr> mkFused(Op Code, uint32_t A, uint16_t B = 0) {
  Instr F;
  F.Code = Code;
  F.A = A;
  F.B = B;
  return F;
}

} // namespace

size_t monsem::fuseSuperinstructions(CompiledProgram &P) {
  size_t Total = 0;
  for (CodeBlock &B : P.Blocks) {
    std::vector<Instr> &C = B.Code;
    // Phase order matters: the producer+Prim2 phases run first so the
    // triple forms (Var;Const;Prim2 / Var;Var;Prim2) are reachable as
    // Var + {Const,Var}Prim2, which a single greedy pair scan would miss.
    // No rule matches MonPre/MonPost, so probes break every window.
    //
    // Phase 0: {Var,Const} + Prim2.
    Total += fusePhase(C, [](const Instr &X,
                             const Instr &Y) -> std::optional<Instr> {
      if (Y.Code != Op::Prim2 || Y.A > 0xFF)
        return std::nullopt;
      uint16_t OpB = packOpDepth(static_cast<uint8_t>(Y.A), 0);
      if (X.Code == Op::Var)
        return mkFused(Op::VarPrim2, X.A, OpB);
      if (X.Code == Op::Const)
        return mkFused(Op::ConstPrim2, X.A, OpB);
      return std::nullopt;
    });
    // Phase 1: Var + {Const,Var}Prim2 — the lhs variable folds into the
    // depth byte when it fits and the slot is still free.
    Total += fusePhase(C, [](const Instr &X,
                             const Instr &Y) -> std::optional<Instr> {
      if (X.Code != Op::Var || X.A > kMaxPackedDepth)
        return std::nullopt;
      if (Y.Code == Op::ConstPrim2 && unpackDepth(Y.B) == 0)
        return mkFused(Op::VarConstPrim2, Y.A,
                       packOpDepth(unpackPrimOp(Y.B), X.A));
      if (Y.Code == Op::VarPrim2 && unpackDepth(Y.B) == 0)
        return mkFused(Op::VarVarPrim2, Y.A,
                       packOpDepth(unpackPrimOp(Y.B), X.A));
      return std::nullopt;
    });
    // Phase 2: Prim2 + JumpIfFalse (test-and-branch).
    Total += fusePhase(C, [](const Instr &X,
                             const Instr &Y) -> std::optional<Instr> {
      if (X.Code == Op::Prim2 && X.A <= 0xFF && Y.Code == Op::JumpIfFalse)
        return mkFused(Op::Prim2JumpIfFalse, Y.A,
                       packOpDepth(static_cast<uint8_t>(X.A), 0));
      return std::nullopt;
    });
    // Phase 3: Var + {Tail}Call (calling a letrec binding).
    Total += fusePhase(C, [](const Instr &X,
                             const Instr &Y) -> std::optional<Instr> {
      if (X.Code != Op::Var)
        return std::nullopt;
      if (Y.Code == Op::Call)
        return mkFused(Op::VarCall, X.A);
      if (Y.Code == Op::TailCall)
        return mkFused(Op::VarTailCall, X.A);
      return std::nullopt;
    });
    // Phase 4: Var + Var (whatever pairs survive the earlier phases).
    Total += fusePhase(C, [](const Instr &X,
                             const Instr &Y) -> std::optional<Instr> {
      if (X.Code == Op::Var && Y.Code == Op::Var && Y.A <= kMaxSecondaryVar)
        return mkFused(Op::VarVar, X.A, static_cast<uint16_t>(Y.A));
      return std::nullopt;
    });
  }
  return Total;
}

void monsem::markReusableFrames(CompiledProgram &P) {
  for (CodeBlock &B : P.Blocks) {
    bool Reusable = true;
    for (const Instr &I : B.Code)
      if (I.Code == Op::MkClosure || I.Code == Op::MonPre ||
          I.Code == Op::MonPost)
        Reusable = false;
    B.ReusableFrame = Reusable;
  }
}

std::unique_ptr<CompiledProgram> monsem::compileProgram(const Expr *Program,
                                                        DiagnosticSink &Diags,
                                                        CompileOptions Opts) {
  return Compiler(Diags, Opts).run(Program);
}

std::string CompiledProgram::disassemble() const {
  // Both switches below are exhaustive over Op with no default, so -Wswitch
  // flags any opcode added without a disassembly; the trailing abort makes
  // a corrupted opcode loud rather than silently printing "?".
  static_assert(kNumOps == 24,
                "new opcode: update disassemble()'s two switches");
  auto OpName = [](Op O) -> const char * {
    switch (O) {
    case Op::Const:
      return "const";
    case Op::Var:
      return "var";
    case Op::MkClosure:
      return "closure";
    case Op::Jump:
      return "jump";
    case Op::JumpIfFalse:
      return "jfalse";
    case Op::Call:
      return "call";
    case Op::TailCall:
      return "tailcall";
    case Op::Ret:
      return "ret";
    case Op::Prim1:
      return "prim1";
    case Op::Prim2:
      return "prim2";
    case Op::PushRecEnv:
      return "pushrec";
    case Op::PatchRec:
      return "patchrec";
    case Op::PopEnv:
      return "popenv";
    case Op::MonPre:
      return "monpre";
    case Op::MonPost:
      return "monpost";
    case Op::Halt:
      return "halt";
    case Op::VarVar:
      return "varvar";
    case Op::VarPrim2:
      return "varprim2";
    case Op::ConstPrim2:
      return "constprim2";
    case Op::VarConstPrim2:
      return "varconstprim2";
    case Op::VarVarPrim2:
      return "varvarprim2";
    case Op::Prim2JumpIfFalse:
      return "prim2jfalse";
    case Op::VarCall:
      return "varcall";
    case Op::VarTailCall:
      return "vartailcall";
    }
    std::abort();
  };
  auto P2 = [](uint32_t Raw) {
    return std::string(prim2Name(static_cast<Prim2Op>(Raw)));
  };
  std::string Out;
  for (size_t B = 0; B < Blocks.size(); ++B) {
    Out += "block " + std::to_string(B) + " (" + Blocks[B].Name + "):\n";
    const auto &Code = Blocks[B].Code;
    for (size_t I = 0; I < Code.size(); ++I) {
      const Instr &In = Code[I];
      Out += "  " + std::to_string(I) + ": " + OpName(In.Code);
      switch (In.Code) {
      case Op::Prim1:
        Out += std::string(" ") + prim1Name(static_cast<Prim1Op>(In.A));
        break;
      case Op::Prim2:
        Out += " " + P2(In.A);
        break;
      case Op::MonPre:
      case Op::MonPost:
        Out += " " + Probes[In.A].Ann->text();
        break;
      case Op::Const:
        Out += " " + toDisplayString(ConstPool[In.A]);
        break;
      case Op::Var:
      case Op::MkClosure:
      case Op::Jump:
      case Op::JumpIfFalse:
      case Op::PushRecEnv:
      case Op::PopEnv:
      case Op::VarCall:
      case Op::VarTailCall:
        Out += " " + std::to_string(In.A);
        break;
      case Op::Ret:
      case Op::Halt:
      case Op::Call:
      case Op::TailCall:
      case Op::PatchRec:
        break;
      case Op::VarVar:
        Out += " " + std::to_string(In.A) + " " + std::to_string(In.B);
        break;
      case Op::VarPrim2:
        Out += " " + std::to_string(In.A) + " " + P2(unpackPrimOp(In.B));
        break;
      case Op::ConstPrim2:
        Out += " " + toDisplayString(ConstPool[In.A]) + " " +
               P2(unpackPrimOp(In.B));
        break;
      case Op::VarConstPrim2:
        Out += " " + std::to_string(unpackDepth(In.B)) + " " +
               toDisplayString(ConstPool[In.A]) + " " + P2(unpackPrimOp(In.B));
        break;
      case Op::VarVarPrim2:
        Out += " " + std::to_string(unpackDepth(In.B)) + " " +
               std::to_string(In.A) + " " + P2(unpackPrimOp(In.B));
        break;
      case Op::Prim2JumpIfFalse:
        Out += " " + P2(unpackPrimOp(In.B)) + " -> " + std::to_string(In.A);
        break;
      }
      Out += '\n';
    }
  }
  return Out;
}
