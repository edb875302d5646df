//===- compile/Compiler.cpp ------------------------------------------------===//

#include "compile/Compiler.h"

#include "analysis/Resolver.h"
#include "semantics/Primitives.h"
#include "syntax/Parser.h"

#include <algorithm>
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
    compileExpr(0, Program, /*Tail=*/true, /*H=*/0);
    if (Failed)
      return nullptr;
    emit(0, 1, ROp::Halt);
    for (size_t B = 0; B < Prog->Blocks.size(); ++B)
      finishBlock(Prog->Blocks[B], B == 0, Opts.Fuse);
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

  /// Appends \p Code with operand \p A to \p Block; \p H is the operand
  /// stack height before it. Registers are assigned in finishBlock.
  RInstr &emit(uint32_t Block, uint32_t H, ROp Code, uint32_t A = 0) {
    CodeBlock &B = Prog->Blocks[Block];
    RInstr I;
    I.Code = Code;
    I.A = A;
    B.Code.push_back(I);
    B.Height.push_back(static_cast<uint16_t>(H));
    return B.Code.back();
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
        emit(Block, H, ROp::Const, addConst(V));
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
        emit(Block, H, ROp::Var).S1 = static_cast<uint16_t>(V->BinderDepth);
        return;
      case VarExpr::AddrKind::Global:
        // Free variables denote primitives (the initial environment); the
        // resolver's global slot indexes primBindings directly.
        emit(Block, H, ROp::Const,
             addConst(primBindings()[V->SlotIndex].Val));
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
      emit(Sub, 1, ROp::Ret);
      emit(Block, H, ROp::MkClosure, Sub);
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      compileExpr(Block, I->Cond, /*Tail=*/false, H);
      size_t JF = here(Block);
      emit(Block, H + 1, ROp::JumpIfFalse);
      compileExpr(Block, I->Then, Tail, H);
      size_t J = here(Block);
      emit(Block, H + 1, ROp::Jump);
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
      emit(Block, H + 2, Tail ? ROp::TailCall : ROp::Call);
      return;
    }
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      emit(Block, H, ROp::PushRecEnv, addName(L->Name));
      const bool DeadBound = Dead.count(L) != 0;
      InDeadBound += DeadBound;
      compileExpr(Block, L->Bound, /*Tail=*/false, H);
      InDeadBound -= DeadBound;
      emit(Block, H + 1, ROp::PatchRec);
      compileExpr(Block, L->Body, Tail, H);
      if (!Tail)
        emit(Block, H + 1, ROp::PopEnv, 1);
      return;
    }
    case ExprKind::Prim1: {
      const auto *P = cast<Prim1Expr>(E);
      compileExpr(Block, P->Arg, /*Tail=*/false, H);
      emit(Block, H + 1, ROp::Prim1, static_cast<uint32_t>(P->Op));
      return;
    }
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(E);
      compileExpr(Block, P->Lhs, /*Tail=*/false, H);
      compileExpr(Block, P->Rhs, /*Tail=*/false, H + 1);
      emit(Block, H + 2, ROp::Prim2, static_cast<uint32_t>(P->Op));
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
      emit(Block, H, ROp::MonPre, Probe);
      // The post probe must run after the value is produced, so the inner
      // expression is not in tail position (same as the CEK machine's
      // MonPost frame).
      compileExpr(Block, N->Inner, /*Tail=*/false, H);
      emit(Block, H + 1, ROp::MonPost, Probe);
      return;
    }
    }
  }
};

//===----------------------------------------------------------------------===//
// The finish step: fusion, reachability, registers
//===----------------------------------------------------------------------===//

bool isJump(ROp O) {
  return O == ROp::Jump || O == ROp::JumpIfFalse ||
         O == ROp::Prim2JumpIfFalse;
}

bool isTerminal(ROp O) {
  return O == ROp::Ret || O == ROp::Halt || O == ROp::TailCall ||
         O == ROp::VarTailCall;
}

/// One left-to-right fusion scan over \p B. \p TryFuse maps an adjacent
/// pair to its fused form (or nullopt). A pair is skipped when its second
/// member is a branch target — fusing it would make the jump land in the
/// middle of a superinstruction — or when the summed Cost would overflow
/// the step counter's per-instruction byte. The fused instruction keeps
/// its first member's height; jump operands are remapped to the
/// post-fusion indices afterward. Returns the number of pairs fused.
template <typename FuseFn> size_t fusePhase(CodeBlock &B, FuseFn TryFuse) {
  const std::vector<RInstr> &Code = B.Code;
  // Branch targets always point at an instruction (every patched operand
  // is filled by a later emit before the block's closing Ret/Halt), but
  // size n+1 tolerates an end-of-block target anyway.
  std::vector<bool> Target(Code.size() + 1, false);
  for (const RInstr &I : Code)
    if (isJump(I.Code))
      Target[I.A] = true;
  std::vector<RInstr> Out;
  std::vector<uint16_t> Height;
  Out.reserve(Code.size());
  Height.reserve(Code.size());
  std::vector<uint32_t> Map(Code.size() + 1);
  size_t Fused = 0;
  for (size_t I = 0; I < Code.size(); ++I) {
    Map[I] = static_cast<uint32_t>(Out.size());
    Height.push_back(B.Height[I]);
    if (I + 1 < Code.size() && !Target[I + 1] &&
        Code[I].Cost + Code[I + 1].Cost <= 0xFF) {
      if (std::optional<RInstr> F = TryFuse(Code[I], Code[I + 1])) {
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
  for (RInstr &I : Out)
    if (isJump(I.Code))
      I.A = Map[I.A];
  B.Code = std::move(Out);
  B.Height = std::move(Height);
  return Fused;
}

/// A fused instruction; variable references go in S1/S2 as binder depths.
std::optional<RInstr> mkFused(ROp Code, uint32_t A, uint16_t B,
                              uint16_t S1 = 0, uint16_t S2 = 0) {
  RInstr F;
  F.Code = Code;
  F.A = A;
  F.B = B;
  F.S1 = S1;
  F.S2 = S2;
  return F;
}

size_t fuseBlock(CodeBlock &B) {
  // Phase order matters: the producer+Prim2 phases run first so the
  // triple forms (Var;Const;Prim2 / Var;Var;Prim2) are reachable as
  // Var + {Const,Var}Prim2, which a single greedy pair scan would miss.
  // No rule matches MonPre/MonPost, so probes break every window. Before
  // registers are assigned, a Var's binder depth sits in S1.
  //
  // Phase 0: {Var,Const} + Prim2.
  size_t Total = fusePhase(
      B, [](const RInstr &X, const RInstr &Y) -> std::optional<RInstr> {
        if (Y.Code != ROp::Prim2 || Y.A > 0xFF)
          return std::nullopt;
        uint16_t OpB = packOpDepth(static_cast<uint8_t>(Y.A), 0);
        if (X.Code == ROp::Var)
          return mkFused(ROp::VarPrim2, 0, OpB, 0, X.S1);
        if (X.Code == ROp::Const)
          return mkFused(ROp::ConstPrim2, X.A, OpB);
        return std::nullopt;
      });
  // Phase 1: Var + {Const,Var}Prim2 — the lhs variable folds into the
  // depth byte when it fits and the slot is still free.
  Total += fusePhase(
      B, [](const RInstr &X, const RInstr &Y) -> std::optional<RInstr> {
        if (X.Code != ROp::Var || X.S1 > kMaxPackedDepth)
          return std::nullopt;
        if (Y.Code == ROp::ConstPrim2 && unpackDepth(Y.B) == 0)
          return mkFused(ROp::VarConstPrim2, Y.A,
                         packOpDepth(unpackPrimOp(Y.B), X.S1), X.S1);
        if (Y.Code == ROp::VarPrim2 && unpackDepth(Y.B) == 0)
          return mkFused(ROp::VarVarPrim2, 0,
                         packOpDepth(unpackPrimOp(Y.B), X.S1), X.S1, Y.S2);
        return std::nullopt;
      });
  // Phase 2: Prim2 + JumpIfFalse (test-and-branch).
  Total += fusePhase(
      B, [](const RInstr &X, const RInstr &Y) -> std::optional<RInstr> {
        if (X.Code == ROp::Prim2 && X.A <= 0xFF &&
            Y.Code == ROp::JumpIfFalse)
          return mkFused(ROp::Prim2JumpIfFalse, Y.A,
                         packOpDepth(static_cast<uint8_t>(X.A), 0));
        return std::nullopt;
      });
  // Phase 3: Var + {Tail}Call (calling a letrec binding).
  Total += fusePhase(
      B, [](const RInstr &X, const RInstr &Y) -> std::optional<RInstr> {
        if (X.Code != ROp::Var)
          return std::nullopt;
        if (Y.Code == ROp::Call)
          return mkFused(ROp::VarCall, 0, 0, 0, X.S1);
        if (Y.Code == ROp::TailCall)
          return mkFused(ROp::VarTailCall, 0, 0, 0, X.S1);
        return std::nullopt;
      });
  // Phase 4: Var + Var (whatever pairs survive the earlier phases).
  static_assert(kParamReg - 1 <= kMaxSecondaryVar,
                "every depth the compiler emits fits VarVar's second slot");
  Total += fusePhase(
      B, [](const RInstr &X, const RInstr &Y) -> std::optional<RInstr> {
        if (X.Code == ROp::Var && Y.Code == ROp::Var)
          return mkFused(ROp::VarVar, 0, 0, X.S1, Y.S1);
        return std::nullopt;
      });
  return Total;
}

/// Sets the register operands of \p I from \p H, the operand-stack height
/// before it: the value pushed at height h lives in register TB + h. In a
/// leaf block, variable references are rewritten: depth 0 becomes the
/// kParamReg register reference, depth d >= 1 environment depth d-1
/// against the closure's captured chain. Returns one past the highest
/// register the instruction writes (0 when it writes none).
uint32_t assignRegisters(RInstr &I, unsigned H, uint32_t TB, bool Leaf) {
  static_assert(kNumROps == 24, "new opcode: update assignRegisters()");
  auto Reg = [&](unsigned Slot) { return static_cast<uint16_t>(TB + Slot); };
  auto Ref = [&](uint16_t &Depth) {
    if (Leaf)
      Depth = Depth == 0 ? kParamReg : Depth - 1;
  };
  switch (I.Code) {
  case ROp::Const:
  case ROp::MkClosure: // Leaf blocks contain none by construction.
    I.D = Reg(H);
    return I.D + 1u;
  case ROp::Var:
    Ref(I.S1);
    I.D = Reg(H);
    return I.D + 1u;
  case ROp::Jump:
  case ROp::PushRecEnv: // Leaf blocks contain none by construction.
  case ROp::PopEnv:
  case ROp::MonPre:
    return 0;
  case ROp::JumpIfFalse:
  case ROp::Ret:
  case ROp::Halt:
  case ROp::PatchRec:
  case ROp::MonPost:
    I.S1 = Reg(H - 1);
    return 0;
  case ROp::Call:
    I.S1 = Reg(H - 1); // fn (top)
    I.S2 = Reg(H - 2); // arg
    I.D = Reg(H - 2);  // result replaces the pair
    return I.D + 1u;
  case ROp::TailCall:
    I.S1 = Reg(H - 1);
    I.S2 = Reg(H - 2);
    return 0;
  case ROp::Prim1:
  case ROp::ConstPrim2:
    I.S1 = I.D = Reg(H - 1);
    return I.D + 1u;
  case ROp::Prim2:
    I.S1 = Reg(H - 2);
    I.S2 = Reg(H - 1);
    I.D = Reg(H - 2);
    return I.D + 1u;
  case ROp::VarVar: // Writes r[D] and r[D+1].
  case ROp::VarVarPrim2:
    Ref(I.S1);
    Ref(I.S2);
    I.D = Reg(H);
    return I.D + (I.Code == ROp::VarVar ? 2u : 1u);
  case ROp::VarPrim2:
  case ROp::VarCall: // arg in, result out
    Ref(I.S2);
    I.S1 = I.D = Reg(H - 1);
    return I.D + 1u;
  case ROp::VarConstPrim2:
    Ref(I.S1);
    I.D = Reg(H);
    return I.D + 1u;
  case ROp::Prim2JumpIfFalse:
    I.S1 = Reg(H - 2);
    I.S2 = Reg(H - 1);
    return 0;
  case ROp::VarTailCall:
    Ref(I.S2);
    I.S1 = Reg(H - 1);
    return 0;
  }
  std::abort();
}

} // namespace

size_t monsem::finishBlock(CodeBlock &B, bool IsEntry, bool Fuse) {
  size_t Fused = Fuse ? fuseBlock(B) : 0;
  const size_t N = B.Code.size();

  // Reachability. Forward-only control flow makes one left-to-right pass
  // enough. The entry block's final Halt is also reached through the
  // sentinel frame (a top-level tail call returns straight to it), always
  // with exactly the answer on the stack. Size N+1 tolerates an
  // end-of-block jump target, as fusePhase does.
  std::vector<bool> Reached(N + 1, false);
  if (N)
    Reached[0] = true;
  if (IsEntry && N)
    Reached[N - 1] = true;
  for (size_t Pc = 0; Pc < N; ++Pc) {
    if (!Reached[Pc])
      continue;
    const RInstr &I = B.Code[Pc];
    if (isJump(I.Code))
      Reached[I.A] = true;
    if (!isTerminal(I.Code) && I.Code != ROp::Jump && Pc + 1 < N)
      Reached[Pc + 1] = true;
  }

  B.Leaf = !IsEntry;
  B.ReusableFrame = true;
  for (const RInstr &I : B.Code) {
    bool Captures = I.Code == ROp::MkClosure || I.Code == ROp::MonPre ||
                    I.Code == ROp::MonPost;
    if (Captures || I.Code == ROp::PushRecEnv)
      B.Leaf = false;
    if (Captures)
      B.ReusableFrame = false;
  }
  B.TempBase = B.Leaf ? 1 : 0;

  // Every window needs at least the parameter/result slot. Dead
  // instructions never execute; their operands are assigned at height 2
  // and the window keeps their (never-read) registers in bounds.
  uint32_t Top = B.TempBase + 1;
  for (size_t Pc = 0; Pc < N; ++Pc) {
    unsigned H = B.Height[Pc];
    if (!Reached[Pc]) {
      B.Height[Pc] = kDeadHeight;
      H = 2;
      Top = std::max(Top, B.TempBase + 4);
    }
    Top = std::max(Top, assignRegisters(B.Code[Pc], H, B.TempBase, B.Leaf));
  }
  B.NumRegs = Top;

  // The curried-parameter shape (`MkClosure k; Ret`), so the register
  // VM's apply path can collapse the call. Entry blocks are excluded
  // (their Halt convention differs); the body stays intact for checkpoint
  // resume into the block.
  if (!IsEntry && N == 2 && B.Code[0].Code == ROp::MkClosure &&
      B.Code[1].Code == ROp::Ret) {
    unsigned Cost = unsigned(B.Code[0].Cost) + unsigned(B.Code[1].Cost);
    if (Cost <= 0xFF) {
      B.Currier = true;
      B.CurrierInner = B.Code[0].A;
      B.CurrierCost = static_cast<uint8_t>(Cost);
    }
  }
  return Fused;
}

std::unique_ptr<CompiledProgram> monsem::compileProgram(const Expr *Program,
                                                        DiagnosticSink &Diags,
                                                        CompileOptions Opts) {
  return Compiler(Diags, Opts).run(Program);
}

std::unique_ptr<RegProgram> monsem::lowerToRegisters(const CompiledProgram &P) {
  return std::make_unique<RegProgram>(P);
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

namespace {

/// Opcode spellings of the stack-notation listing; the register listing
/// prefixes them with `r`. The switch is exhaustive over ROp with no
/// default, so -Wswitch flags any opcode added without a spelling; the
/// trailing abort makes a corrupted opcode loud rather than silently
/// printing "?".
const char *opName(ROp O) {
  switch (O) {
  case ROp::Const:
    return "const";
  case ROp::Var:
    return "var";
  case ROp::MkClosure:
    return "closure";
  case ROp::Jump:
    return "jump";
  case ROp::JumpIfFalse:
    return "jfalse";
  case ROp::Call:
    return "call";
  case ROp::TailCall:
    return "tailcall";
  case ROp::Ret:
    return "ret";
  case ROp::Prim1:
    return "prim1";
  case ROp::Prim2:
    return "prim2";
  case ROp::PushRecEnv:
    return "pushrec";
  case ROp::PatchRec:
    return "patchrec";
  case ROp::PopEnv:
    return "popenv";
  case ROp::MonPre:
    return "monpre";
  case ROp::MonPost:
    return "monpost";
  case ROp::Halt:
    return "halt";
  case ROp::VarVar:
    return "varvar";
  case ROp::VarPrim2:
    return "varprim2";
  case ROp::ConstPrim2:
    return "constprim2";
  case ROp::VarConstPrim2:
    return "varconstprim2";
  case ROp::VarVarPrim2:
    return "varvarprim2";
  case ROp::Prim2JumpIfFalse:
    return "prim2jfalse";
  case ROp::VarCall:
    return "varcall";
  case ROp::VarTailCall:
    return "vartailcall";
  }
  std::abort();
}

} // namespace

std::string CompiledProgram::disassemble() const {
  static_assert(kNumROps == 24,
                "new opcode: update opName() and disassemble()");
  auto P2 = [](uint32_t Raw) {
    return std::string(prim2Name(static_cast<Prim2Op>(Raw)));
  };
  std::string Out;
  for (size_t B = 0; B < Blocks.size(); ++B) {
    const CodeBlock &CB = Blocks[B];
    // A varref operand as the binder depth the source counts (undoing the
    // leaf rewrite).
    auto Depth = [&CB](uint16_t Ref) {
      if (!CB.Leaf)
        return std::to_string(Ref);
      return std::to_string(Ref == kParamReg ? 0 : uint32_t(Ref) + 1);
    };
    Out += "block " + std::to_string(B) + " (" + CB.Name + "):\n";
    for (size_t I = 0; I < CB.Code.size(); ++I) {
      const RInstr &In = CB.Code[I];
      Out += "  " + std::to_string(I) + ": " + opName(In.Code);
      switch (In.Code) {
      case ROp::Prim1:
        Out += std::string(" ") + prim1Name(static_cast<Prim1Op>(In.A));
        break;
      case ROp::Prim2:
        Out += " " + P2(In.A);
        break;
      case ROp::MonPre:
      case ROp::MonPost:
        Out += " " + Probes[In.A].Ann->text();
        break;
      case ROp::Const:
        Out += " " + toDisplayString(ConstPool[In.A]);
        break;
      case ROp::Var:
        Out += " " + Depth(In.S1);
        break;
      case ROp::MkClosure:
      case ROp::Jump:
      case ROp::JumpIfFalse:
      case ROp::PushRecEnv:
      case ROp::PopEnv:
        Out += " " + std::to_string(In.A);
        break;
      case ROp::VarCall:
      case ROp::VarTailCall:
        Out += " " + Depth(In.S2);
        break;
      case ROp::Ret:
      case ROp::Halt:
      case ROp::Call:
      case ROp::TailCall:
      case ROp::PatchRec:
        break;
      case ROp::VarVar:
        Out += " " + Depth(In.S1) + " " + Depth(In.S2);
        break;
      case ROp::VarPrim2:
        Out += " " + Depth(In.S2) + " " + P2(unpackPrimOp(In.B));
        break;
      case ROp::ConstPrim2:
        Out += " " + toDisplayString(ConstPool[In.A]) + " " +
               P2(unpackPrimOp(In.B));
        break;
      case ROp::VarConstPrim2:
        Out += " " + Depth(In.S1) + " " + toDisplayString(ConstPool[In.A]) +
               " " + P2(unpackPrimOp(In.B));
        break;
      case ROp::VarVarPrim2:
        Out += " " + Depth(In.S1) + " " + Depth(In.S2) + " " +
               P2(unpackPrimOp(In.B));
        break;
      case ROp::Prim2JumpIfFalse:
        Out += " " + P2(unpackPrimOp(In.B)) + " -> " + std::to_string(In.A);
        break;
      }
      Out += '\n';
    }
  }
  return Out;
}

std::string RegProgram::disassemble() const {
  static_assert(kNumROps == 24,
                "new opcode: update RegProgram::disassemble()");
  auto R = [](uint16_t Idx) { return "r" + std::to_string(Idx); };
  // A varref operand: the leaf parameter register or an env depth.
  auto V = [](uint16_t Ref) {
    return Ref == kParamReg ? std::string("param")
                            : "env[" + std::to_string(Ref) + "]";
  };
  auto P2 = [](uint16_t B) {
    return std::string(prim2Name(static_cast<Prim2Op>(unpackPrimOp(B))));
  };
  std::string Out;
  for (size_t B = 0; B < Blocks.size(); ++B) {
    const CodeBlock &RB = Blocks[B];
    Out += "block " + std::to_string(B) + " (" + RB.Name + ")";
    Out += RB.Leaf ? " leaf" : "";
    Out += " regs=" + std::to_string(RB.NumRegs) + ":\n";
    for (size_t I = 0; I < RB.Code.size(); ++I) {
      const RInstr &In = RB.Code[I];
      Out += "  " + std::to_string(I) + ": r" + opName(In.Code);
      switch (In.Code) {
      case ROp::Const:
        Out += " " + R(In.D) + " = " + toDisplayString(Src->ConstPool[In.A]);
        break;
      case ROp::Var:
        Out += " " + R(In.D) + " = " + V(In.S1);
        break;
      case ROp::MkClosure:
        Out += " " + R(In.D) + " = block " + std::to_string(In.A);
        break;
      case ROp::Jump:
        Out += " " + std::to_string(In.A);
        break;
      case ROp::JumpIfFalse:
        Out += " " + R(In.S1) + " -> " + std::to_string(In.A);
        break;
      case ROp::Call:
        Out += " " + R(In.D) + " = " + R(In.S1) + "(" + R(In.S2) + ")";
        break;
      case ROp::TailCall:
        Out += " " + R(In.S1) + "(" + R(In.S2) + ")";
        break;
      case ROp::Ret:
      case ROp::Halt:
        Out += " " + R(In.S1);
        break;
      case ROp::Prim1:
        Out += " " + R(In.D) + " = " +
               prim1Name(static_cast<Prim1Op>(In.A)) + " " + R(In.S1);
        break;
      case ROp::Prim2:
        Out += " " + R(In.D) + " = " + R(In.S1) + " " +
               prim2Name(static_cast<Prim2Op>(In.A)) + " " + R(In.S2);
        break;
      case ROp::PushRecEnv:
      case ROp::PopEnv:
        Out += " " + std::to_string(In.A);
        break;
      case ROp::PatchRec:
        Out += " " + R(In.S1);
        break;
      case ROp::MonPre:
        Out += " " + Src->Probes[In.A].Ann->text();
        break;
      case ROp::MonPost:
        Out += " " + Src->Probes[In.A].Ann->text() + " " + R(In.S1);
        break;
      case ROp::VarVar:
        Out += " " + R(In.D) + " = " + V(In.S1) + ", r" +
               std::to_string(In.D + 1) + " = " + V(In.S2);
        break;
      case ROp::VarPrim2:
        Out += " " + R(In.D) + " = " + R(In.S1) + " " + P2(In.B) + " " +
               V(In.S2);
        break;
      case ROp::ConstPrim2:
        Out += " " + R(In.D) + " = " + R(In.S1) + " " + P2(In.B) + " " +
               toDisplayString(Src->ConstPool[In.A]);
        break;
      case ROp::VarConstPrim2:
        Out += " " + R(In.D) + " = " + V(In.S1) + " " + P2(In.B) + " " +
               toDisplayString(Src->ConstPool[In.A]);
        break;
      case ROp::VarVarPrim2:
        Out += " " + R(In.D) + " = " + V(In.S1) + " " + P2(In.B) + " " +
               V(In.S2);
        break;
      case ROp::Prim2JumpIfFalse:
        Out += " " + R(In.S1) + " " + P2(In.B) + " " + R(In.S2) + " -> " +
               std::to_string(In.A);
        break;
      case ROp::VarCall:
        Out += " " + R(In.D) + " = " + V(In.S2) + "(" + R(In.S1) + ")";
        break;
      case ROp::VarTailCall:
        Out += " " + V(In.S2) + "(" + R(In.S1) + ")";
        break;
      }
      Out += '\n';
    }
  }
  return Out;
}
