//===- compile/RegLower.cpp - Stack bytecode -> register tier -------------===//
///
/// \file
/// The block-local register allocator. Each stack slot becomes a fixed
/// virtual register: at every pc the static stack height `h` is known
/// (control flow inside a block is forward-only — loops exist only via
/// calls), so the slot pushed at height h always lives in register
/// TempBase + h of the current frame window. Lowering is 1:1 — one RInstr
/// per Instr at the same pc with the same Cost — which keeps step counts,
/// probe positions, and checkpoint (block, pc) coordinates those of the
/// stack bytecode, the canonical form checkpoints are written in.
///
/// The register tier is the only executor of compiled bytecode, so this
/// pass must accept everything compileProgram emits: the compiler refuses
/// programs whose operand stack or binder depth exceeds the encoding
/// (kMaxOperandStack, kParamReg), and the checks below only reject
/// hand-built bytecode.
///
/// Leaf blocks (no MkClosure, no PushRecEnv, no probes; never the entry)
/// additionally keep their parameter in register 0 instead of an
/// environment node, eliding the per-call arena allocation that dominates
/// call-heavy workloads. Variable references in leaf blocks are rewritten:
/// depth 0 becomes the kParamReg register reference, depth d >= 1 becomes
/// environment depth d-1 against the closure's captured environment.
///
//===----------------------------------------------------------------------===//

#include "compile/Compiler.h"
#include "semantics/Primitives.h"

#include <cstdlib>

using namespace monsem;

namespace {

/// Static per-op stack effect of the *stack* encoding: values popped and
/// pushed by the instruction, used to propagate entry heights forward.
/// Terminal instructions (Ret/TailCall/VarTailCall/Halt) have no
/// fall-through successor and are handled separately.
struct StackEffect {
  unsigned Pops;
  unsigned Pushes;
};

StackEffect effectOf(const Instr &I) {
  static_assert(kNumOps == 24, "new opcode: update effectOf()");
  switch (I.Code) {
  case Op::Const:
  case Op::Var:
  case Op::MkClosure:
    return {0, 1};
  case Op::Jump:
  case Op::PushRecEnv:
  case Op::PopEnv:
  case Op::MonPre:
  case Op::MonPost:
    return {0, 0};
  case Op::JumpIfFalse:
  case Op::PatchRec:
    return {1, 0};
  case Op::Call:
    return {2, 1}; // Result materializes where the arg was.
  case Op::TailCall:
    return {2, 0};
  case Op::Ret:
  case Op::Halt:
    return {1, 0};
  case Op::Prim1:
    return {1, 1};
  case Op::Prim2:
    return {2, 1};
  case Op::VarVar:
    return {0, 2};
  case Op::VarPrim2:
  case Op::ConstPrim2:
    return {1, 1};
  case Op::VarConstPrim2:
  case Op::VarVarPrim2:
    return {0, 1};
  case Op::Prim2JumpIfFalse:
    return {2, 0};
  case Op::VarCall:
    return {1, 1};
  case Op::VarTailCall:
    return {1, 0};
  }
  std::abort();
}

bool isTerminal(Op O) {
  return O == Op::Ret || O == Op::Halt || O == Op::TailCall ||
         O == Op::VarTailCall;
}

/// Entry stack height at every pc of \p B, or empty on an inconsistency
/// (which the compiler never produces). Forward-only control flow makes a
/// single left-to-right pass sufficient: every jump target is greater than
/// the jump's pc. Unreachable pcs keep kDeadHeight.
///
/// \p IsEntry: the entry block's final Halt is reachable through the
/// sentinel frame (a top-level tail call returns straight to it) even when
/// no fall-through path reaches it, always with exactly the answer on the
/// stack — seed it at height 1 so the Halt reads the sentinel frame's
/// return destination register.
std::vector<uint16_t> computeHeights(const CodeBlock &B, bool IsEntry) {
  std::vector<uint16_t> H(B.Code.size(), kDeadHeight);
  if (B.Code.empty())
    return {};
  H[0] = 0;
  if (IsEntry)
    H[B.Code.size() - 1] = 1;
  auto Merge = [&](size_t Pc, unsigned Height) {
    if (Pc >= B.Code.size() || Height > kMaxRegister)
      return false;
    if (H[Pc] == kDeadHeight) {
      H[Pc] = static_cast<uint16_t>(Height);
      return true;
    }
    return H[Pc] == Height;
  };
  for (size_t Pc = 0; Pc < B.Code.size(); ++Pc) {
    if (H[Pc] == kDeadHeight)
      continue; // Dead code (e.g. the if-join jump after a taken tail call).
    const Instr &I = B.Code[Pc];
    StackEffect E = effectOf(I);
    if (H[Pc] < E.Pops)
      return {};
    unsigned Exit = H[Pc] - E.Pops + E.Pushes;
    bool IsJump = I.Code == Op::Jump || I.Code == Op::JumpIfFalse ||
                  I.Code == Op::Prim2JumpIfFalse;
    if (IsJump) {
      if (I.A <= Pc || !Merge(I.A, Exit)) // Forward-only, consistent.
        return {};
    }
    if (!isTerminal(I.Code) && I.Code != Op::Jump)
      if (!Merge(Pc + 1, Exit))
        return {};
  }
  return H;
}

/// True when \p B can run without a per-call environment node: nothing in
/// it captures or extends the environment, and no probe needs to observe
/// it. The entry block (index 0) is excluded — its frame is the program
/// root and the Halt convention reads the answer from register 0.
bool isLeafBlock(const CodeBlock &B) {
  for (const Instr &I : B.Code)
    switch (I.Code) {
    case Op::MkClosure:
    case Op::PushRecEnv:
    case Op::MonPre:
    case Op::MonPost:
      return false;
    default:
      break;
    }
  return true;
}

class Lowerer {
public:
  explicit Lowerer(const CompiledProgram &P) : P(P) {}

  std::unique_ptr<RegProgram> run() {
    auto RP = std::make_unique<RegProgram>();
    RP->Src = &P;
    RP->Blocks.resize(P.Blocks.size());
    for (size_t B = 0; B < P.Blocks.size(); ++B) {
      if (!lowerBlock(P.Blocks[B], B == 0,
                      B != 0 && isLeafBlock(P.Blocks[B]), RP->Blocks[B]))
        return nullptr;
      markCurrier(P.Blocks[B], B == 0, RP->Blocks[B]);
    }
    return RP;
  }

private:
  const CompiledProgram &P;

  /// Detects the curried-parameter shape (`MkClosure k; Ret`) so the
  /// register VM's apply path can collapse the call. Entry blocks are
  /// excluded (their Halt convention differs); the lowered body stays
  /// intact for checkpoint resume into the block.
  static void markCurrier(const CodeBlock &B, bool IsEntry, RegBlock &Out) {
    if (IsEntry || B.Code.size() != 2 || B.Code[0].Code != Op::MkClosure ||
        B.Code[1].Code != Op::Ret)
      return;
    unsigned Cost = unsigned(B.Code[0].Cost) + unsigned(B.Code[1].Cost);
    if (Cost > 0xFF)
      return;
    Out.Currier = true;
    Out.CurrierInner = B.Code[0].A;
    Out.CurrierCost = static_cast<uint8_t>(Cost);
  }

  /// Rewrites a stack-encoding environment depth for the current block.
  /// Returns false when the depth exceeds the u16 operand encoding.
  bool refOf(uint32_t Depth, bool Leaf, uint16_t &Out) {
    if (Leaf) {
      if (Depth == 0) {
        Out = kParamReg;
        return true;
      }
      --Depth; // The closure's env is the leaf frame's outer chain.
    }
    if (Depth >= kParamReg)
      return false;
    Out = static_cast<uint16_t>(Depth);
    return true;
  }

  bool lowerBlock(const CodeBlock &B, bool IsEntry, bool Leaf,
                  RegBlock &Out) {
    Out.Leaf = Leaf;
    Out.Live = B.Live;
    Out.TempBase = Leaf ? 1 : 0;
    Out.Param = B.Param;
    Out.Name = B.Name;
    Out.Height = computeHeights(B, IsEntry);
    if (Out.Height.size() != B.Code.size())
      return false;
    Out.Code.reserve(B.Code.size());
    const uint32_t TB = Out.TempBase;
    uint32_t MaxReg = TB; // Highest register index written, exclusive.
    bool AnyDead = false;
    for (size_t Pc = 0; Pc < B.Code.size(); ++Pc) {
      const Instr &I = B.Code[Pc];
      // Dead instructions never execute; lower them against a clamped
      // height so their register operands stay in-bounds.
      unsigned H = Out.Height[Pc];
      if (H == kDeadHeight) {
        AnyDead = true;
        H = 2;
      }
      auto Reg = [&](unsigned Slot) { return static_cast<uint16_t>(TB + Slot); };
      RInstr R;
      R.Code = static_cast<ROp>(I.Code);
      R.Cost = I.Cost;
      static_assert(kNumOps == 24, "new opcode: update lowerBlock()");
      switch (I.Code) {
      case Op::Const:
        R.A = I.A;
        R.D = Reg(H);
        break;
      case Op::Var:
        if (!refOf(I.A, Leaf, R.S1))
          return false;
        R.D = Reg(H);
        break;
      case Op::MkClosure: // Leaf blocks contain none by construction.
        R.A = I.A;
        R.D = Reg(H);
        break;
      case Op::Jump:
        R.A = I.A;
        break;
      case Op::JumpIfFalse:
        R.A = I.A;
        R.S1 = Reg(H - 1);
        break;
      case Op::Call:
        R.S1 = Reg(H - 1); // fn (top)
        R.S2 = Reg(H - 2); // arg
        R.D = Reg(H - 2);  // result replaces the pair
        break;
      case Op::TailCall:
        R.S1 = Reg(H - 1);
        R.S2 = Reg(H - 2);
        break;
      case Op::Ret:
      case Op::Halt:
        R.S1 = Reg(H - 1);
        break;
      case Op::Prim1:
        R.A = I.A;
        R.S1 = R.D = Reg(H - 1);
        break;
      case Op::Prim2:
        R.A = I.A;
        R.S1 = Reg(H - 2);
        R.S2 = Reg(H - 1);
        R.D = Reg(H - 2);
        break;
      case Op::PushRecEnv: // Leaf blocks contain none by construction.
      case Op::PopEnv:
      case Op::MonPre:
        R.A = I.A;
        break;
      case Op::PatchRec:
        R.S1 = Reg(H - 1);
        break;
      case Op::MonPost:
        R.A = I.A;
        R.S1 = Reg(H - 1);
        break;
      case Op::VarVar:
        if (!refOf(I.A, Leaf, R.S1) || !refOf(I.B, Leaf, R.S2))
          return false;
        R.D = Reg(H);
        break;
      case Op::VarPrim2:
        if (!refOf(I.A, Leaf, R.S2))
          return false;
        R.B = I.B;
        R.S1 = R.D = Reg(H - 1);
        break;
      case Op::ConstPrim2:
        R.A = I.A;
        R.B = I.B;
        R.S1 = R.D = Reg(H - 1);
        break;
      case Op::VarConstPrim2:
        if (!refOf(unpackDepth(I.B), Leaf, R.S1))
          return false;
        R.A = I.A;
        R.B = I.B;
        R.D = Reg(H);
        break;
      case Op::VarVarPrim2:
        if (!refOf(unpackDepth(I.B), Leaf, R.S1) ||
            !refOf(I.A, Leaf, R.S2))
          return false;
        R.B = I.B;
        R.D = Reg(H);
        break;
      case Op::Prim2JumpIfFalse:
        R.A = I.A;
        R.B = I.B;
        R.S1 = Reg(H - 2);
        R.S2 = Reg(H - 1);
        break;
      case Op::VarCall:
        if (!refOf(I.A, Leaf, R.S2))
          return false;
        R.S1 = R.D = Reg(H - 1); // arg in, result out
        break;
      case Op::VarTailCall:
        if (!refOf(I.A, Leaf, R.S2))
          return false;
        R.S1 = Reg(H - 1);
        break;
      }
      StackEffect E = effectOf(I);
      uint32_t Peak = TB + H - E.Pops + E.Pushes;
      if (I.Code == Op::VarVar)
        Peak = TB + H + 2; // Writes D and D+1.
      if (Peak > MaxReg)
        MaxReg = Peak;
      if (Peak > kMaxRegister)
        return false;
      Out.Code.push_back(R);
    }
    // Dead instructions were lowered at clamped height 2; keep their
    // (never-read) registers inside the window.
    if (AnyDead && MaxReg < TB + 4)
      MaxReg = TB + 4;
    Out.NumRegs = MaxReg;
    // Every window needs at least the parameter/result slot.
    if (Out.NumRegs < TB + 1)
      Out.NumRegs = TB + 1;
    return true;
  }
};

} // namespace

std::unique_ptr<RegProgram> monsem::lowerToRegisters(const CompiledProgram &P) {
  return Lowerer(P).run();
}

std::string RegProgram::disassemble() const {
  static_assert(kNumROps == 24,
                "new register opcode: update RegProgram::disassemble()");
  auto OpName = [](ROp O) -> const char * {
    switch (O) {
    case ROp::Const:
      return "rconst";
    case ROp::Var:
      return "rvar";
    case ROp::MkClosure:
      return "rclosure";
    case ROp::Jump:
      return "rjump";
    case ROp::JumpIfFalse:
      return "rjfalse";
    case ROp::Call:
      return "rcall";
    case ROp::TailCall:
      return "rtailcall";
    case ROp::Ret:
      return "rret";
    case ROp::Prim1:
      return "rprim1";
    case ROp::Prim2:
      return "rprim2";
    case ROp::PushRecEnv:
      return "rpushrec";
    case ROp::PatchRec:
      return "rpatchrec";
    case ROp::PopEnv:
      return "rpopenv";
    case ROp::MonPre:
      return "rmonpre";
    case ROp::MonPost:
      return "rmonpost";
    case ROp::Halt:
      return "rhalt";
    case ROp::VarVar:
      return "rvarvar";
    case ROp::VarPrim2:
      return "rvarprim2";
    case ROp::ConstPrim2:
      return "rconstprim2";
    case ROp::VarConstPrim2:
      return "rvarconstprim2";
    case ROp::VarVarPrim2:
      return "rvarvarprim2";
    case ROp::Prim2JumpIfFalse:
      return "rprim2jfalse";
    case ROp::VarCall:
      return "rvarcall";
    case ROp::VarTailCall:
      return "rvartailcall";
    }
    std::abort();
  };
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
    const RegBlock &RB = Blocks[B];
    Out += "block " + std::to_string(B) + " (" + RB.Name + ")";
    Out += RB.Leaf ? " leaf" : "";
    Out += " regs=" + std::to_string(RB.NumRegs) + ":\n";
    for (size_t I = 0; I < RB.Code.size(); ++I) {
      const RInstr &In = RB.Code[I];
      Out += "  " + std::to_string(I) + ": " + OpName(In.Code);
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
