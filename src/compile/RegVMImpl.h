//===- compile/RegVMImpl.h - Register VM shared implementation --*- C++ -*-===//
///
/// \file
/// The register-window virtual machine's state, call protocol, and
/// checkpoint logic — the one executor of compiled bytecode — shared by
/// the two drivers built on top of it:
///
///  - RegVM.cpp     — the pure interpreter (`--backend=vm-reg`, and its
///                    alias `--backend=vm`), a token-threaded dispatch
///                    loop;
///  - AotRun.cpp    — the AOT-native trampoline (`--backend=vm-aot`), which
///                    runs compiled leaf blocks natively and falls back to
///                    the same opcode handlers at deopt points.
///
/// Both drivers include this header and derive from `RegVMBase`, so the
/// run() (resume, governor, sentinel frame, abort arms), the apply
/// path (leaf windows, currier collapse, frame reuse), environment
/// discipline, failure messages, and the MSCK checkpoint spill/restore are
/// one implementation — the tiers cannot drift apart observably; each
/// tier supplies only its dispatch loop.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_COMPILE_REGVMIMPL_H
#define MONSEM_COMPILE_REGVMIMPL_H

#include "compile/VM.h"

#include "compile/Compiler.h"
#include "semantics/Primitives.h"
#include "semantics/ValueGraph.h"
#include "support/Checkpoint.h"

#include <algorithm>
#include <deque>

namespace monsem {
namespace regvm_impl {


/// A suspended call: where to resume, that frame's register window base,
/// and the absolute register its callee's result lands in. `Env` is the
/// frame's environment chain — for leaf frames the *outer* chain (the
/// parameter lives in Regs[Base], not in a node).
struct RFrame {
  uint32_t Block;
  uint32_t PC;
  uint32_t Base;
  uint32_t Dst;
  EnvNode *Env;
};
/// Moves a fused curried call's arguments a_1..a_k from absolute registers
/// \p First, First-1, ..., First-k+1 to registers \p Dst..Dst+k-1 of the
/// callee's window. A call's new window lies above its arguments; a tail
/// call's is the caller's own window, whose dead temporaries may hold the
/// arguments where the parameters go — then Dst is at or below them, and
/// reversing them in place leaves a forward move.
inline void moveCurriedArgs(Value *R, uint32_t Dst, uint32_t First,
                            uint32_t K) {
  const uint32_t Lo = First + 1 - K;
  if (Lo >= Dst + K || First < Dst) {
    for (uint32_t J = 0; J < K; ++J)
      R[Dst + J] = R[First - J];
    return;
  }
  std::reverse(R + Lo, R + First + 1);
  for (uint32_t J = 0; J < K; ++J)
    R[Dst + J] = R[Lo + J];
}

class RegVMBase {
public:
  RegVMBase(const RegProgram &RP, MonitorHooks *Hooks, RunOptions Opts)
      : Src(*RP.Src), Hooks(Hooks), Opts(Opts) {}
  virtual ~RegVMBase() = default;

  /// Runs the program to an outcome: resumes from Opts.ResumeFrom when
  /// set, arms the governor, pushes the sentinel frame on a fresh start,
  /// and turns monitor, durability and arena aborts into results. Each
  /// tier supplies only its dispatch loop.
  RunResult run() {
    if (Opts.ResumeFrom) {
      std::string Err;
      if (!restoreCheckpoint(*Opts.ResumeFrom, Err)) {
        RunResult Res;
        Res.setOutcome(Outcome::Error);
        Res.Error = "cannot resume from checkpoint: " + Err;
        return Res;
      }
      StepBase = Steps = Opts.ResumeFrom->header().SavedSteps;
    }
    Governor Gov(Opts.Limits, Opts.MaxSteps, StepBase,
                 Opts.CheckpointSink ? Opts.CheckpointEveryNSteps : 0);
    A.setByteLimit(Gov.arenaByteCap());
    if (!Opts.ResumeFrom) {
      // Sentinel frame: a top-level tail call returns to the entry block's
      // Halt, whose operand is register 0 of the entry window.
      Frames.push_back(RFrame{
          0, static_cast<uint32_t>(Src.Blocks[0].Code.size() - 1), 0, 0,
          nullptr});
      ensureRegs(Src.Blocks[0].NumRegs);
    }
    try {
      return dispatch(Gov);
    } catch (const MonitorAbort &E) {
      fail(E.what());
    } catch (const DurabilityAbort &E) {
      fail(E.what());
    } catch (const ArenaLimitExceeded &) {
      return stopResult(Outcome::MemoryExceeded);
    }
    return errorResult();
  }

protected:
  const CompiledProgram &Src;
  MonitorHooks *Hooks;
  RunOptions Opts;
  Arena A;

  std::vector<Value> Regs;
  std::vector<RFrame> Frames;
  uint32_t Base = 0;
  uint32_t Block = 0;
  uint32_t PC = 0;
  EnvNode *Env = nullptr;
  uint64_t Steps = 0;
  bool Failed = false;
  std::string Error;

  uint64_t StepBase = 0;
  uint64_t Fp = 0;
  bool FpComputed = false;
  std::deque<std::string> RevivedStrings;

  /// The tier's dispatch loop, entered once per run.
  virtual RunResult dispatch(Governor &Gov) = 0;

  /// A hash of the program's stack-notation listing — the fingerprint
  /// every MSCK VM checkpoint has carried — so checkpoints cross tiers and
  /// stay readable across releases.
  uint64_t fingerprint() {
    if (!FpComputed) {
      Fp = fnv1aHash(Src.disassemble());
      FpComputed = true;
    }
    return Fp;
  }

  Value &R(uint32_t Idx) { return Regs[Base + Idx]; }

  void ensureRegs(size_t N) {
    if (Regs.size() < N)
      Regs.resize(std::max(N, Regs.size() * 2));
  }

  void fail(std::string Msg) {
    Failed = true;
    Error = std::move(Msg);
  }

  /// The environment value at link depth \p D, letrec
  /// before-initialization check included.
  Value envAt(uint32_t D) {
    EnvNode *N = Env;
    for (; D; --D)
      N = N->Parent;
    if (N->Val.isUnit()) {
      fail("letrec variable '" + std::string(N->Name.str()) +
           "' referenced before initialization");
      return Value();
    }
    return N->Val;
  }

  /// Resolves a varref operand: a leaf parameter register, or an
  /// environment depth. Parameters can never be uninitialized (the unit
  /// marker is not a source value), so the register path needs no check.
  Value refVal(uint16_t Ref) {
    if (isParamRef(Ref))
      return Regs[Base + paramRegOf(Ref)];
    return envAt(Ref);
  }

  /// Applies \p Op2 into window register \p Dst (or fails).
  void prim2Set(Prim2Op Op2, Value Lhs, Value Rhs, uint16_t Dst) {
    PrimResult PR = applyPrim2(Op2, Lhs, Rhs, A);
    if (!PR.Ok)
      return fail(std::move(PR.Error));
    R(Dst) = PR.Val;
  }

  /// Returns \p V to the caller frame's destination register.
  void doRet(Value V) {
    RFrame F = Frames.back();
    Frames.pop_back();
    Block = F.Block;
    PC = F.PC;
    Base = F.Base;
    Env = F.Env;
    Regs[F.Dst] = V;
  }

  /// Applies \p Fn to \p Arg; a closure call's eventual result lands in
  /// window register \p Dst. Leaf callees get a register window and no
  /// environment node; non-leaf callees extend the environment chain by
  /// one node, as the bytecode's semantics prescribes (or reuse the
  /// caller's node on a self-tail-call under ReuseTailFrames).
  void apply(Value Fn, Value Arg, bool Tail, uint16_t Dst) {
    switch (Fn.kind()) {
    case ValueKind::CompiledClosure: {
      VMClosure *C = Fn.asCompiledClosure();
      const CodeBlock &CB = Src.Blocks[C->Block];
      if (CB.Currier) {
        // Curried-parameter collapse: the callee's whole body is
        // `MkClosure CurrierInner; Ret`. Perform both instructions here —
        // same two arena allocations, same step charge — without pushing
        // and popping a register window.
        Steps += CB.CurrierCost;
        EnvNode *E = extendEnv(A, C->Env, CB.Param, Arg);
        VMClosure *NC = A.create<VMClosure>(CB.CurrierInner, E);
        Value V = Value::mkCompiledClosure(NC);
        if (Tail)
          doRet(V);
        else
          R(Dst) = V;
        return;
      }
      if (CB.Leaf) {
        if (Tail) {
          // Window reset on frame reuse: the current frame is dead, its
          // window becomes the callee's. No allocation of any kind.
          ensureRegs(Base + CB.NumRegs);
          Regs[Base] = Arg;
          Block = C->Block;
          PC = 0;
          Env = C->Env;
          return;
        }
        uint32_t NewBase = Base + Src.Blocks[Block].NumRegs;
        ensureRegs(NewBase + CB.NumRegs);
        Frames.push_back(RFrame{Block, PC, Base, Base + Dst, Env});
        Regs[NewBase] = Arg;
        Base = NewBase;
        Block = C->Block;
        PC = 0;
        Env = C->Env;
        return;
      }
      if (Tail && Opts.ReuseTailFrames && C->Block == Block && Env &&
          Env->Parent == C->Env && Src.Blocks[Block].ReusableFrame) {
        Env->Val = Arg;
        PC = 0;
        return;
      }
      if (Tail) {
        ensureRegs(Base + CB.NumRegs);
      } else {
        uint32_t NewBase = Base + Src.Blocks[Block].NumRegs;
        ensureRegs(NewBase + CB.NumRegs);
        Frames.push_back(RFrame{Block, PC, Base, Base + Dst, Env});
        Base = NewBase;
      }
      Block = C->Block;
      PC = 0;
      Env = extendEnv(A, C->Env, CB.Param, Arg);
      return;
    }
    case ValueKind::Prim1: {
      PrimResult PR = applyPrim1(Fn.asPrim1(), Arg, A);
      if (!PR.Ok)
        return fail(std::move(PR.Error));
      if (Tail)
        doRet(PR.Val);
      else
        R(Dst) = PR.Val;
      return;
    }
    case ValueKind::Prim2: {
      PrimPartial *PP = A.create<PrimPartial>(Fn.asPrim2(), Arg);
      Value V = Value::mkPrim2Partial(PP);
      if (Tail)
        doRet(V);
      else
        R(Dst) = V;
      return;
    }
    case ValueKind::Prim2Partial: {
      PrimPartial *PP = Fn.asPrim2Partial();
      PrimResult PR = applyPrim2(PP->Op, PP->First, Arg, A);
      if (!PR.Ok)
        return fail(std::move(PR.Error));
      if (Tail)
        doRet(PR.Val);
      else
        R(Dst) = PR.Val;
      return;
    }
    default:
      fail("cannot apply a non-function value (" + toDisplayString(Fn) +
           ")");
    }
  }

  /// The out-of-line arms of a fused curried call (CurryCall or
  /// CurryTailCall) whose function value \p Fn is already read; the
  /// leaf-copy arms are inline in RegVMDispatch.inc. When \p Fn is no
  /// closure, or the spine would reach \p NextPause, the instruction runs
  /// as the VarCall in its slot and the calls in place after it run one by
  /// one, as in the unfused program. Otherwise the innermost block, which
  /// has probes or closures, is entered with the paper's environment
  /// chain: one node per parameter, without the intermediate closures.
  void curryCall(const RInstr &I, Value Fn, bool Tail, uint64_t NextPause) {
    if (!Fn.is(ValueKind::CompiledClosure) ||
        Steps + curryRestCost(I.B) >= NextPause)
      return apply(Fn, Regs[Base + I.S1], /*Tail=*/false, I.S1);
    Steps += curryRestCost(I.B);
    const uint32_t K = curryArity(I.B);
    EnvNode *E = Fn.asCompiledClosure()->Env;
    for (uint32_t J = 0; J < K; ++J)
      E = extendEnv(A, E, Src.Blocks[I.A + 1 + J - K].Param,
                    Regs[Base + I.S1 - J]);
    if (!Tail) {
      Frames.push_back(RFrame{Block, PC + K - 1, Base, Base + I.D, Env});
      Base += Src.Blocks[Block].NumRegs;
    }
    ensureRegs(Base + Src.Blocks[I.A].NumRegs);
    Block = I.A;
    PC = 0;
    Env = E;
  }

  /// Probe entry points for the dispatch handlers. The environment is
  /// passed explicitly because the dispatch loops keep it in a local (see
  /// MONSEM_REGVM_LOCAL_STATE); `Steps` is synced every dispatch, so the
  /// hook sees the current step index.
  void probePre(uint32_t ProbeIdx, EnvNode *E) {
    const ProbeSite &S = Src.Probes[ProbeIdx];
    Hooks->pre(*S.Ann, *S.Inner, EnvView(E), Steps, A.bytesAllocated());
  }
  void probePost(uint32_t ProbeIdx, EnvNode *E, Value V) {
    const ProbeSite &S = Src.Probes[ProbeIdx];
    Hooks->post(*S.Ann, *S.Inner, EnvView(E), V, Steps, A.bytesAllocated());
  }

  /// The environment a leaf frame has in the canonical stack form: fresh
  /// nodes binding the parameters (held in the window's registers
  /// 0..TempBase-1, outermost first) over the closure's captured chain.
  /// For a k-parameter copy that is the chain the unfused curried call
  /// builds: its outer nodes are captured only by intermediate closures
  /// that die at once, and leaf blocks create no closures, so no node is
  /// shared — materializing fresh ones yields an isomorphic value graph.
  EnvNode *materializeLeafEnv(const CodeBlock &B, uint32_t FrameBase,
                              EnvNode *Outer) {
    const uint32_t K = B.TempBase;
    for (uint32_t J = 0; J < K; ++J) {
      const CodeBlock &Binder =
          B.CopyOf == kNoBlock ? B : Src.Blocks[B.CopyOf + 1 + J - K];
      Outer = extendEnv(A, Outer, Binder.Param, Regs[FrameBase + J]);
    }
    return Outer;
  }

  /// Serializes the machine at an instruction boundary in the canonical
  /// stack-form payload layout: register windows spill to a flat operand
  /// stack (each suspended frame contributes Height[retPC]-1 values, the
  /// executing window Height[pc]), leaf frames materialize their
  /// environment nodes, and frames in a k-parameter copy are written as
  /// the block it copies, at the same pc. A checkpoint taken here restores
  /// on vm, vm-reg and vm-aot, and the layout is the one the deleted stack
  /// interpreter wrote, so its checkpoints still restore here.
  Checkpoint makeCheckpoint(const RInstr &I) {
    CheckpointHeader H;
    H.Backend = CheckpointBackend::VM;
    H.Strategy = static_cast<uint8_t>(Strategy::Strict);
    H.Lexical = false;
    H.Monitored = Hooks != nullptr;
    H.ProgramFingerprint = fingerprint();
    H.SavedSteps = Steps - I.Cost;
    Serializer S = Checkpoint::begin(H);
    if (Hooks)
      Hooks->saveMonitorSection(S);
    else
      S.writeU32(0);
    ValueGraphWriter W(nullptr, nullptr);
    Serializer &RS = W.roots();
    uint32_t CurPC = PC - 1; // The instruction that did not execute.
    const CodeBlock &CB = Src.Blocks[Block];
    RS.writeU32(Src.sourceBlock(Block));
    RS.writeU32(CurPC);
    W.writeEnvNodeRef(CB.Leaf ? materializeLeafEnv(CB, Base, Env) : Env);
    uint32_t NS = CB.Height[CurPC];
    for (const RFrame &F : Frames)
      NS += Src.Blocks[F.Block].Height[F.PC] - 1;
    RS.writeU32(NS);
    for (const RFrame &F : Frames) {
      const CodeBlock &FB = Src.Blocks[F.Block];
      uint32_t Len = FB.Height[F.PC] - 1;
      for (uint32_t J = 0; J < Len; ++J)
        W.writeValue(Regs[F.Base + FB.TempBase + J]);
    }
    for (uint32_t J = 0, Len = CB.Height[CurPC]; J < Len; ++J)
      W.writeValue(Regs[Base + CB.TempBase + J]);
    RS.writeU32(static_cast<uint32_t>(Frames.size()));
    for (const RFrame &F : Frames) {
      const CodeBlock &FB = Src.Blocks[F.Block];
      RS.writeU32(Src.sourceBlock(F.Block));
      RS.writeU32(F.PC);
      W.writeEnvNodeRef(FB.Leaf ? materializeLeafEnv(FB, F.Base, F.Env)
                                : F.Env);
    }
    if (!W.ok())
      return Checkpoint();
    W.finish(S);
    return Checkpoint::seal(std::move(S));
  }

  void emitCheckpoint(const RInstr &I) {
    if (!Opts.CheckpointSink)
      return;
    if (Opts.Durability && Opts.Durability->degraded("checkpoint"))
      return;
    Checkpoint CK = makeCheckpoint(I);
    if (CK.valid())
      Opts.CheckpointSink(CK);
  }

  /// A (block, pc) a checkpoint may name: copies are never named.
  bool validCodeRef(uint32_t B, uint32_t Pc) const {
    return B < Src.Blocks.size() && Src.Blocks[B].CopyOf == kNoBlock &&
           Pc < Src.Blocks[B].Code.size();
  }

  /// Rebuilds register windows from the stack-form payload: window bases
  /// are reassigned cumulatively, the flat operand stack is split by the
  /// static height at each frame's resume pc, and leaf frames unpack their
  /// parameter from the serialized environment node.
  bool restoreCheckpoint(const Checkpoint &CK, std::string &Err) {
    const CheckpointHeader &H = CK.header();
    if (H.Backend != CheckpointBackend::VM) {
      Err = "checkpoint was taken by the CEK machine, not the VM";
      return false;
    }
    if (H.Monitored != (Hooks != nullptr)) {
      Err = H.Monitored
                ? "checkpoint was taken by a monitored run; attach the "
                  "same cascade to resume"
                : "checkpoint was taken by an unmonitored run";
      return false;
    }
    if (H.ProgramFingerprint != fingerprint()) {
      Err = "checkpoint was taken for a different program (fingerprint "
            "mismatch)";
      return false;
    }
    Deserializer D = CK.payload();
    if (Hooks)
      Hooks->loadMonitorSection(D);
    else if (D.readU32() != 0)
      D.fail("checkpoint has monitor states but this run is unmonitored");
    if (!D.ok()) {
      Err = D.error();
      return false;
    }
    ValueGraphReader Rd(D, A, nullptr, nullptr, 0);
    if (!Rd.readObjects()) {
      Err = D.error();
      return false;
    }
    Block = D.readU32();
    PC = D.readU32();
    if (D.ok() && !validCodeRef(Block, PC)) {
      Err = "corrupt checkpoint: program counter out of range";
      return false;
    }
    EnvNode *TopEnv = Rd.readEnvNodeRef();
    uint32_t NS = D.readU32();
    if (!D.ok() || NS > (1u << 28)) {
      Err = D.ok() ? "corrupt checkpoint: bad stack length" : D.error();
      return false;
    }
    std::vector<Value> Flat;
    Flat.reserve(NS);
    for (uint32_t I = 0; I < NS && D.ok(); ++I)
      Flat.push_back(Rd.readValue());
    // Zero frames is legitimate: the final return pops the sentinel frame,
    // so a checkpoint at the entry Halt boundary has none and the resumed
    // run halts immediately.
    uint32_t NF = D.readU32();
    if (!D.ok() || NF > (1u << 28)) {
      Err = D.ok() ? "corrupt checkpoint: bad call-frame count" : D.error();
      return false;
    }
    Frames.reserve(NF);
    uint64_t B = 0;
    size_t StackIdx = 0;
    for (uint32_t I = 0; I < NF && D.ok(); ++I) {
      uint32_t FBlock = D.readU32();
      uint32_t FPC = D.readU32();
      EnvNode *FEnv = Rd.readEnvNodeRef();
      if (!D.ok())
        break;
      if (!validCodeRef(FBlock, FPC)) {
        Err = "corrupt checkpoint: call frame return address out of range";
        return false;
      }
      const CodeBlock &FB = Src.Blocks[FBlock];
      uint32_t FH = FB.Height[FPC];
      if (FH == kDeadHeight || FH < 1) {
        Err = "corrupt checkpoint: call frame resumes at an invalid "
              "stack height";
        return false;
      }
      uint32_t Len = FH - 1;
      if (StackIdx + Len > Flat.size() || B + FB.NumRegs > (1u << 28)) {
        Err = "corrupt checkpoint: operand stack does not match the "
              "frame layout";
        return false;
      }
      ensureRegs(B + FB.NumRegs);
      for (uint32_t J = 0; J < Len; ++J)
        Regs[B + FB.TempBase + J] = Flat[StackIdx++];
      if (FB.Leaf) {
        if (!FEnv) {
          Err = "corrupt checkpoint: missing environment for a leaf frame";
          return false;
        }
        Regs[B] = FEnv->Val;
        FEnv = FEnv->Parent;
      }
      Frames.push_back(RFrame{FBlock, FPC,
                              static_cast<uint32_t>(B),
                              static_cast<uint32_t>(B + FB.TempBase + Len),
                              FEnv});
      B += FB.NumRegs;
    }
    if (!D.ok()) {
      Err = D.error();
      return false;
    }
    const CodeBlock &CB = Src.Blocks[Block];
    uint32_t TopLen = CB.Height[PC];
    if (TopLen == kDeadHeight || StackIdx + TopLen != Flat.size() ||
        B + CB.NumRegs > (1u << 28)) {
      Err = "corrupt checkpoint: operand stack does not match the "
            "frame layout";
      return false;
    }
    Base = static_cast<uint32_t>(B);
    ensureRegs(Base + CB.NumRegs);
    for (uint32_t J = 0; J < TopLen; ++J)
      Regs[Base + CB.TempBase + J] = Flat[StackIdx++];
    Env = TopEnv;
    if (CB.Leaf) {
      if (!Env) {
        Err = "corrupt checkpoint: missing environment for a leaf frame";
        return false;
      }
      Regs[Base] = Env->Val;
      Env = Env->Parent;
    }
    RevivedStrings = Rd.takeStrings();
    if (!D.ok()) {
      Err = D.error();
      return false;
    }
    return true;
  }

  RunResult haltResult(Value V) {
    RunResult Res;
    Res.setOutcome(Outcome::Ok);
    Res.Steps = Steps;
    Res.ArenaBytes = A.bytesAllocated();
    Res.ValueText = Opts.Algebra->render(V);
    if (V.is(ValueKind::Int))
      Res.IntValue = V.asInt();
    if (V.is(ValueKind::Bool))
      Res.BoolValue = V.asBool();
    return Res;
  }

  RunResult stopResult(Outcome O) {
    RunResult Res;
    Res.setOutcome(O);
    Res.Steps = Steps;
    Res.ArenaBytes = A.bytesAllocated();
    return Res;
  }

  RunResult errorResult() {
    RunResult Res;
    Res.setOutcome(Outcome::Error);
    Res.Error = std::move(Error);
    Res.Steps = Steps;
    Res.ArenaBytes = A.bytesAllocated();
    return Res;
  }
};

/// Inline integer arms of the binary primitives, shared by the dispatch
/// loops' prim2Set and the fused compare-and-branch handler. applyPrim2
/// returns a PrimResult whose error slot is a std::string — an out-of-line
/// call plus a 48-byte struct round-trip that dwarfs the two-integer op
/// itself, and arithmetic on two known integers cannot fail (Div/Mod keep
/// their zero checks on the shared path). Result construction goes through
/// the same mkInt(V, A) as applyPrim2, so value representation and arena
/// accounting are bit-identical to the slow path.
inline bool intPrim2Fast(Prim2Op Op, int64_t X, int64_t Y, Arena &A,
                         Value &Out) {
  switch (Op) {
  // A constant op folds intArith's own switch away.
  case Prim2Op::Add:
    Out = Value::mkInt(intArith(Prim2Op::Add, X, Y), A);
    return true;
  case Prim2Op::Sub:
    Out = Value::mkInt(intArith(Prim2Op::Sub, X, Y), A);
    return true;
  case Prim2Op::Mul:
    Out = Value::mkInt(intArith(Prim2Op::Mul, X, Y), A);
    return true;
  case Prim2Op::Min:
    Out = Value::mkInt(X < Y ? X : Y, A);
    return true;
  case Prim2Op::Max:
    Out = Value::mkInt(X > Y ? X : Y, A);
    return true;
  case Prim2Op::Eq:
    Out = Value::mkBool(X == Y);
    return true;
  case Prim2Op::Ne:
    Out = Value::mkBool(X != Y);
    return true;
  case Prim2Op::Lt:
    Out = Value::mkBool(X < Y);
    return true;
  case Prim2Op::Le:
    Out = Value::mkBool(X <= Y);
    return true;
  case Prim2Op::Gt:
    Out = Value::mkBool(X > Y);
    return true;
  case Prim2Op::Ge:
    Out = Value::mkBool(X >= Y);
    return true;
  default:
    return false; // Div/Mod (zero check) and Cons take the shared path.
  }
}

} // namespace regvm_impl
} // namespace monsem

/// Hot interpreter state lives in locals inside the dispatch loops: the
/// member round-trips per dispatch (PC, Base, Env through `this`) cost
/// more than interpreting many of the opcodes, and the compiler cannot
/// promote the members itself past the opaque primitive calls. The locals
/// shadow the members of the same name, so the shared handler file reads
/// and writes them directly; the same goes for the helper lambdas, which
/// shadow their member namesakes but operate on the locals. The members
/// are re-synced at the cold boundaries — governor pauses (which may
/// checkpoint), the out-of-line apply() — and `Steps` is synced every
/// dispatch so result construction and exception unwinds always see the
/// current count.
#define MONSEM_REGVM_LOCAL_STATE                                               \
  const CodeBlock *const Blocks = Src.Blocks.data();                           \
  uint32_t Block = this->Block;                                                \
  uint32_t PC = this->PC;                                                      \
  uint32_t Base = this->Base;                                                  \
  EnvNode *Env = this->Env;                                                    \
  uint64_t Steps = this->Steps;                                                \
  Value *Rg = Regs.data();                                                     \
  auto R = [&](uint32_t Idx) -> Value & { return Rg[Base + Idx]; };            \
  auto refVal = [&](uint16_t Ref) -> Value {                                   \
    if (isParamRef(Ref))                                                       \
      return Rg[Base + paramRegOf(Ref)];                                       \
    EnvNode *N = Env;                                                          \
    for (uint32_t D = Ref; D; --D)                                             \
      N = N->Parent;                                                           \
    if (N->Val.isUnit()) {                                                     \
      fail("letrec variable '" + std::string(N->Name.str()) +                  \
           "' referenced before initialization");                              \
      return Value();                                                          \
    }                                                                          \
    return N->Val;                                                             \
  };                                                                           \
  auto prim2Set = [&](Prim2Op Op2, Value Lhs, Value Rhs, uint16_t Dst) {       \
    Value Out;                                                                 \
    if (Lhs.is(ValueKind::Int) && Rhs.is(ValueKind::Int) &&                    \
        intPrim2Fast(Op2, Lhs.asInt(), Rhs.asInt(), A, Out)) {                 \
      R(Dst) = Out;                                                            \
      return;                                                                  \
    }                                                                          \
    PrimResult PR = applyPrim2(Op2, Lhs, Rhs, A);                              \
    if (!PR.Ok)                                                                \
      return fail(std::move(PR.Error));                                        \
    R(Dst) = PR.Val;                                                           \
  };                                                                           \
  auto doRet = [&](Value V) {                                                  \
    RFrame F = Frames.back();                                                  \
    Frames.pop_back();                                                         \
    Block = F.Block;                                                           \
    PC = F.PC;                                                                 \
    Base = F.Base;                                                             \
    Env = F.Env;                                                               \
    Rg[F.Dst] = V;                                                             \
  };                                                                           \
  auto apply = [&](Value Fn, Value Arg, bool Tail, uint16_t Dst) {             \
    this->Block = Block;                                                       \
    this->PC = PC;                                                             \
    this->Base = Base;                                                         \
    this->Env = Env;                                                           \
    this->apply(Fn, Arg, Tail, Dst);                                           \
    Block = this->Block;                                                       \
    PC = this->PC;                                                             \
    Base = this->Base;                                                         \
    Env = this->Env;                                                           \
    Steps = this->Steps; /* currier collapse charges steps in apply() */       \
    Rg = Regs.data();                                                          \
  };                                                                           \
  auto curryCall = [&](const RInstr &In, Value Fn, bool Tail,                  \
                       uint64_t NextPause) {                                   \
    this->Block = Block;                                                       \
    this->PC = PC;                                                             \
    this->Base = Base;                                                         \
    this->Env = Env;                                                           \
    this->curryCall(In, Fn, Tail, NextPause);                                  \
    Block = this->Block;                                                       \
    PC = this->PC;                                                             \
    Base = this->Base;                                                         \
    Env = this->Env;                                                           \
    Steps = this->Steps;                                                       \
    Rg = Regs.data();                                                          \
  };

#endif // MONSEM_COMPILE_REGVMIMPL_H
