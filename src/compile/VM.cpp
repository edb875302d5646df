//===- compile/VM.cpp ------------------------------------------------------===//

#include "compile/VM.h"

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "semantics/Primitives.h"
#include "semantics/ValueGraph.h"
#include "support/Checkpoint.h"

#include <deque>

using namespace monsem;

namespace {

struct CallFrame {
  uint32_t Block;
  uint32_t PC;
  EnvNode *Env;
};

class VM {
public:
  VM(const CompiledProgram &P, MonitorHooks *Hooks, RunOptions Opts)
      : P(P), Hooks(Hooks), Opts(Opts) {}

  RunResult run();

private:
  const CompiledProgram &P;
  MonitorHooks *Hooks;
  RunOptions Opts;
  Arena A;

  std::vector<Value> Stack;
  std::vector<CallFrame> Frames;
  uint32_t Block = 0;
  uint32_t PC = 0;
  EnvNode *Env = nullptr;
  uint64_t Steps = 0;
  bool Failed = false;
  std::string Error;

  // Checkpoint/resume support.
  uint64_t StepBase = 0; ///< Steps completed before this process (resume).
  uint64_t Fp = 0;
  bool FpComputed = false;
  /// Storage for strings revived from a checkpoint; Str values on the
  /// stack/heap point into it, so it lives as long as the VM.
  std::deque<std::string> RevivedStrings;

  RunResult runThreaded(Governor &Gov);

  /// Structural fingerprint of the compiled program: a hash of the
  /// disassembly, which is pointer-free (block indices, opcode names,
  /// rendered constants, annotation text) and thus stable across
  /// processes. Resume refuses a mismatched program.
  uint64_t fingerprint() {
    if (!FpComputed) {
      Fp = fnv1aHash(P.disassemble());
      FpComputed = true;
    }
    return Fp;
  }

  /// Serializes the full VM state at an instruction boundary. \p I is the
  /// fetched-but-unexecuted instruction: PC already advanced past it and
  /// Steps already includes its Cost, so the checkpoint rolls both back
  /// and a resumed run re-executes it. Fused superinstructions are never
  /// in flight at a boundary, so step counts stay identical to an
  /// uninterrupted (or unfused) run.
  Checkpoint makeCheckpoint(const Instr &I) {
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
    // The VM heap never references syntax (closures hold block indices),
    // so the writer needs no ExprTable or shape table.
    ValueGraphWriter W(nullptr, nullptr);
    Serializer &RS = W.roots();
    RS.writeU32(Block);
    RS.writeU32(PC - 1); // The instruction that did not execute.
    W.writeEnvNodeRef(Env);
    RS.writeU32(static_cast<uint32_t>(Stack.size()));
    for (Value V : Stack)
      W.writeValue(V);
    RS.writeU32(static_cast<uint32_t>(Frames.size()));
    for (const CallFrame &F : Frames) {
      RS.writeU32(F.Block);
      RS.writeU32(F.PC);
      W.writeEnvNodeRef(F.Env);
    }
    if (!W.ok())
      return Checkpoint();
    W.finish(S);
    return Checkpoint::seal(std::move(S));
  }

  void emitCheckpoint(const Instr &I) {
    if (!Opts.CheckpointSink)
      return;
    if (Opts.Durability && Opts.Durability->degraded("checkpoint"))
      return;
    Checkpoint CK = makeCheckpoint(I);
    if (CK.valid())
      Opts.CheckpointSink(CK);
  }

  bool validCodeRef(uint32_t B, uint32_t Pc) const {
    return B < P.Blocks.size() && Pc < P.Blocks[B].Code.size();
  }

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
    Env = Rd.readEnvNodeRef();
    uint32_t NS = D.readU32();
    if (!D.ok() || NS > (1u << 28)) {
      Err = D.ok() ? "corrupt checkpoint: bad stack length" : D.error();
      return false;
    }
    Stack.reserve(NS);
    for (uint32_t I = 0; I < NS && D.ok(); ++I)
      Stack.push_back(Rd.readValue());
    // Zero frames is legitimate: the final return pops the sentinel frame,
    // so a checkpoint at the entry Halt boundary has none and the resumed
    // run halts immediately.
    uint32_t NF = D.readU32();
    if (!D.ok() || NF > (1u << 28)) {
      Err = D.ok() ? "corrupt checkpoint: bad call-frame count" : D.error();
      return false;
    }
    Frames.reserve(NF);
    for (uint32_t I = 0; I < NF && D.ok(); ++I) {
      CallFrame F;
      F.Block = D.readU32();
      F.PC = D.readU32();
      F.Env = Rd.readEnvNodeRef();
      if (D.ok() && !validCodeRef(F.Block, F.PC)) {
        Err = "corrupt checkpoint: call frame return address out of range";
        return false;
      }
      Frames.push_back(F);
    }
    RevivedStrings = Rd.takeStrings();
    if (!D.ok()) {
      Err = D.error();
      return false;
    }
    return true;
  }

  void fail(std::string Msg) {
    Failed = true;
    Error = std::move(Msg);
  }

  Value pop() {
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  }

  /// The environment value at link depth \p D. Fails (returning Unit) on
  /// a letrec binding read before its PatchRec — the Var instruction's
  /// error, shared by every fused form.
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

  /// Applies \p Op2 and pushes the result (or fails).
  void prim2Push(Prim2Op Op2, Value Lhs, Value Rhs) {
    PrimResult PR = applyPrim2(Op2, Lhs, Rhs, A);
    if (!PR.Ok)
      return fail(std::move(PR.Error));
    Stack.push_back(PR.Val);
  }

  /// Applies \p Fn to \p Arg. Compiled closures enter a new (or, for tail
  /// calls, the current) frame; primitives apply immediately.
  void apply(Value Fn, Value Arg, bool Tail) {
    switch (Fn.kind()) {
    case ValueKind::CompiledClosure: {
      VMClosure *C = Fn.asCompiledClosure();
      // Self-tail-call frame reuse: when a block tail-calls a closure over
      // its *own* block and the current env node sits directly on the
      // closure's env (the plain `f x` recursion shape), the callee's
      // frame is behaviorally identical to ours — overwrite the binding in
      // place instead of allocating. ReusableFrame guarantees the block
      // creates no closures (nothing can capture this node mid-iteration)
      // and contains no probes; the Parent check excludes live letrec
      // extensions (PushRecEnv without PopEnv) and curried shapes.
      if (Tail && Opts.ReuseTailFrames && C->Block == Block && Env &&
          Env->Parent == C->Env && P.Blocks[Block].ReusableFrame) {
        Env->Val = Arg;
        PC = 0;
        return;
      }
      if (!Tail)
        Frames.push_back(CallFrame{Block, PC, Env});
      Block = C->Block;
      PC = 0;
      Env = extendEnv(A, C->Env, P.Blocks[C->Block].Param, Arg);
      return;
    }
    case ValueKind::Prim1: {
      PrimResult R = applyPrim1(Fn.asPrim1(), Arg, A);
      if (!R.Ok)
        return fail(std::move(R.Error));
      Stack.push_back(R.Val);
      if (Tail)
        doRet();
      return;
    }
    case ValueKind::Prim2: {
      PrimPartial *PP = A.create<PrimPartial>(Fn.asPrim2(), Arg);
      Stack.push_back(Value::mkPrim2Partial(PP));
      if (Tail)
        doRet();
      return;
    }
    case ValueKind::Prim2Partial: {
      PrimPartial *PP = Fn.asPrim2Partial();
      PrimResult R = applyPrim2(PP->Op, PP->First, Arg, A);
      if (!R.Ok)
        return fail(std::move(R.Error));
      Stack.push_back(R.Val);
      if (Tail)
        doRet();
      return;
    }
    default:
      fail("cannot apply a non-function value (" + toDisplayString(Fn) +
           ")");
    }
  }

  /// Returns to the caller frame (the value stays on the stack). When no
  /// frame remains, execution falls back to the entry block's Halt.
  void doRet() {
    CallFrame F = Frames.back();
    Frames.pop_back();
    Block = F.Block;
    PC = F.PC;
    Env = F.Env;
  }

  RunResult haltResult() {
    RunResult R;
    R.setOutcome(Outcome::Ok);
    R.Steps = Steps;
    R.ArenaBytes = A.bytesAllocated();
    Value V = Stack.back();
    R.ValueText = Opts.Algebra->render(V);
    if (V.is(ValueKind::Int))
      R.IntValue = V.asInt();
    if (V.is(ValueKind::Bool))
      R.BoolValue = V.asBool();
    return R;
  }

  RunResult stopResult(Outcome O) {
    RunResult R;
    R.setOutcome(O);
    R.Steps = Steps;
    R.ArenaBytes = A.bytesAllocated();
    return R;
  }

  RunResult errorResult() {
    RunResult R;
    R.setOutcome(Outcome::Error);
    R.Error = std::move(Error);
    R.Steps = Steps;
    R.ArenaBytes = A.bytesAllocated();
    return R;
  }
};

/// Token-threaded dispatch (computed goto, a GNU extension GCC and Clang
/// support): each handler jumps straight to the next opcode's handler
/// through a label table, so the branch predictor sees one indirect branch
/// per handler (correlated with opcode pairs) instead of a switch's single
/// shared branch. `Steps` advances by the instruction's Cost (its
/// source-step count), so fused programs report identical step counts to
/// unfused ones at every instruction boundary.
RunResult VM::runThreaded(Governor &Gov) {
  static const void *Tbl[] = {
      &&L_Const,      &&L_Var,           &&L_MkClosure,
      &&L_Jump,       &&L_JumpIfFalse,   &&L_Call,
      &&L_TailCall,   &&L_Ret,           &&L_Prim1,
      &&L_Prim2,      &&L_PushRecEnv,    &&L_PatchRec,
      &&L_PopEnv,     &&L_MonPre,        &&L_MonPost,
      &&L_Halt,       &&L_VarVar,        &&L_VarPrim2,
      &&L_ConstPrim2, &&L_VarConstPrim2, &&L_VarVarPrim2,
      &&L_Prim2JumpIfFalse, &&L_VarCall, &&L_VarTailCall,
  };
  static_assert(sizeof(Tbl) / sizeof(Tbl[0]) == kNumOps,
                "label table must cover every opcode in enum order");
  // Declared before the first goto target so no jump skips initialization.
  Instr I;
Dispatch:
  I = P.Blocks[Block].Code[PC++];
  Steps += I.Cost;
  if (Steps >= Gov.nextPause()) {
    Outcome O = Gov.pause(Steps, A.bytesAllocated(), Frames.size());
    if (O != Outcome::Ok) {
      if (Opts.CheckpointOnStop)
        emitCheckpoint(I);
      return stopResult(O);
    }
    if (Gov.takeCheckpointDue())
      emitCheckpoint(I);
  }
  goto *Tbl[static_cast<unsigned>(I.Code)];
#define VM_CASE(Name) L_##Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    if (Failed)                                                                \
      return errorResult();                                                    \
    goto Dispatch;                                                             \
  } while (0)
#include "compile/VMDispatch.inc"
#undef VM_CASE
#undef VM_NEXT
}

RunResult VM::run() {
  if (Opts.ResumeFrom) {
    std::string Err;
    if (!restoreCheckpoint(*Opts.ResumeFrom, Err)) {
      RunResult R;
      R.setOutcome(Outcome::Error);
      R.Error = "cannot resume from checkpoint: " + Err;
      return R;
    }
    // Continue the cumulative step counter; fuel and checkpoint
    // boundaries measure steps since the resume point (fresh budget).
    StepBase = Steps = Opts.ResumeFrom->header().SavedSteps;
  }
  Governor Gov(Opts.Limits, Opts.MaxSteps, StepBase,
               Opts.CheckpointSink ? Opts.CheckpointEveryNSteps : 0);
  A.setByteLimit(Gov.arenaByteCap());
  if (!Opts.ResumeFrom) {
    // Sentinel frame: a tail call at the top level of the entry block
    // returns straight to the entry's Halt instruction.
    Frames.push_back(CallFrame{
        0, static_cast<uint32_t>(P.Blocks[0].Code.size() - 1), nullptr});
  }
  try {
    return runThreaded(Gov);
  } catch (const MonitorAbort &E) {
    // A monitor under FaultPolicy::Abort faulted at a MonPre/MonPost probe.
    fail(E.what());
  } catch (const DurabilityAbort &E) {
    // A durable sink failed under OnDurabilityFailure::Abort.
    fail(E.what());
  } catch (const ArenaLimitExceeded &) {
    return stopResult(Outcome::MemoryExceeded);
  }
  return errorResult();
}

} // namespace

RunResult monsem::runCompiled(const CompiledProgram &Program,
                              MonitorHooks *Hooks, RunOptions Opts) {
  VM M(Program, Hooks, Opts);
  return M.run();
}

RunResult monsem::evaluateCompiled(const Cascade &C, const Expr *Program,
                                   RunOptions Opts) {
  DurabilityTracker Tracker(Opts.DurabilityPolicy, Opts.DurabilityRetryBudget);
  armDurabilityTracker(Opts, Tracker);
  armJournalCheckpointSink(Opts);
  DiagnosticSink Diags;
  if (!C.empty() && !C.validateFor(Program, Diags)) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  CompileOptions CO;
  CO.Instrument = !C.empty();
  std::unique_ptr<CompiledProgram> CP = compileProgram(Program, Diags, CO);
  if (!CP) {
    RunResult R;
    R.Error = Diags.str();
    return R;
  }
  // Register tier: lower after compilation; a program the lowering pass
  // cannot encode (pathological nesting depth) falls back to the stack VM
  // — same observable behavior either way.
  std::unique_ptr<RegProgram> RP;
  if (Opts.VMRegister || Opts.VMAot)
    RP = lowerToRegisters(*CP);
  // Native tier on top of the lowering: load (emit + compile + cache) the
  // leaf-block library; any reason it cannot be used — no C compiler,
  // nothing eligible — degrades to the register interpreter
  // with identical observable behavior.
  std::shared_ptr<const AotLibrary> AotLib;
  if (Opts.VMAot && RP)
    AotLib = aotLoad(*RP, Opts.AotCacheDir, nullptr);
  auto Run = [&](MonitorHooks *H) {
    if (AotLib)
      return runAotProgram(*RP, *AotLib, H, Opts);
    return RP ? runRegisterProgram(*RP, H, Opts) : runCompiled(*CP, H, Opts);
  };
  if (C.empty()) {
    RunResult R = Run(nullptr);
    R.DurabilityFaults = Opts.Durability->takeFaults();
    return R;
  }
  // Hook chain, outermost first: journal -> event tap -> cascade (same
  // order as the CEK driver in Eval.cpp, so streams match across tiers).
  RuntimeCascade RC(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
  std::unique_ptr<EventTapHooks> ET;
  std::unique_ptr<JournalingHooks> JH;
  MonitorHooks *Hooks = &RC;
  if (Opts.EventSink) {
    ET = std::make_unique<EventTapHooks>(*Hooks, Opts.EventSink);
    Hooks = ET.get();
  }
  if (Opts.RunJournal) {
    JH = std::make_unique<JournalingHooks>(*Hooks, *Opts.RunJournal,
                                           Opts.Durability);
    Hooks = JH.get();
  }
  RunResult R = Run(Hooks);
  R.FinalStates = RC.takeStates();
  R.MonitorFaults = RC.takeFaults();
  R.DurabilityFaults = Opts.Durability->takeFaults();
  return R;
}
