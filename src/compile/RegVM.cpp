//===- compile/RegVM.cpp - Register-window virtual machine ----------------===//
///
/// \file
/// Executes compiled register code: every compiled program runs here
/// (`--backend=vm` and `--backend=vm-reg`), or in the native trampoline of
/// AotRun.cpp, which shares this machine's state, handlers and run(). The
/// machine keeps one contiguous Value array partitioned into per-call
/// register windows; leaf calls write the argument to register 0 of a
/// fresh window instead of allocating an environment node. Step counts
/// follow each instruction's Cost, probe event streams match the CEK
/// machine's (probes run only in blocks that keep the full environment
/// chain), and a checkpoint spills the register windows to the canonical
/// MSCK form — a flat operand stack plus environment chain at (block, pc)
/// coordinates — so checkpoints are portable across vm, vm-reg and
/// vm-aot, and readable from any earlier writer of that form.
///
//===----------------------------------------------------------------------===//

#include "compile/RegVMImpl.h"

using namespace monsem;
using namespace monsem::regvm_impl;

namespace {

/// The pure register-tier interpreter. Its dispatch loop lives here; all
/// machine state, run() and the call/checkpoint protocol are
/// inherited from RegVMBase (shared with the AOT trampoline in
/// AotRun.cpp).
class RegVM final : public RegVMBase {
public:
  using RegVMBase::RegVMBase;

private:
  RunResult dispatch(Governor &Gov) override;
};

/// Token-threaded dispatch (computed goto, a GNU extension GCC and Clang
/// support). `Steps` advances by each instruction's Cost, so fused and
/// unfused programs report identical step counts at every instruction
/// boundary; a checkpoint rolls back the fetched-but-unexecuted
/// instruction.
RunResult RegVM::dispatch(Governor &Gov) {
  static const void *Tbl[] = {
      &&L_Const,      &&L_Var,           &&L_MkClosure,
      &&L_Jump,       &&L_JumpIfFalse,   &&L_Call,
      &&L_TailCall,   &&L_Ret,           &&L_Prim1,
      &&L_Prim2,      &&L_PushRecEnv,    &&L_PatchRec,
      &&L_PopEnv,     &&L_MonPre,        &&L_MonPost,
      &&L_Halt,       &&L_VarVar,        &&L_VarPrim2,
      &&L_ConstPrim2, &&L_VarConstPrim2, &&L_VarVarPrim2,
      &&L_Prim2JumpIfFalse, &&L_VarCall, &&L_VarTailCall,
      &&L_CurryCall,  &&L_CurryTailCall,
  };
  static_assert(sizeof(Tbl) / sizeof(Tbl[0]) == kNumROps,
                "label table must cover every register opcode in enum order");
  MONSEM_REGVM_LOCAL_STATE
  // Declared before the first goto target so no jump skips initialization.
  RInstr I;
  goto Dispatch;
Pause: {
  this->Block = Block;
  this->PC = PC;
  this->Base = Base;
  this->Env = Env;
  Outcome O = Gov.pause(Steps, A.bytesAllocated(), Frames.size());
  if (O != Outcome::Ok) {
    if (Opts.CheckpointOnStop)
      emitCheckpoint(I);
    return stopResult(O);
  }
  if (Gov.takeCheckpointDue())
    emitCheckpoint(I);
  goto *Tbl[static_cast<unsigned>(I.Code)];
}
Dispatch:
  I = Blocks[Block].Code[PC++];
  Steps += I.Cost;
  this->Steps = Steps;
  if (Steps >= Gov.nextPause())
    goto Pause;
  goto *Tbl[static_cast<unsigned>(I.Code)];
// VM_NEXT replicates the fetch into every handler instead of jumping back
// to a single dispatch point: each opcode gets its own indirect branch, so the BTB can correlate successor opcodes per
// handler rather than funneling every prediction through one slot.
#define VM_CASE(Name) L_##Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    if (Failed)                                                                \
      return errorResult();                                                    \
    I = Blocks[Block].Code[PC++];                                              \
    Steps += I.Cost;                                                           \
    this->Steps = Steps;                                                       \
    if (Steps >= Gov.nextPause())                                              \
      goto Pause;                                                              \
    goto *Tbl[static_cast<unsigned>(I.Code)];                                  \
  } while (0)
#include "compile/RegVMDispatch.inc"
#undef VM_CASE
#undef VM_NEXT
}

} // namespace

RunResult monsem::runRegisterProgram(const RegProgram &RP,
                                     MonitorHooks *Hooks, RunOptions Opts) {
  RegVM M(RP, Hooks, Opts);
  return M.run();
}
