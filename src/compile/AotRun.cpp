//===- compile/AotRun.cpp - Native-tier trampoline driver -----------------===//
///
/// \file
/// The `--backend=vm-aot` driver: a register interpreter (shared with
/// RegVM.cpp via RegVMBase) whose dispatch loop first offers each (block,
/// pc) to the compiled native function for that block. Native code runs
/// whole leaf blocks; the trampoline interprets everything else — non-leaf
/// blocks, probe windows, any pc the emitter did not mark enterable, and
/// every governor pause.
///
/// The governor invariant: a native block is only entered when the block's
/// conservative cost bound fits entirely below the governor's next pause
/// step, and emitted self-tail loops re-check the same bound per
/// iteration, yielding back when it no longer holds. Native code therefore
/// never crosses a pause boundary; every pause (fuel, deadline, periodic
/// checkpoint) fires in the interpreter at exactly the same step and
/// machine state as `vm-reg`, which is what keeps step counts, probe
/// streams, ResourceLimits outcomes, and checkpoint coordinates
/// byte-identical across the tiers.
///
/// Helper shims below re-enter RegVMBase for calls, returns, slow
/// primitive paths, and error construction, so the two tiers share one
/// implementation of everything observable.
///
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"

#include "compile/RegVMImpl.h"

#include <cstring>

using namespace monsem;
using namespace monsem::regvm_impl;

// The emitted C hard-codes these layouts (see kPrelude in AotEmit.cpp).
static_assert(sizeof(Value) == 8, "native tier requires one-word Values");
static_assert(offsetof(VMClosure, Block) == 0, "emitted CL_BLOCK offset");
static_assert(offsetof(VMClosure, Env) == 8, "emitted CL_ENV offset");
static_assert(offsetof(EnvNode, Val) == 8, "emitted ENV_VAL offset");
static_assert(offsetof(EnvNode, Parent) == 16, "emitted ENV_PARENT offset");
static_assert(offsetof(Cell, Head) == 0, "emitted CELL_HD offset");
static_assert(offsetof(Cell, Tail) == 8, "emitted CELL_TL offset");

namespace {

inline Value toValue(uint64_t Bits) {
  // One tagged word; the void* cast sidesteps -Wclass-memaccess (Value has
  // user-declared constructors but is still a single trivially-copyable
  // word in this configuration — the static_assert above pins the size).
  Value V;
  std::memcpy(static_cast<void *>(&V), &Bits, sizeof(V));
  return V;
}

/// The trampoline. Owns the AotCtx for the run; the static shims are the
/// function pointers emitted code calls back through.
class AotVM final : public RegVMBase {
public:
  AotVM(const RegProgram &RP, const AotLibrary &Lib, MonitorHooks *Hooks,
        RunOptions Opts)
      : RegVMBase(RP, Hooks, Opts), Lib(Lib) {}

private:
  const AotLibrary &Lib;

  RunResult dispatch(Governor &Gov) override;

  /// Every shim follows the same protocol: adopt the machine state the
  /// native caller synced into the ctx, perform the operation exactly as
  /// the interpreter's handler would, then publish the (possibly moved)
  /// state back into the ctx. Returns nonzero on failure so emitted code
  /// can return kAotFail.
  static AotVM &vm(AotCtx *C) { return *static_cast<AotVM *>(C->VM); }

  static void adopt(AotCtx *C) {
    AotVM &M = vm(C);
    M.Block = C->Block;
    M.PC = C->PC;
    M.Base = static_cast<uint32_t>(C->Base);
    M.Env = reinterpret_cast<EnvNode *>(C->Env);
    M.Steps = C->Steps;
  }

  static void publish(AotCtx *C) {
    AotVM &M = vm(C);
    C->Regs = reinterpret_cast<uint64_t *>(M.Regs.data());
    C->Base = M.Base;
    C->Block = M.Block;
    C->PC = M.PC;
    C->Env = reinterpret_cast<uint64_t>(M.Env);
    C->Steps = M.Steps;
  }

  static int applyShim(AotCtx *C, uint64_t Fn, uint64_t Arg, int Tail,
                       uint32_t Dst) {
    adopt(C);
    AotVM &M = vm(C);
    M.apply(toValue(Fn), toValue(Arg), Tail != 0,
            static_cast<uint16_t>(Dst));
    publish(C);
    return M.Failed ? 1 : 0;
  }

  static int prim1Shim(AotCtx *C, uint32_t Op, uint64_t V, uint32_t Dst) {
    adopt(C);
    AotVM &M = vm(C);
    PrimResult PR = applyPrim1(static_cast<Prim1Op>(Op), toValue(V), M.A);
    if (!PR.Ok) {
      M.fail(std::move(PR.Error));
      return 1;
    }
    M.Regs[C->Base + Dst] = PR.Val;
    return 0;
  }

  static int prim2Shim(AotCtx *C, uint32_t Op, uint64_t L, uint64_t R,
                       uint32_t Dst) {
    adopt(C);
    AotVM &M = vm(C);
    Value Lhs = toValue(L), Rhs = toValue(R), Out;
    Prim2Op Op2 = static_cast<Prim2Op>(Op);
    // Same shape as the interpreter's prim2Set: native code only comes
    // here off its inline fast path, but boxed integers still take the
    // shared integer arm so arena accounting matches.
    if (Lhs.is(ValueKind::Int) && Rhs.is(ValueKind::Int) &&
        intPrim2Fast(Op2, Lhs.asInt(), Rhs.asInt(), M.A, Out)) {
      M.Regs[C->Base + Dst] = Out;
      return 0;
    }
    PrimResult PR = applyPrim2(Op2, Lhs, Rhs, M.A);
    if (!PR.Ok) {
      M.fail(std::move(PR.Error));
      return 1;
    }
    M.Regs[C->Base + Dst] = PR.Val;
    return 0;
  }

  static int prim2BranchShim(AotCtx *C, uint32_t Op, uint64_t L, uint64_t R,
                             int *Taken) {
    adopt(C);
    AotVM &M = vm(C);
    Value Lhs = toValue(L), Rhs = toValue(R);
    Prim2Op Op2 = static_cast<Prim2Op>(Op);
    if (Lhs.is(ValueKind::Int) && Rhs.is(ValueKind::Int)) {
      Value Out;
      if (intPrim2Fast(Op2, Lhs.asInt(), Rhs.asInt(), M.A, Out) &&
          Out.is(ValueKind::Bool)) {
        *Taken = !Out.asBool();
        return 0;
      }
    }
    PrimResult PR = applyPrim2(Op2, Lhs, Rhs, M.A);
    if (!PR.Ok) {
      M.fail(std::move(PR.Error));
      return 1;
    }
    if (!PR.Val.is(ValueKind::Bool)) {
      M.fail("conditional scrutinee must be a boolean, found " +
             toDisplayString(PR.Val));
      return 1;
    }
    *Taken = !PR.Val.asBool();
    return 0;
  }

  static uint64_t boxIntShim(AotCtx *C, int64_t V) {
    adopt(C);
    AotVM &M = vm(C);
    Value Out = Value::mkInt(V, M.A);
    uint64_t Bits;
    std::memcpy(&Bits, &Out, sizeof(Bits));
    return Bits;
  }

  static int doRetShim(AotCtx *C, uint64_t V) {
    adopt(C);
    vm(C).doRet(toValue(V));
    publish(C);
    return 0;
  }

  static void failUninitShim(AotCtx *C, uint64_t EnvNodePtr) {
    adopt(C);
    EnvNode *N = reinterpret_cast<EnvNode *>(EnvNodePtr);
    vm(C).fail("letrec variable '" + std::string(N->Name.str()) +
               "' referenced before initialization");
  }

  static void failNonBoolShim(AotCtx *C, uint64_t V) {
    adopt(C);
    vm(C).fail("conditional scrutinee must be a boolean, found " +
               toDisplayString(toValue(V)));
  }
};

/// A switch-dispatched register interpreter loop with a native-entry gate
/// at the top: when the pc is an enterable point of a compiled block and the
/// whole block fits under the governor's next pause, hand control to the
/// native function. Everything the native code cannot (or must not) do
/// comes back here.
RunResult AotVM::dispatch(Governor &Gov) {
  MONSEM_REGVM_LOCAL_STATE
  const AotBlockFn *Fns = Lib.fns().data();
  const uint64_t *BCost = Lib.blockCost().data();
  AotCtx Ctx;
  Ctx.Consts = reinterpret_cast<const uint64_t *>(Src.ConstPool.data());
  Ctx.VM = this;
  Ctx.Apply = &applyShim;
  Ctx.Prim1 = &prim1Shim;
  Ctx.Prim2 = &prim2Shim;
  Ctx.Prim2Branch = &prim2BranchShim;
  Ctx.BoxInt = &boxIntShim;
  Ctx.DoRet = &doRetShim;
  Ctx.FailUninit = &failUninitShim;
  Ctx.FailNonBool = &failNonBoolShim;
  while (true) {
    if (AotBlockFn Fn = Fns[Block]) {
      if (Steps + BCost[Block] < Gov.nextPause() &&
          Lib.enterable(Block, PC)) {
        this->Block = Block;
        this->PC = PC;
        this->Base = Base;
        this->Env = Env;
        this->Steps = Steps;
        Ctx.Regs = reinterpret_cast<uint64_t *>(Rg);
        Ctx.Base = Base;
        Ctx.Steps = Steps;
        Ctx.NextPause = Gov.nextPause();
        Ctx.Env = reinterpret_cast<uint64_t>(Env);
        Ctx.Block = Block;
        Ctx.PC = PC;
        uint64_t St = Fn(&Ctx);
        Block = Ctx.Block;
        PC = Ctx.PC;
        Base = static_cast<uint32_t>(Ctx.Base);
        Env = reinterpret_cast<EnvNode *>(Ctx.Env);
        Steps = Ctx.Steps;
        this->Steps = Steps;
        Rg = Regs.data();
        if (St == kAotFail || Failed)
          return errorResult();
        if (St != kAotBail)
          continue; // Transfer or yield: re-gate at the new (block, pc).
      }
    }
    const RInstr &I = Blocks[Block].Code[PC++];
    Steps += I.Cost;
    this->Steps = Steps;
    if (Steps >= Gov.nextPause()) {
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
    }
    switch (I.Code) {
#define VM_CASE(Name) case ROp::Name:
#define VM_NEXT() break
#include "compile/RegVMDispatch.inc"
#undef VM_CASE
#undef VM_NEXT
    }
    if (Failed)
      return errorResult();
  }
}

} // namespace

RunResult monsem::runAotProgram(const RegProgram &RP, const AotLibrary &Lib,
                                MonitorHooks *Hooks, RunOptions Opts) {
  AotVM M(RP, Lib, Hooks, Opts);
  return M.run();
}
