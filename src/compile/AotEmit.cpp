//===- compile/AotEmit.cpp - C emitter + shared-object cache --------------===//
///
/// \file
/// Translates eligible RegProgram blocks to C (see AotEmit.h for the tier
/// contract), drives the system C compiler, and caches the resulting
/// shared objects by program fingerprint + emitter version + compiler
/// identification.
///
/// Emission rules, per instruction at the same (block, pc) as the
/// interpreter, charging the same Cost:
///  - register operands index the shared window file (`regs[base + k]`);
///  - varref operands either read the leaf parameter register or walk the
///    closure's EnvNode chain inline (letrec-uninitialized check kept);
///  - integer primitives specialize at emit time on the instruction's op:
///    inline-tagged operands compute in C (wraparound casts keep overflow
///    defined; out-of-range results box through the arena helper), and
///    anything else — boxed ints, Div/Mod's zero check, Cons's cell
///    allocation, type errors — re-enters the interpreter's own slow path
///    so error messages and arena accounting cannot diverge;
///  - calls go through the Apply helper (the interpreter's apply(), frames
///    and windows included), except self tail calls, which reset the
///    window and loop natively after re-checking the governor bound;
///  - Ret pops the C++ frame via DoRet and transfers to the trampoline.
///
/// Every block function begins with a pc switch over its enterable points
/// (entry plus call-return pcs), so the trampoline can resume a block
/// mid-flight after a call or a deopt.
///
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"

#include "compile/Compiler.h"
#include "semantics/Primitives.h"
#include "support/Checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <fstream>

#ifndef _WIN32
#include <dlfcn.h>
#include <unistd.h>
#endif

using namespace monsem;

/// Bumped whenever emitted code or the AotCtx ABI changes shape; part of
/// the cache key so stale shared objects can never be loaded.
static constexpr const char *kEmitterVersion = "monsem-aot-v1";

//===----------------------------------------------------------------------===//
// Compiler discovery
//===----------------------------------------------------------------------===//

namespace {

struct CompilerInfo {
  std::string Path; ///< Command to invoke (may be a bare PATH name).
  std::string Id;   ///< First line of `--version`; empty when unusable.
};

std::string compilerCommand() {
  const char *Env = std::getenv("MONSEM_AOT_CC");
  return Env && *Env ? Env : "cc";
}

CompilerInfo probeCompiler() {
  CompilerInfo CI;
  CI.Path = compilerCommand();
#ifdef _WIN32
  return CI;
#else
  std::string Cmd = "'" + CI.Path + "' --version 2>/dev/null";
  // A quote in the compiler path cannot be quoted away safely; refuse it.
  if (CI.Path.find('\'') != std::string::npos)
    return CI;
  if (FILE *P = popen(Cmd.c_str(), "r")) {
    char Line[512];
    if (fgets(Line, sizeof(Line), P)) {
      CI.Id = Line;
      while (!CI.Id.empty() && (CI.Id.back() == '\n' || CI.Id.back() == '\r'))
        CI.Id.pop_back();
    }
    if (pclose(P) != 0)
      CI.Id.clear();
  }
  return CI;
#endif
}

/// The probed compiler: `--version` runs once per process.
const CompilerInfo &compilerInfo() {
  static CompilerInfo CI = probeCompiler();
  return CI;
}

} // namespace

bool monsem::aotAvailable() { return !compilerInfo().Id.empty(); }

const std::string &monsem::aotCompilerId() { return compilerInfo().Id; }

//===----------------------------------------------------------------------===//
// Eligibility
//===----------------------------------------------------------------------===//

namespace {

/// Pause bound covering any single pass through the block (forward-only
/// control flow; the self-tail loop re-checks per iteration). Blocks whose
/// bound reaches the governor's minimum check interval are never entered
/// natively, so cap eligibility there.
uint64_t blockCostBound(const CodeBlock &B) {
  uint64_t C = 0;
  for (const RInstr &I : B.Code)
    C += I.Cost + (isCurriedCall(I.Code) ? curryRestCost(I.B) : 0);
  return C;
}

bool emittableOp(ROp O) {
  switch (O) {
  case ROp::Const:
  case ROp::Var:
  case ROp::Jump:
  case ROp::JumpIfFalse:
  case ROp::Call:
  case ROp::TailCall:
  case ROp::Ret:
  case ROp::Prim1:
  case ROp::Prim2:
  case ROp::VarVar:
  case ROp::VarPrim2:
  case ROp::ConstPrim2:
  case ROp::VarConstPrim2:
  case ROp::VarVarPrim2:
  case ROp::Prim2JumpIfFalse:
  case ROp::VarCall:
  case ROp::VarTailCall:
  case ROp::CurryCall:
  case ROp::CurryTailCall:
    return true;
  default:
    // MkClosure/PushRecEnv/probes never appear in leaf blocks; PatchRec,
    // PopEnv, and Halt deopt the whole block to the interpreter.
    return false;
  }
}

bool emittableBlock(const CodeBlock &B, uint32_t Index) {
  if (Index == 0 || !B.Leaf || !B.Live || B.Code.empty())
    return false;
  if (blockCostBound(B) >= 512)
    return false;
  for (const RInstr &I : B.Code)
    if (!emittableOp(I.Code))
      return false;
  return true;
}

/// The pcs a fused curried call skips (the calls after its slot). Native
/// code never runs them: the fused call either completes or hands its own
/// pc to the interpreter, so they get no code and are never entered.
std::vector<uint8_t> spineInterior(const CodeBlock &B) {
  std::vector<uint8_t> In(B.Code.size(), 0);
  for (size_t Pc = 0; Pc < B.Code.size(); ++Pc)
    if (isCurriedCall(B.Code[Pc].Code))
      for (size_t J = 1; J < curryArity(B.Code[Pc].B); ++J)
        In[Pc + J] = 1;
  return In;
}

std::vector<uint8_t> enterablePcs(const CodeBlock &B) {
  std::vector<uint8_t> E(B.Code.size(), 0);
  std::vector<uint8_t> In = spineInterior(B);
  if (!E.empty())
    E[0] = 1;
  for (size_t Pc = 0; Pc < B.Code.size(); ++Pc)
    if ((B.Code[Pc].Code == ROp::Call || B.Code[Pc].Code == ROp::VarCall) &&
        Pc + 1 < B.Code.size() && !In[Pc + 1])
      E[Pc + 1] = 1;
  return E;
}

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

/// Tagged-Value constants mirrored into the C. AotRun.cpp static_asserts
/// the object layouts; the value encodings match semantics/Value.h's
/// private enums (inline int: tag 0, sub-kind 1 at bits [5:3], payload at
/// bit 16; bool: sub-kind 2, payload bit 8; nil: sub-kind 3; cell tag 1;
/// VMClosure tag 5).
constexpr const char *kPrelude = R"(#include <stdint.h>

typedef struct MonsemAotCtx MonsemAotCtx;
struct MonsemAotCtx {
  uint64_t *regs;
  uint64_t base;
  uint64_t steps;
  uint64_t next_pause;
  uint64_t env;
  uint32_t block;
  uint32_t pc;
  const uint64_t *consts;
  void *vm;
  int (*apply)(MonsemAotCtx *, uint64_t, uint64_t, int, uint32_t);
  int (*prim1)(MonsemAotCtx *, uint32_t, uint64_t, uint32_t);
  int (*prim2)(MonsemAotCtx *, uint32_t, uint64_t, uint64_t, uint32_t);
  int (*prim2_branch)(MonsemAotCtx *, uint32_t, uint64_t, uint64_t, int *);
  uint64_t (*box_int)(MonsemAotCtx *, int64_t);
  int (*do_ret)(MonsemAotCtx *, uint64_t);
  void (*fail_uninit)(MonsemAotCtx *, uint64_t);
  void (*fail_nonbool)(MonsemAotCtx *, uint64_t);
};

#define AOT_TRANSFER 0u
#define AOT_YIELD 1u
#define AOT_FAIL 2u
#define AOT_BAIL 3u

#define LDU64(p) (*(const uint64_t *)(uintptr_t)(p))
#define IS_IINT(v) (((v) & 0x3fu) == 0x08u)
#define IINT(v) ((int64_t)(v) >> 16)
#define MK_IINT(x) ((((uint64_t)(x)) << 16) | 0x08u)
#define FITS(x) ((int64_t)((uint64_t)(x) << 16) >> 16 == (x))
#define IS_BOOL(v) (((v) & 0x3fu) == 0x10u)
#define BOOLV(v) (((v) >> 8) & 1u)
#define MK_BOOL(b) ((((uint64_t)(b)) << 8) | 0x10u)
#define IS_NIL(v) (((v) & 0x3fu) == 0x18u)
#define TAGOF(v) ((v) & 7u)
#define PTROF(v) ((v) & ~(uint64_t)7u)
#define CL_BLOCK(p) (*(const uint32_t *)(uintptr_t)(p))
#define CL_ENV(p) LDU64((p) + 8)
#define ENV_VAL(n) LDU64((n) + 8)
#define ENV_PARENT(n) LDU64((n) + 16)
#define CELL_HD(p) LDU64(p)
#define CELL_TL(p) LDU64((p) + 8)
)";

class Emitter {
public:
  Emitter(const RegProgram &RP) : RP(RP) {}

  std::string run() {
    O = "/* monsem vm-aot native tier; ";
    O += kEmitterVersion;
    O += "; generated code — do not edit. */\n";
    O += kPrelude;
    for (uint32_t B = 0; B < RP.Blocks.size(); ++B)
      if (emittableBlock(RP.Blocks[B], B))
        emitBlock(B);
    return std::move(O);
  }

private:
  const RegProgram &RP;
  std::string O;
  uint32_t BI = 0;       ///< Current block index.
  uint64_t BCost = 0;    ///< Current block pause bound.
  uint32_t PC = 0;       ///< Current pc (for sync emission).

  static std::string num(uint64_t V) { return std::to_string(V); }
  static std::string reg(uint16_t K) {
    return K ? "regs[base + " + num(K) + "]" : "regs[base]";
  }
  std::string label(uint32_t Pc) const {
    return "L" + num(BI) + "_" + num(Pc);
  }

  /// `ctx->steps = steps; ctx->block = BI; ctx->pc = PC + 1;` — machine
  /// state at the interpreter's post-fetch convention, emitted before any
  /// helper that can fail, allocate, or move control.
  std::string sync() const {
    return "ctx->steps = steps; ctx->block = " + num(BI) +
           "u; ctx->pc = " + num(PC + 1) + "u; ";
  }

  /// Reads varref \p Ref into C lvalue \p T (a leaf parameter register or
  /// an inline walk of the environment chain with the letrec check).
  void varref(uint16_t Ref, const char *T) {
    if (isParamRef(Ref)) {
      O += std::string("  ") + T + " = " +
           reg(static_cast<uint16_t>(paramRegOf(Ref))) + ";\n";
      return;
    }
    O += "  { uint64_t n = ctx->env;\n";
    for (uint16_t D = 0; D < Ref; ++D)
      O += "    n = ENV_PARENT(n);\n";
    O += std::string("    ") + T + " = ENV_VAL(n);\n";
    O += std::string("    if (!") + T + ") { " + sync() +
         "ctx->fail_uninit(ctx, n); return AOT_FAIL; } }\n";
  }

  /// The integer fast path of prim2 (op known at emit time), writing the
  /// tagged result into \p Dst; non-inline operands and the remaining ops
  /// take the interpreter's slow path via the Prim2 helper.
  void prim2Into(Prim2Op Op, const std::string &L, const std::string &R,
                 uint16_t Dst) {
    const char *COp = cmpOp(Op);
    std::string Slow = "  { " + sync() + "if (ctx->prim2(ctx, " +
                       num(static_cast<unsigned>(Op)) + "u, " + L + ", " + R +
                       ", " + num(Dst) + "u)) return AOT_FAIL; }\n";
    if (COp) {
      O += "  if (IS_IINT(" + L + ") && IS_IINT(" + R + "))\n";
      O += "    " + reg(Dst) + " = MK_BOOL(IINT(" + L + ") " + COp +
           " IINT(" + R + "));\n";
      O += "  else\n  " + Slow;
      return;
    }
    switch (Op) {
    case Prim2Op::Add:
    case Prim2Op::Sub:
    case Prim2Op::Mul: {
      const char *A = Op == Prim2Op::Add   ? "+"
                      : Op == Prim2Op::Sub ? "-"
                                           : "*";
      O += "  if (IS_IINT(" + L + ") && IS_IINT(" + R + ")) {\n";
      O += "    int64_t z = (int64_t)((uint64_t)IINT(" + L + ") " + A +
           " (uint64_t)IINT(" + R + "));\n";
      O += "    if (FITS(z)) " + reg(Dst) + " = MK_IINT(z);\n";
      O += "    else { " + sync() + reg(Dst) +
           " = ctx->box_int(ctx, z); }\n";
      O += "  } else\n  " + Slow;
      return;
    }
    case Prim2Op::Min:
    case Prim2Op::Max: {
      // The interpreter re-encodes min/max through mkInt, which for two
      // inline operands reproduces the chosen operand's word exactly.
      const char *C = Op == Prim2Op::Min ? "<" : ">";
      O += "  if (IS_IINT(" + L + ") && IS_IINT(" + R + "))\n";
      O += "    " + reg(Dst) + " = IINT(" + L + ") " + C + " IINT(" + R +
           ") ? " + L + " : " + R + ";\n";
      O += "  else\n  " + Slow;
      return;
    }
    default: // Div, Mod (zero checks), Cons (allocation).
      O += Slow;
      return;
    }
  }

  static const char *cmpOp(Prim2Op Op) {
    switch (Op) {
    case Prim2Op::Eq:
      return "==";
    case Prim2Op::Ne:
      return "!=";
    case Prim2Op::Lt:
      return "<";
    case Prim2Op::Le:
      return "<=";
    case Prim2Op::Gt:
      return ">";
    case Prim2Op::Ge:
      return ">=";
    default:
      return nullptr;
    }
  }

  /// A call site: \p Fn and \p Arg are C expressions already loaded into
  /// temporaries. Self tail calls loop natively (window reset + governor
  /// re-check); everything else funnels through the interpreter's apply.
  /// Non-tail calls whose apply completes in place (primitives, curried
  /// closures) continue natively at the return pc.
  void emitCall(const std::string &Fn, const std::string &Arg, bool Tail,
                uint16_t Dst) {
    if (Tail) {
      O += "  if (TAGOF(" + Fn + ") == 5u) { uint64_t cl = PTROF(" + Fn +
           ");\n";
      O += "    if (CL_BLOCK(cl) == " + num(BI) + "u) {\n";
      O += "      ctx->env = CL_ENV(cl); regs[base] = " + Arg + ";\n";
      O += "      if (steps + " + num(BCost) +
           "u >= ctx->next_pause) { ctx->steps = steps; ctx->block = " +
           num(BI) + "u; ctx->pc = 0u; return AOT_YIELD; }\n";
      O += "      goto " + label(0) + ";\n    } }\n";
    }
    O += "  " + sync() + "\n";
    O += "  if (ctx->apply(ctx, " + Fn + ", " + Arg + ", " +
         (Tail ? "1" : "0") + ", " + num(Dst) + "u)) return AOT_FAIL;\n";
    O += "  steps = ctx->steps;\n";
    if (!Tail) {
      O += "  if (ctx->block == " + num(BI) + "u && ctx->pc == " +
           num(PC + 1) + "u && ctx->base == base) {\n";
      O += "    regs = ctx->regs;\n";
      O += "    if (steps + " + num(BCost) +
           "u >= ctx->next_pause) return AOT_YIELD;\n";
      O += "    goto " + label(PC + 1) + ";\n  }\n";
    }
    O += "  return AOT_TRANSFER;\n";
  }

  void emitBlock(uint32_t B) {
    BI = B;
    const CodeBlock &RB = RP.Blocks[B];
    BCost = blockCostBound(RB);
    std::vector<uint8_t> Enter = enterablePcs(RB);
    O += "\n/* block " + num(B) + " (" + RB.Name + "), cost bound " +
         num(BCost) + " */\n";
    O += "uint64_t monsem_aot_b" + num(B) + "(MonsemAotCtx *ctx) {\n";
    O += "  uint64_t *regs = ctx->regs;\n";
    O += "  uint64_t base = ctx->base;\n";
    O += "  uint64_t steps = ctx->steps;\n";
    O += "  uint64_t t0, t1; int taken;\n";
    O += "  (void)t0; (void)t1; (void)taken;\n";
    O += "  switch (ctx->pc) {\n";
    for (uint32_t Pc = 0; Pc < Enter.size(); ++Pc)
      if (Enter[Pc])
        O += "  case " + num(Pc) + "u: goto " + label(Pc) + ";\n";
    O += "  default: return AOT_BAIL;\n  }\n";
    std::vector<uint8_t> Interior = spineInterior(RB);
    for (PC = 0; PC < RB.Code.size(); ++PC)
      if (!Interior[PC])
        emitInstr(RB.Code[PC]);
    O += "}\n";
  }

  /// A fused curried call. A self tail call resets the window with the k
  /// arguments and loops natively, as emitCall's self tail path does; any
  /// other hands the instruction to the interpreter (AOT_BAIL at its own
  /// pc, steps not yet charged), which pushes the frame and comes back
  /// natively at the callee's entry.
  void emitCurriedCall(const RInstr &I) {
    const std::string Bail = "  ctx->steps = steps; ctx->block = " + num(BI) +
                             "u; ctx->pc = " + num(PC) +
                             "u; return AOT_BAIL;\n";
    if (I.Code != ROp::CurryTailCall || I.A != BI) {
      O += Bail;
      return;
    }
    const uint32_t K = curryArity(I.B);
    O += "  steps += " + num(I.Cost) + "u;\n";
    varref(I.S2, "t0");
    O += "  if (TAGOF(t0) == 5u) {\n";
    // The arguments are temporaries, above the parameter registers they
    // move to. Each passes through an empty asm so the C compiler cannot
    // merge their loads into one vector load: the stores that just wrote
    // them could not forward to it, which costs more than the loop body.
    O += "    steps += " + num(curryRestCost(I.B)) + "u;\n";
    for (uint32_t J = 0; J < K; ++J)
      O += "    t1 = " + reg(I.S1 - J) + "; __asm__(\"\" : \"+r\"(t1)); " +
           reg(J) + " = t1;\n";
    O += "    ctx->env = CL_ENV(PTROF(t0));\n";
    O += "    if (steps + " + num(BCost) +
         "u >= ctx->next_pause) { ctx->steps = steps; ctx->block = " +
         num(BI) + "u; ctx->pc = 0u; return AOT_YIELD; }\n";
    O += "    goto " + label(0) + ";\n  }\n";
    O += "  steps -= " + num(I.Cost) + "u;\n" + Bail;
  }

  void emitInstr(const RInstr &I) {
    O += label(PC) + ": ;\n";
    if (isCurriedCall(I.Code))
      return emitCurriedCall(I);
    O += "  steps += " + num(I.Cost) + "u;\n";
    switch (I.Code) {
    case ROp::Const:
      O += "  " + reg(I.D) + " = ctx->consts[" + num(I.A) + "u];\n";
      break;
    case ROp::Var:
      varref(I.S1, "t0");
      O += "  " + reg(I.D) + " = t0;\n";
      break;
    case ROp::Jump:
      O += "  goto " + label(I.A) + ";\n";
      break;
    case ROp::JumpIfFalse:
      O += "  t0 = " + reg(I.S1) + ";\n";
      O += "  if (!IS_BOOL(t0)) { " + sync() +
           "ctx->fail_nonbool(ctx, t0); return AOT_FAIL; }\n";
      O += "  if (!BOOLV(t0)) goto " + label(I.A) + ";\n";
      break;
    case ROp::Call:
      O += "  t0 = " + reg(I.S1) + ";\n  t1 = " + reg(I.S2) + ";\n";
      emitCall("t0", "t1", /*Tail=*/false, I.D);
      break;
    case ROp::TailCall:
      O += "  t0 = " + reg(I.S1) + ";\n  t1 = " + reg(I.S2) + ";\n";
      emitCall("t0", "t1", /*Tail=*/true, 0);
      break;
    case ROp::Ret:
      O += "  " + sync() + "\n";
      O += "  if (ctx->do_ret(ctx, " + reg(I.S1) +
           ")) return AOT_FAIL;\n";
      O += "  return AOT_TRANSFER;\n";
      break;
    case ROp::Prim1:
      emitPrim1(static_cast<Prim1Op>(I.A), I);
      break;
    case ROp::Prim2:
      O += "  t0 = " + reg(I.S1) + ";\n  t1 = " + reg(I.S2) + ";\n";
      prim2Into(static_cast<Prim2Op>(I.A), "t0", "t1", I.D);
      break;
    case ROp::VarVar:
      varref(I.S1, "t0");
      O += "  " + reg(I.D) + " = t0;\n";
      varref(I.S2, "t1");
      O += "  regs[base + " + num(I.D + 1) + "] = t1;\n";
      break;
    case ROp::VarPrim2:
      // Rhs variable check precedes the lhs register read (unfused order).
      varref(I.S2, "t1");
      O += "  t0 = " + reg(I.S1) + ";\n";
      prim2Into(static_cast<Prim2Op>(unpackPrimOp(I.B)), "t0", "t1", I.D);
      break;
    case ROp::ConstPrim2:
      O += "  t0 = " + reg(I.S1) + ";\n";
      O += "  t1 = ctx->consts[" + num(I.A) + "u];\n";
      prim2Into(static_cast<Prim2Op>(unpackPrimOp(I.B)), "t0", "t1", I.D);
      break;
    case ROp::VarConstPrim2:
      varref(I.S1, "t0");
      O += "  t1 = ctx->consts[" + num(I.A) + "u];\n";
      prim2Into(static_cast<Prim2Op>(unpackPrimOp(I.B)), "t0", "t1", I.D);
      break;
    case ROp::VarVarPrim2:
      varref(I.S1, "t0");
      varref(I.S2, "t1");
      prim2Into(static_cast<Prim2Op>(unpackPrimOp(I.B)), "t0", "t1", I.D);
      break;
    case ROp::Prim2JumpIfFalse: {
      O += "  t0 = " + reg(I.S1) + ";\n  t1 = " + reg(I.S2) + ";\n";
      Prim2Op Op = static_cast<Prim2Op>(unpackPrimOp(I.B));
      const char *C = cmpOp(Op);
      std::string Slow = "{ " + sync() + "if (ctx->prim2_branch(ctx, " +
                         num(static_cast<unsigned>(Op)) +
                         "u, t0, t1, &taken)) return AOT_FAIL;\n" +
                         "    if (taken) goto " + label(I.A) + "; }\n";
      if (C) {
        O += "  if (IS_IINT(t0) && IS_IINT(t1)) {\n";
        O += "    if (!(IINT(t0) " + std::string(C) + " IINT(t1))) goto " +
             label(I.A) + ";\n";
        O += "  } else " + Slow;
      } else {
        O += "  " + Slow;
      }
      break;
    }
    case ROp::VarCall:
      varref(I.S2, "t0");
      O += "  t1 = " + reg(I.S1) + ";\n";
      emitCall("t0", "t1", /*Tail=*/false, I.D);
      break;
    case ROp::VarTailCall:
      varref(I.S2, "t0");
      O += "  t1 = " + reg(I.S1) + ";\n";
      emitCall("t0", "t1", /*Tail=*/true, 0);
      break;
    default: // Unreachable: emittableBlock filtered these out.
      O += "  return AOT_BAIL;\n";
      break;
    }
  }

  void emitPrim1(Prim1Op Op, const RInstr &I) {
    O += "  t0 = " + reg(I.S1) + ";\n";
    std::string Slow = "  { " + sync() + "if (ctx->prim1(ctx, " +
                       num(static_cast<unsigned>(Op)) + "u, t0, " +
                       num(I.D) + "u)) return AOT_FAIL; }\n";
    switch (Op) {
    case Prim1Op::Neg:
      O += "  if (IS_IINT(t0)) {\n";
      O += "    int64_t z = (int64_t)(0 - (uint64_t)IINT(t0));\n";
      O += "    if (FITS(z)) " + reg(I.D) + " = MK_IINT(z);\n";
      O += "    else { " + sync() + reg(I.D) +
           " = ctx->box_int(ctx, z); }\n";
      O += "  } else\n" + Slow;
      return;
    case Prim1Op::Not:
      O += "  if (IS_BOOL(t0)) " + reg(I.D) + " = t0 ^ 0x100u;\n";
      O += "  else\n" + Slow;
      return;
    case Prim1Op::Null:
      O += "  if (IS_NIL(t0)) " + reg(I.D) + " = MK_BOOL(1);\n";
      O += "  else if (TAGOF(t0) == 1u) " + reg(I.D) + " = MK_BOOL(0);\n";
      O += "  else\n" + Slow;
      return;
    case Prim1Op::Hd:
      O += "  if (TAGOF(t0) == 1u) " + reg(I.D) + " = CELL_HD(PTROF(t0));\n";
      O += "  else\n" + Slow;
      return;
    case Prim1Op::Tl:
      O += "  if (TAGOF(t0) == 1u) " + reg(I.D) + " = CELL_TL(PTROF(t0));\n";
      O += "  else\n" + Slow;
      return;
    default:
      O += Slow;
      return;
    }
  }
};

} // namespace

std::string monsem::aotEmitSource(const RegProgram &RP) {
  return Emitter(RP).run();
}

//===----------------------------------------------------------------------===//
// Cache + loading
//===----------------------------------------------------------------------===//

AotLibrary::~AotLibrary() {
#ifndef _WIN32
  if (Handle)
    dlclose(Handle);
#endif
}

namespace {

std::string defaultCacheDir() {
  if (const char *Env = std::getenv("MONSEM_AOT_CACHE"))
    if (*Env)
      return Env;
  const char *Tmp = std::getenv("TMPDIR");
  std::string Base = Tmp && *Tmp ? Tmp : "/tmp";
#ifndef _WIN32
  return Base + "/monsem-aot-" + std::to_string(getuid());
#else
  return Base + "/monsem-aot";
#endif
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

#ifndef _WIN32
/// Resolves the compiler command the way the shell does: a name with a
/// slash is a path, a bare name the first executable of that name on PATH.
/// Returns the file with its symlinks resolved, or "" when there is none.
std::string resolveCommand(const std::string &Cmd) {
  namespace fs = std::filesystem;
  auto Exec = [](const std::string &P) -> std::string {
    std::error_code EC;
    fs::path Canon = fs::canonical(P, EC);
    if (EC || !fs::is_regular_file(Canon, EC) ||
        access(Canon.c_str(), X_OK) != 0)
      return "";
    return Canon.string();
  };
  if (Cmd.find('/') != std::string::npos)
    return Exec(Cmd);
  const char *Path = std::getenv("PATH");
  std::string_view Dirs = Path ? Path : "/usr/bin:/bin";
  while (true) {
    size_t Colon = Dirs.find(':');
    std::string_view D = Dirs.substr(0, Colon);
    std::string Found = Exec((D.empty() ? "." : std::string(D)) + "/" + Cmd);
    if (!Found.empty() || Colon == std::string_view::npos)
      return Found;
    Dirs.remove_prefix(Colon + 1);
  }
}

/// The compiler identification without a `--version` process per run: the
/// line is kept in \p Dir under a key of the command, the file it resolves
/// to, and that file's size and mtime (ccache's compiler_check=mtime).
/// Only a key miss runs the probe, so a replaced compiler is probed again.
CompilerInfo lookupCompilerId(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::string Cmd = compilerCommand();
  std::string File = resolveCommand(Cmd);
  if (File.empty())
    return compilerInfo();
  std::error_code SizeEC, TimeEC;
  uintmax_t Size = fs::file_size(File, SizeEC);
  fs::file_time_type MTime = fs::last_write_time(File, TimeEC);
  if (SizeEC || TimeEC)
    return compilerInfo();
  std::string Key = Cmd + '\0' + File + '\0' + std::to_string(Size) + '\0' +
                    std::to_string(MTime.time_since_epoch().count());
  std::string IdPath = Dir + "/monsem-cc-" + hex64(fnv1aHash(Key)) + ".id";
  CompilerInfo CI;
  CI.Path = Cmd;
  if (std::ifstream In{IdPath}; In && std::getline(In, CI.Id) && !CI.Id.empty())
    return CI;
  CI = compilerInfo();
  if (CI.Id.empty())
    return CI;
  // Publish atomically, so a concurrent reader sees the whole line or
  // nothing; a failed write only means the next process probes again.
  std::error_code EC;
  fs::create_directories(Dir, EC);
  std::string Tmp = IdPath + "." + std::to_string(getpid());
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    Out << CI.Id << '\n';
  }
  fs::rename(Tmp, IdPath, EC);
  if (EC)
    fs::remove(Tmp, EC);
  return CI;
}

/// lookupCompilerId, once per process (the first cache directory asked
/// for keeps the line; "" is the default directory).
const CompilerInfo &cachedCompilerInfo(const std::string &CacheDir) {
  static CompilerInfo CI =
      lookupCompilerId(CacheDir.empty() ? defaultCacheDir() : CacheDir);
  return CI;
}
#endif

/// Loaded libraries, keyed by the cache fingerprint — repeated runs of the
/// same program (bench iterations, server sessions) dlopen once.
std::mutex RegistryMu;
std::map<uint64_t, std::shared_ptr<const AotLibrary>> &registry() {
  static std::map<uint64_t, std::shared_ptr<const AotLibrary>> R;
  return R;
}

} // namespace

/// Structural fingerprint over *every* block of the program, eligible or
/// not. The library's per-program tables (Fns / BlockCost / Enterable) are
/// indexed by block number across the whole program, but the emitted C
/// source only contains the eligible leaf blocks — so two different
/// programs can emit byte-identical source. The registry must therefore
/// never key those tables by the source hash alone; this hash
/// disambiguates them. (The .so file itself may still be shared: the
/// object code reads constants and registers through the ctx at run time.)
uint64_t monsem::structHash(const RegProgram &RP) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  Mix(RP.Blocks.size());
  for (const CodeBlock &B : RP.Blocks) {
    Mix(B.Code.size());
    Mix(B.NumRegs);
    Mix(B.Leaf);
    Mix(B.Live);
    // RInstr is two fully-initialized machine words (static_assert'd in
    // Bytecode.h), so hashing its raw bytes is deterministic.
    for (const RInstr &I : B.Code) {
      uint64_t W[2];
      std::memcpy(W, &I, sizeof(W));
      Mix(W[0]);
      Mix(W[1]);
    }
  }
  return H;
}

std::shared_ptr<const AotLibrary>
monsem::aotLoad(const RegProgram &RP, const std::string &CacheDir,
                std::string *WhyNot) {
  auto No = [&](std::string Why) -> std::shared_ptr<const AotLibrary> {
    if (WhyNot)
      *WhyNot = std::move(Why);
    return nullptr;
  };
#ifdef _WIN32
  (void)RP;
  (void)CacheDir;
  return No("the native tier requires dlopen");
#else
  const CompilerInfo &CI = cachedCompilerInfo(CacheDir);
  if (CI.Id.empty())
    return No("no C compiler available (checked MONSEM_AOT_CC, then 'cc')");

  std::string Source = aotEmitSource(RP);
  // The source text covers the eligible blocks + emitter version; fold in
  // the compiler identification so a toolchain change recompiles. This key
  // names the shared object on disk.
  uint64_t SoKey = fnv1aHash(Source) ^ fnv1aHash(CI.Id);
  // The registry entry additionally carries per-program tables indexed by
  // block number, so its key must distinguish whole programs, not just
  // their emitted subsets.
  uint64_t Key = SoKey ^ structHash(RP);

  std::lock_guard<std::mutex> Lock(RegistryMu);
  auto It = registry().find(Key);
  if (It != registry().end())
    return It->second;

  std::string Dir = CacheDir.empty() ? defaultCacheDir() : CacheDir;
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return No("cannot create AOT cache directory " + Dir + ": " +
              EC.message());
  std::string SoPath = Dir + "/monsem-aot-" + hex64(SoKey) + ".so";

  if (!std::filesystem::exists(SoPath)) {
    std::string Stem =
        Dir + "/monsem-aot-" + hex64(SoKey) + "." + std::to_string(getpid());
    std::string CPath = Stem + ".c", TmpSo = Stem + ".so";
    {
      std::ofstream CF(CPath, std::ios::trunc);
      CF << Source;
      if (!CF)
        return No("cannot write AOT source file " + CPath);
    }
    // -fexceptions: the arena-limit exception must unwind through native
    // frames back to the driver's catch. -w: generated code has unused
    // labels by construction.
    std::string Cmd = "'" + CI.Path + "' -O2 -fPIC -shared -fexceptions -w " +
                      "-o '" + TmpSo + "' '" + CPath + "' 2>/dev/null";
    int RC = std::system(Cmd.c_str());
    std::filesystem::remove(CPath, EC);
    if (RC != 0) {
      std::filesystem::remove(TmpSo, EC);
      return No("C compiler failed (exit " + std::to_string(RC) + ")");
    }
    std::filesystem::rename(TmpSo, SoPath, EC); // Atomic publish.
    if (EC) {
      std::filesystem::remove(TmpSo, EC);
      return No("cannot publish AOT shared object: " + EC.message());
    }
  }

  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *E = dlerror();
    return No(std::string("dlopen failed: ") + (E ? E : "unknown error"));
  }

  auto Lib = std::make_shared<AotLibrary>();
  Lib->Handle = Handle;
  Lib->Source = Source;
  Lib->SoPath = SoPath;
  Lib->Fns.assign(RP.Blocks.size(), nullptr);
  Lib->BlockCost.assign(RP.Blocks.size(), 0);
  Lib->Enterable.resize(RP.Blocks.size());
  for (uint32_t B = 0; B < RP.Blocks.size(); ++B) {
    if (!emittableBlock(RP.Blocks[B], B))
      continue;
    std::string Sym = "monsem_aot_b" + std::to_string(B);
    void *Fn = dlsym(Handle, Sym.c_str());
    if (!Fn)
      return No("dlsym failed for " + Sym + " (stale cache entry?)");
    Lib->Fns[B] = reinterpret_cast<AotBlockFn>(Fn);
    Lib->BlockCost[B] = blockCostBound(RP.Blocks[B]);
    Lib->Enterable[B] = enterablePcs(RP.Blocks[B]);
  }

  std::shared_ptr<const AotLibrary> Out = Lib;
  registry().emplace(Key, Out);
  return Out;
#endif
}
