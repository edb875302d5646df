//===- compile/Bytecode.h - Compiled (instrumented) programs ----*- C++ -*-===//
///
/// \file
/// The paper's second level of specialization (Section 9.1, Fig. 10):
/// specializing the (monitored) interpreter with respect to a source
/// program yields an *instrumented program* — code in which all static
/// computation (syntax dispatch, environment shape, which monitor probes
/// fire where) has been performed once, and only the dynamic computation
/// (values and monitor-state updates) remains.
///
/// Here that residual program is bytecode: one pass over the annotated AST
/// emits straight-line instructions; `MonPre`/`MonPost` instructions appear
/// exactly at annotation sites. Compiling with instrumentation disabled
/// yields the residual of specializing the *standard* interpreter — the
/// baseline "compiled program".
///
/// Variables are resolved to lexical depths at compile time; the run-time
/// environment nevertheless keeps binder names so monitoring functions can
/// perform rho(x) lookups (the tracer's ToStr(rho(x))), exactly as the
/// semantics prescribes.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_COMPILE_BYTECODE_H
#define MONSEM_COMPILE_BYTECODE_H

#include "semantics/Value.h"
#include "syntax/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace monsem {

enum class Op : uint8_t {
  Const,       ///< push ConstPool[A]
  Var,         ///< push value at env depth A (error if uninitialized)
  MkClosure,   ///< push closure over Blocks[A] and the current env
  Jump,        ///< pc = A
  JumpIfFalse, ///< pop condition; pc = A when false (error if non-bool)
  Call,        ///< pop fn, pop arg; invoke
  TailCall,    ///< like Call but reuses the current frame
  Ret,         ///< return the top of stack to the caller
  Prim1,       ///< pop v; push prim1<A>(v)
  Prim2,       ///< pop rhs, pop lhs; push prim2<A>(lhs, rhs)
  PushRecEnv,  ///< extend env with Names[A] bound to <uninitialized>
  PatchRec,    ///< pop v; patch the innermost env node (letrec knot)
  PopEnv,      ///< drop A innermost env nodes
  MonPre,      ///< monitoring probe updPre for Annots[A]
  MonPost,     ///< monitoring probe updPost for Annots[A] (peeks the top)
  Halt,        ///< stop; top of stack is the answer

  // Fused superinstructions. Each replaces the adjacent pair (or triple)
  // named in its comment; the peephole pass (`fuseSuperinstructions`)
  // produces them, the compiler never emits them directly. Every fused
  // instruction performs its constituents' checks in the original order,
  // so error messages and failure points are bit-identical to the unfused
  // program. None of them may span a MonPre/MonPost probe: the fusion
  // pass has no rule mentioning probes, so annotated sites keep the
  // paper-exact instruction sequence (Definition 7.1 obliviousness).
  VarVar,        ///< Var A; Var B — push env[A] then env[B]
  VarPrim2,      ///< Var A; Prim2 — pop lhs; push prim2<B.op>(lhs, env[A])
  ConstPrim2,    ///< Const A; Prim2 — pop lhs; push prim2<B.op>(lhs, pool[A])
  VarConstPrim2, ///< Var B.depth; Const A; Prim2 — push prim2<B.op>(env[B.depth], pool[A])
  VarVarPrim2,   ///< Var B.depth; Var A; Prim2 — push prim2<B.op>(env[B.depth], env[A])
  Prim2JumpIfFalse, ///< Prim2 B.op; JumpIfFalse A — pop rhs, lhs; branch on the result
  VarCall,       ///< Var A; Call — fn = env[A], arg = pop; invoke
  VarTailCall,   ///< Var A; TailCall — fn = env[A], arg = pop; tail-invoke
};

/// Number of opcodes, fused included. Dispatch tables and the
/// disassembler's switches static_assert against this so a new opcode
/// cannot be added without updating every consumer.
inline constexpr unsigned kNumOps = static_cast<unsigned>(Op::VarTailCall) + 1;

/// One instruction. Still a single 8-byte word after fusion support:
///  - `Cost` is the number of *source-machine steps* this instruction
///    represents (1 for core ops, the sum of its constituents for fused
///    ops). The register tier advances its step counter by Cost, so
///    monitored step counts, governor fuel accounting, and bench
///    step-parity assertions are identical fused vs. unfused at every
///    instruction boundary.
///  - `B` is the secondary operand of fused instructions: the packed
///    prim2 op (low byte) and variable depth (high byte) for the
///    *Prim2 family, or the second variable depth for VarVar.
struct Instr {
  Op Code;
  uint8_t Cost = 1;
  uint16_t B = 0;
  uint32_t A = 0;
};
static_assert(sizeof(Instr) == 8, "Instr must stay one machine word");

/// Operand packing for the fused *Prim2 instructions: prim2 opcode in the
/// low byte of B, variable depth in the high byte.
inline constexpr uint32_t kMaxPackedDepth = 0xFF;
/// VarVar packs its second depth into B whole.
inline constexpr uint32_t kMaxSecondaryVar = 0xFFFF;

inline uint16_t packOpDepth(uint8_t PrimOp, uint32_t Depth) {
  return static_cast<uint16_t>(PrimOp | (Depth << 8));
}
inline uint8_t unpackPrimOp(uint16_t B) { return static_cast<uint8_t>(B); }
inline uint32_t unpackDepth(uint16_t B) { return B >> 8; }

//===----------------------------------------------------------------------===//
// Register tier
//===----------------------------------------------------------------------===//

struct CompiledProgram;

/// Three-address register opcodes. The register tier is a 1:1 re-encoding
/// of the *fused* stack bytecode: `lowerToRegisters` maps every stack
/// instruction to exactly one register instruction at the same (block, pc)
/// coordinate with the same Cost, so step counts, governor pause points,
/// probe positions, and checkpoint coordinates are identical across tiers
/// — a checkpoint taken on either tier resumes on the other.
///
/// The enumerators mirror `Op` name for name and value for value (the
/// static_asserts below pin the correspondence); what changes is the
/// operand encoding: pushes and pops become explicit register indices
/// computed by the lowering pass from the static stack height at each pc.
enum class ROp : uint8_t {
  Const,       ///< r[D] = ConstPool[A]
  Var,         ///< r[D] = varref S1 (register or environment, see kParamReg)
  MkClosure,   ///< r[D] = closure over Blocks[A] and the current env
  Jump,        ///< pc = A
  JumpIfFalse, ///< pc = A when r[S1] is false (error if non-bool)
  Call,        ///< fn = r[S1], arg = r[S2]; result lands in r[D]
  TailCall,    ///< like Call but reuses the current register window
  Ret,         ///< return r[S1] to the caller's destination register
  Prim1,       ///< r[D] = prim1<A>(r[S1])
  Prim2,       ///< r[D] = prim2<A>(r[S1], r[S2])
  PushRecEnv,  ///< extend env with Names[A] bound to <uninitialized>
  PatchRec,    ///< patch the innermost env node with r[S1]
  PopEnv,      ///< drop A innermost env nodes
  MonPre,      ///< monitoring probe updPre for Probes[A]
  MonPost,     ///< monitoring probe updPost for Probes[A] (peeks r[S1])
  Halt,        ///< stop; r[S1] is the answer

  // Register forms of the fused superinstructions (same Cost accounting,
  // same constituent check order).
  VarVar,           ///< r[D] = varref S1; r[D+1] = varref S2
  VarPrim2,         ///< r[D] = prim2<B.op>(r[S1], varref S2)
  ConstPrim2,       ///< r[D] = prim2<B.op>(r[S1], pool[A])
  VarConstPrim2,    ///< r[D] = prim2<B.op>(varref S1, pool[A])
  VarVarPrim2,      ///< r[D] = prim2<B.op>(varref S1, varref S2)
  Prim2JumpIfFalse, ///< pc = A unless prim2<B.op>(r[S1], r[S2])
  VarCall,          ///< fn = varref S2, arg = r[S1]; result in r[D]
  VarTailCall,      ///< fn = varref S2, arg = r[S1]; tail-invoke
};

inline constexpr unsigned kNumROps =
    static_cast<unsigned>(ROp::VarTailCall) + 1;
static_assert(kNumROps == kNumOps,
              "the register tier mirrors the stack opcode set 1:1");
static_assert(static_cast<unsigned>(ROp::Halt) ==
                      static_cast<unsigned>(Op::Halt) &&
                  static_cast<unsigned>(ROp::VarTailCall) ==
                      static_cast<unsigned>(Op::VarTailCall),
              "ROp enumerators must keep Op's order");

/// A variable reference operand (`varref` above): either an environment
/// depth, or — in leaf blocks, where the parameter lives in register 0
/// instead of an environment node — the sentinel kParamReg naming that
/// register. Parameters are never uninitialized, so the register path
/// skips the letrec before-initialization check the env path performs.
inline constexpr uint16_t kParamReg = 0xFFFF;

/// The largest register index a window may use, so the static operand
/// stack of one block holds at most kMaxRegister - 1 values (a leaf block
/// keeps its parameter in register 0, below the temporaries).
/// compileProgram refuses programs that need more, and binder depths of
/// kParamReg or more, so the lowering accepts everything it compiles.
inline constexpr uint32_t kMaxRegister = 0x7FFF;
inline constexpr uint32_t kMaxOperandStack = kMaxRegister - 1;

/// Entry stack heights are recorded per pc for checkpoint spill/restore;
/// statically unreachable instructions (e.g. the join jump after a taken
/// tail call) carry this sentinel.
inline constexpr uint16_t kDeadHeight = 0xFFFF;

/// One register instruction: 16 bytes, operands fully explicit so the
/// interpreter never consults the height table.
///  - `D` is the destination register, window-relative.
///  - `S1`/`S2` are source registers, or variable references where the
///    opcode says `varref`.
///  - `A`/`B` keep their stack-encoding meaning (constant index, block
///    index, jump target, packed prim2 op, ...).
///  - `Cost` is copied from the stack instruction: source-machine steps.
struct RInstr {
  ROp Code;
  uint8_t Cost = 1;
  uint16_t D = 0;
  uint32_t A = 0;
  uint16_t S1 = 0;
  uint16_t S2 = 0;
  uint16_t B = 0;
  uint16_t Pad = 0;
};
static_assert(sizeof(RInstr) == 16, "RInstr must stay two machine words");

/// One lowered block. `Leaf` blocks (no MkClosure, no PushRecEnv, no
/// probes; never the entry block) keep their parameter in register 0 and
/// allocate no environment node per call — the environment chain is
/// materialized on demand only at checkpoint safepoints. Non-leaf blocks
/// maintain the full environment chain, one node per binder, so probes
/// observe the paper's environment unchanged.
struct RegBlock {
  std::vector<RInstr> Code;
  /// Entry stack height per pc (kDeadHeight for unreachable pcs). Used by
  /// checkpoint spill/restore to map register windows to the canonical
  /// flat operand stack and back.
  std::vector<uint16_t> Height;
  /// Registers per frame window: locals (1 in leaf blocks, 0 otherwise)
  /// plus the block's maximal temporary count.
  uint32_t NumRegs = 0;
  uint32_t TempBase = 0; ///< First temporary register (1 in leaf blocks).
  bool Leaf = false;
  bool Live = true; ///< Copied from the source block (CodeBlock::Live).
  /// A *currier*: a non-entry block whose whole body is `MkClosure k; Ret`
  /// — the shape curried definitions (`\x. \y. ...`) lower to for every
  /// outer parameter. Calls into a currier are collapsed by the register
  /// tier's apply path: instead of pushing a register window, dispatching
  /// two instructions, and popping it, the caller allocates the same env
  /// node + closure pair inline and charges CurrierCost steps. Allocation
  /// count, probe streams (curriers have none by construction), and total
  /// step counts are unchanged; only the *interior* pause coordinate moves
  /// to the caller's next instruction boundary (the fused-superinstruction
  /// precedent). The block body is kept intact so checkpoints taken inside
  /// it by older producers still resume.
  bool Currier = false;
  uint32_t CurrierInner = 0; ///< Block index the MkClosure captures.
  uint8_t CurrierCost = 0;   ///< MkClosure.Cost + Ret.Cost.
  Symbol Param;     ///< Copied from the source block (checkpoint spill).
  std::string Name; ///< Copied from the source block (disassembly).
};

/// The lowered program. Non-owning view over the source CompiledProgram
/// (constants, names, probes, disassembly fingerprint), which must outlive
/// it.
struct RegProgram {
  const CompiledProgram *Src = nullptr;
  std::vector<RegBlock> Blocks;

  /// Human-readable register-form disassembly (tests, debugging).
  std::string disassemble() const;
};

/// One compiled lambda (or the program entry).
struct CodeBlock {
  Symbol Param;             ///< Binder for Call (empty for the entry block).
  std::vector<Instr> Code;
  std::string Name;         ///< Best-effort name for disassembly.
  /// True when a self-tail-call into this block may overwrite the caller's
  /// environment node in place: the block contains no MkClosure (nothing
  /// can capture the entry node mid-iteration) and no MonPre/MonPost
  /// (annotated blocks keep paper-exact allocation so probe-observed
  /// environments are never mutated retroactively). Computed by
  /// `markReusableFrames` after fusion.
  bool ReusableFrame = false;
  /// False when the block is a lambda inside the bound expression of a
  /// letrec whose binder no live code refers to (compileProgram's
  /// liveness pass). Such a block is still compiled and its closure still
  /// built, but the native tier emits no code for it: if it is ever
  /// entered, the register interpreter runs it.
  bool Live = true;
};

/// A monitoring probe site: the annotation and the annotated expression
/// (needed to build MonitorEvents at run time).
struct ProbeSite {
  const Annotation *Ann;
  const Expr *Inner;
};

struct CompiledProgram {
  std::vector<CodeBlock> Blocks; ///< Blocks[0] is the entry.
  /// Constant pool. String constants reference the AstContext that owns the
  /// source AST, which must outlive the compiled program.
  std::vector<Value> ConstPool;
  /// Backing store for constants that do not fit a Value immediate (int64s
  /// outside the 48-bit inline range). Lives as long as the program.
  Arena ConstArena;
  std::vector<Symbol> Names;     ///< Binder names for PushRecEnv.
  std::vector<ProbeSite> Probes;
  bool Instrumented = false;

  size_t numInstructions() const {
    size_t N = 0;
    for (const CodeBlock &B : Blocks)
      N += B.Code.size();
    return N;
  }

  /// Human-readable disassembly (tests, debugging).
  std::string disassemble() const;
};

// VMClosure (the bytecode closure these programs allocate) is defined in
// semantics/Value.h alongside the other heap object layouts.

} // namespace monsem

#endif // MONSEM_COMPILE_BYTECODE_H
