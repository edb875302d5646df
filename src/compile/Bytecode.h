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
/// Here that residual program is register bytecode: one pass over the
/// annotated AST emits straight-line three-address instructions, and a
/// per-block finish step fuses superinstructions and fixes the register
/// layout; `MonPre`/`MonPost` instructions appear exactly at annotation
/// sites. Compiling with instrumentation disabled
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

/// Operand packing for the fused *Prim2 instructions: the prim2 opcode in
/// the low byte of B; VarConstPrim2 and VarVarPrim2 also keep their left
/// variable's binder depth (as the source counts it, before the leaf
/// rewrite below) in the high byte, so it must fit kMaxPackedDepth.
inline constexpr uint32_t kMaxPackedDepth = 0xFF;
/// The deepest second variable VarVar fuses.
inline constexpr uint32_t kMaxSecondaryVar = 0xFFFF;

inline uint16_t packOpDepth(uint8_t PrimOp, uint32_t Depth) {
  return static_cast<uint16_t>(PrimOp | (Depth << 8));
}
inline uint8_t unpackPrimOp(uint16_t B) { return static_cast<uint8_t>(B); }
inline uint32_t unpackDepth(uint16_t B) { return B >> 8; }

/// Three-address register opcodes, the one instruction form compiled
/// programs have. compileProgram emits them directly: it knows the static
/// operand-stack height `h` before every instruction (control flow inside
/// a block is forward-only; loops exist only via calls), so the value
/// pushed at height h always lives in register TempBase + h of the frame
/// window, and every push and pop is an explicit register index.
///
/// Each instruction is one step of the residual program at its (block, pc)
/// coordinate: step counts, governor pause points, probe positions and
/// checkpoint coordinates are all counted in these instructions.
/// `CompiledProgram::disassemble` spells them in the stack notation the
/// checkpoint fingerprint hashes.
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

  // Fused superinstructions. Each replaces the adjacent pair (or triple)
  // of the opcodes it is named after; the compiler's finish step
  // (`finishBlock`) produces them, never the emitter. Every fused
  // instruction performs its constituents' checks in the original order,
  // so error messages and failure points are bit-identical to the unfused
  // program, and its Cost is the sum of theirs. None of them may span a
  // MonPre/MonPost probe: no fusion rule mentions probes, so annotated
  // sites keep the paper-exact instruction sequence (Definition 7.1
  // obliviousness).
  VarVar,           ///< r[D] = varref S1; r[D+1] = varref S2
  VarPrim2,         ///< r[D] = prim2<B.op>(r[S1], varref S2)
  ConstPrim2,       ///< r[D] = prim2<B.op>(r[S1], pool[A])
  VarConstPrim2,    ///< r[D] = prim2<B.op>(varref S1, pool[A])
  VarVarPrim2,      ///< r[D] = prim2<B.op>(varref S1, varref S2)
  Prim2JumpIfFalse, ///< pc = A unless prim2<B.op>(r[S1], r[S2])
  VarCall,          ///< fn = varref S2, arg = r[S1]; result in r[D]
  VarTailCall,      ///< fn = varref S2, arg = r[S1]; tail-invoke
};

/// Number of opcodes, fused included. Dispatch tables, the emitter and the
/// disassemblers static_assert against this so a new opcode cannot be
/// added without updating every consumer.
inline constexpr unsigned kNumROps =
    static_cast<unsigned>(ROp::VarTailCall) + 1;

/// A variable reference operand (`varref` above): either an environment
/// depth, or — in leaf blocks, where the parameter lives in register 0
/// instead of an environment node — the sentinel kParamReg naming that
/// register; a source depth d >= 1 there becomes environment depth d-1
/// against the closure's captured chain. Parameters are never
/// uninitialized, so the register path skips the letrec
/// before-initialization check the env path performs.
inline constexpr uint16_t kParamReg = 0xFFFF;

/// The largest register index a window may use, so the static operand
/// stack of one block holds at most kMaxRegister - 1 values (a leaf block
/// keeps its parameter in register 0, below the temporaries).
/// compileProgram refuses programs that need more, and binder depths of
/// kParamReg or more, so every operand it emits fits the encoding.
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
///  - `A` is the constant index, block index, jump target, prim op, name
///    or probe index; `B` the packed prim2 op of the fused *Prim2 family.
///  - `Cost` is the number of source-machine steps the instruction
///    represents (1 for core ops, the sum of its constituents for fused
///    ops). The step counter advances by Cost, so monitored step counts,
///    governor fuel accounting and bench step-parity assertions are
///    identical fused vs. unfused at every instruction boundary.
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

/// One compiled lambda (or the program entry). `Leaf` blocks (no
/// MkClosure, no PushRecEnv, no probes; never the entry block) keep their
/// parameter in register 0 and allocate no environment node per call — the
/// environment chain is materialized on demand only at checkpoint
/// safepoints. Non-leaf blocks maintain the full environment chain, one
/// node per binder, so probes observe the paper's environment unchanged.
struct CodeBlock {
  // The fields the executors read per call come first, in the first
  // cache line.
  std::vector<RInstr> Code;
  /// Entry operand-stack height per pc (kDeadHeight for unreachable pcs).
  /// Used by checkpoint spill/restore to map register windows to the
  /// canonical flat operand stack and back.
  std::vector<uint16_t> Height;
  /// Registers per frame window: locals (1 in leaf blocks, 0 otherwise)
  /// plus the block's maximal temporary count.
  uint32_t NumRegs = 0;
  uint32_t TempBase = 0; ///< First temporary register (1 in leaf blocks).
  bool Leaf = false;
  /// False when the block is a lambda inside the bound expression of a
  /// letrec whose binder no live code refers to (compileProgram's
  /// liveness pass). Such a block is still compiled and its closure still
  /// built, but the native tier emits no code for it: if it is ever
  /// entered, the register interpreter runs it.
  bool Live = true;
  /// True when a self-tail-call into this block may overwrite the caller's
  /// environment node in place: the block contains no MkClosure (nothing
  /// can capture the entry node mid-iteration) and no MonPre/MonPost
  /// (annotated blocks keep paper-exact allocation so probe-observed
  /// environments are never mutated retroactively).
  bool ReusableFrame = false;
  /// A *currier*: a non-entry block whose whole body is `MkClosure k; Ret`
  /// — the shape curried definitions (`\x. \y. ...`) compile to for every
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
  Symbol Param;     ///< Binder for Call (empty for the entry block).
  std::string Name; ///< Best-effort name for disassembly.
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

  /// The listing in stack notation (`--disasm --backend=vm`): one line per
  /// instruction, pushes and pops implicit, variables as binder depths.
  /// Its hash is the checkpoint program fingerprint, so its text is part
  /// of the checkpoint format.
  std::string disassemble() const;
};

/// The register-tier view of a compiled program: what the executors and
/// the native emitter take. It borrows the program (Src), which must
/// outlive it; making one costs nothing.
struct RegProgram {
  explicit RegProgram(const CompiledProgram &P) : Src(&P), Blocks(P.Blocks) {}

  const CompiledProgram *Src;
  const std::vector<CodeBlock> &Blocks;

  /// The listing in register notation (`--disasm --backend=vm-reg`).
  std::string disassemble() const;
};

// VMClosure (the bytecode closure these programs allocate) is defined in
// semantics/Value.h alongside the other heap object layouts.

} // namespace monsem

#endif // MONSEM_COMPILE_BYTECODE_H
