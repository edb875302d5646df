//===- compile/Compiler.h - AST -> register bytecode ------------*- C++ -*-===//
///
/// \file
/// Compiles an (annotated) L_lambda program to register bytecode. See
/// Bytecode.h for the role this plays in the paper's specialization
/// pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_COMPILE_COMPILER_H
#define MONSEM_COMPILE_COMPILER_H

#include "compile/Bytecode.h"
#include "support/Diagnostics.h"

#include <memory>

namespace monsem {

struct CompileOptions {
  /// Emit MonPre/MonPost probes at annotation sites. With instrumentation
  /// off, annotations compile to nothing — the standard semantics'
  /// obliviousness (Definition 7.1) performed at compile time.
  bool Instrument = true;
  /// Fuse superinstructions in each block's finish step.
  bool Fuse = true;
};

/// Compiles \p Program. Returns nullptr (with diagnostics) for programs
/// with unbound non-primitive variables, for programs that share syntax
/// nodes (kSharedNodesError; see analysis/Resolver.h), and for programs
/// the register tier cannot encode: more than kMaxOperandStack pending
/// operands in one block, or a variable kParamReg or more binders out.
std::unique_ptr<CompiledProgram> compileProgram(const Expr *Program,
                                                DiagnosticSink &Diags,
                                                CompileOptions Opts = {});

/// The finish step compileProgram runs on every block once its body is
/// emitted. On input, each instruction carries its opcode, Cost and A/B
/// operands, with variable references as binder depths (Var in S1), and
/// Height[pc] is the static operand-stack height before it. The step
///  1. fuses hot adjacent pairs into the superinstructions of Bytecode.h
///     when \p Fuse (jump-target aware: never fuses a pair whose second
///     instruction is a branch target; probe-transparent: no rule matches
///     MonPre/MonPost),
///  2. marks unreachable pcs kDeadHeight (the entry block's final Halt is
///     reachable through the sentinel frame),
///  3. picks the leaf convention for non-entry blocks without MkClosure,
///     PushRecEnv or probes, and assigns every register operand from the
///     height, and
///  4. sets NumRegs, the currier mark and ReusableFrame.
/// Returns the number of pairs fused. Exposed for tests that hand-build
/// code.
size_t finishBlock(CodeBlock &B, bool IsEntry, bool Fuse);

/// The register view of \p P: O(1), no copy; \p P must outlive it.
/// Compiled programs are register code already, so this does no work; it
/// is kept for embedders that hold a RegProgram by pointer.
std::unique_ptr<RegProgram> lowerToRegisters(const CompiledProgram &P);

} // namespace monsem

#endif // MONSEM_COMPILE_COMPILER_H
