//===- compile/Compiler.h - AST -> bytecode ---------------------*- C++ -*-===//
///
/// \file
/// Compiles an (annotated) L_lambda program to bytecode. See Bytecode.h for
/// the role this plays in the paper's specialization pipeline.
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
  /// Emit TailCall for calls in tail position.
  bool TailCalls = true;
  /// Run the peephole superinstruction fusion pass after emission.
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

/// Peephole pass: rewrites hot adjacent instruction pairs into the fused
/// superinstructions of Bytecode.h. Jump-target aware (never fuses a pair
/// whose second instruction is a branch target) and probe-transparent (no
/// rule matches MonPre/MonPost, so probes break every fusion window).
/// Returns the number of pairs fused. Exposed for tests; compileProgram
/// runs it when CompileOptions::Fuse is set.
size_t fuseSuperinstructions(CompiledProgram &P);

/// Computes CodeBlock::ReusableFrame for every block (no MkClosure, no
/// probes). Run after fusion by compileProgram; exposed for tests.
void markReusableFrames(CompiledProgram &P);

/// Lowers a compiled (optionally fused) program to the register tier: a
/// block-local allocator maps each stack slot to a fixed virtual register
/// from the static stack height at every pc, producing exactly one RInstr
/// per stack instruction at the same (block, pc) with the same Cost. The
/// returned program borrows \p P (constants, names, probes), which must
/// outlive it. Never returns nullptr for a program compileProgram
/// produced; hand-built bytecode with inconsistent stack heights or
/// operands beyond the register encoding gets nullptr.
std::unique_ptr<RegProgram> lowerToRegisters(const CompiledProgram &P);

} // namespace monsem

#endif // MONSEM_COMPILE_COMPILER_H
