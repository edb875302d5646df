//===- compile/VM.h - Bytecode virtual machine ------------------*- C++ -*-===//
///
/// \file
/// Executes compiled (optionally instrumented) programs. Strict semantics
/// only — the VM is the residual of specializing the *strict* monitored
/// interpreter with respect to a program (Section 9.1); the lazy language
/// modules run on the CEK machine.
///
/// Monitoring probes dispatch through the same MonitorHooks interface as
/// the CEK machine, so any toolbox monitor/cascade runs unchanged on
/// instrumented bytecode, and the soundness property carries over (probes
/// cannot touch the value stack).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_COMPILE_VM_H
#define MONSEM_COMPILE_VM_H

#include "compile/Bytecode.h"
#include "interp/Machine.h" // RunResult, RunOptions
#include "monitor/Cascade.h"

namespace monsem {

/// Runs \p Program on the VM. \p Hooks may be null (standard semantics).
/// Honors RunOptions::MaxSteps/Limits, Algebra and ReuseTailFrames
/// (self-tail-call env reuse);
/// the strategy is always strict. Each instruction advances the step
/// counter by its Cost (its source-step count), so fused and unfused
/// programs report identical step counts.
RunResult runCompiled(const CompiledProgram &Program,
                      MonitorHooks *Hooks = nullptr, RunOptions Opts = {});

/// Runs a lowered program on the register VM. Same contract as
/// runCompiled — identical step counts, probe streams, and checkpoint
/// format (MSCK checkpoints are portable across the stack and register
/// tiers in both directions) — with register windows instead of an
/// operand stack. \p RP.Src must outlive the run.
RunResult runRegisterProgram(const RegProgram &RP,
                             MonitorHooks *Hooks = nullptr,
                             RunOptions Opts = {});

/// Convenience: compile-and-run under a cascade, mirroring
/// evaluate(Cascade, Expr). Validates disjointness first.
RunResult evaluateCompiled(const Cascade &C, const Expr *Program,
                           RunOptions Opts = {});

} // namespace monsem

#endif // MONSEM_COMPILE_VM_H
