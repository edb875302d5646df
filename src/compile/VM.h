//===- compile/VM.h - Bytecode virtual machine ------------------*- C++ -*-===//
///
/// \file
/// Executes compiled (optionally instrumented) programs. Strict semantics
/// only — the bytecode is the residual of specializing the *strict*
/// monitored interpreter with respect to a program (Section 9.1); the lazy
/// language modules run on the CEK machine.
///
/// One executor runs every compiled program: the register tier
/// (compile/RegVM.cpp, with the native leaf blocks of compile/AotRun.cpp on
/// top). Compiled programs are register code; checkpoints spill its
/// windows to the canonical flat-operand-stack form.
///
/// Monitoring probes dispatch through the same MonitorHooks interface as
/// the CEK machine, so any toolbox monitor/cascade runs unchanged on
/// instrumented bytecode, and the soundness property carries over (probes
/// cannot touch the operand registers).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_COMPILE_VM_H
#define MONSEM_COMPILE_VM_H

#include "compile/Bytecode.h"
#include "interp/Machine.h" // RunResult, RunOptions
#include "monitor/Cascade.h"

namespace monsem {

/// Runs \p Program on the register tier. \p Hooks may be null (standard
/// semantics). Honors RunOptions::MaxSteps/Limits, Algebra and
/// ReuseTailFrames (self-tail-call env reuse); the strategy is always
/// strict. Each instruction advances the step counter by its Cost (its
/// source-step count), so fused and unfused programs report identical
/// step counts.
RunResult runCompiled(const CompiledProgram &Program,
                      MonitorHooks *Hooks = nullptr, RunOptions Opts = {});

/// Runs the register view of a compiled program. Same contract as
/// runCompiled. \p RP.Src must outlive the run.
RunResult runRegisterProgram(const RegProgram &RP,
                             MonitorHooks *Hooks = nullptr,
                             RunOptions Opts = {});

/// Convenience: compile-and-run under a cascade, mirroring
/// evaluate(Cascade, Expr). Validates disjointness first. Under
/// RunOptions::VMAot, a program the native tier cannot load runs on the
/// register interpreter, and the first such run in the process prints
/// `warning: vm-aot unavailable (<reason>); running on vm-reg` on stderr.
RunResult evaluateCompiled(const Cascade &C, const Expr *Program,
                           RunOptions Opts = {});

} // namespace monsem

#endif // MONSEM_COMPILE_VM_H
