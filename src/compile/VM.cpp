//===- compile/VM.cpp ------------------------------------------------------===//

#include "compile/VM.h"

#include "compile/AotEmit.h"
#include "compile/Compiler.h"

using namespace monsem;

/// compileProgram never emits bytecode the lowering refuses (it rejects
/// programs whose operand stack or binder depth the register encoding
/// cannot hold), so only hand-built bytecode gets this result.
static RunResult loweringError() {
  RunResult R;
  R.setOutcome(Outcome::Error);
  R.Error = "bytecode cannot be lowered to the register tier (inconsistent "
            "stack heights, or operands beyond the register encoding)";
  return R;
}

RunResult monsem::runCompiled(const CompiledProgram &Program,
                              MonitorHooks *Hooks, RunOptions Opts) {
  std::unique_ptr<RegProgram> RP = lowerToRegisters(Program);
  if (!RP)
    return loweringError();
  return runRegisterProgram(*RP, Hooks, Opts);
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
  // Every compiled program runs on the register tier.
  std::unique_ptr<RegProgram> RP = lowerToRegisters(*CP);
  if (!RP)
    return loweringError();
  // Native tier on top of the lowering: load (emit + compile + cache) the
  // leaf-block library; any reason it cannot be used — no C compiler,
  // nothing eligible — degrades to the register interpreter
  // with identical observable behavior.
  std::shared_ptr<const AotLibrary> AotLib;
  if (Opts.VMAot)
    AotLib = aotLoad(*RP, Opts.AotCacheDir, nullptr);
  auto Run = [&](MonitorHooks *H) {
    if (AotLib)
      return runAotProgram(*RP, *AotLib, H, Opts);
    return runRegisterProgram(*RP, H, Opts);
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
