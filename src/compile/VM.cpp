//===- compile/VM.cpp ------------------------------------------------------===//

#include "compile/VM.h"

#include "compile/AotEmit.h"
#include "compile/Compiler.h"

#include <iostream>
#include <mutex>

using namespace monsem;

RunResult monsem::runCompiled(const CompiledProgram &Program,
                              MonitorHooks *Hooks, RunOptions Opts) {
  return runRegisterProgram(RegProgram(Program), Hooks, Opts);
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
  RegProgram RP(*CP);
  // Native tier on top: load (emit + compile + cache) the leaf-block
  // library; any reason it cannot be used — no C compiler, a failed
  // compile — degrades to the register interpreter with identical
  // answers and output, and one warning per process on stderr.
  std::shared_ptr<const AotLibrary> AotLib;
  if (Opts.VMAot) {
    std::string WhyNot;
    AotLib = aotLoad(RP, Opts.AotCacheDir, &WhyNot);
    static std::once_flag Warned;
    if (!AotLib)
      std::call_once(Warned, [&] {
        std::cerr << "warning: vm-aot unavailable (" << WhyNot
                  << "); running on vm-reg\n";
      });
  }
  auto Run = [&](MonitorHooks *H) {
    if (AotLib)
      return runAotProgram(RP, *AotLib, H, Opts);
    return runRegisterProgram(RP, H, Opts);
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
