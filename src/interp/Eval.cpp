//===- interp/Eval.cpp -----------------------------------------------------===//

#include "interp/Eval.h"

#include "compile/VM.h"
#include "interp/Direct.h"

using namespace monsem;

std::unique_ptr<ParsedProgram> ParsedProgram::parse(std::string_view Source,
                                                    ParseOptions Opts) {
  auto P = std::make_unique<ParsedProgram>();
  P->Root = parseProgram(P->Ctx, Source, P->Diags, Opts);
  return P;
}

RunResult monsem::evaluate(const Expr *Program, RunOptions Opts) {
  DurabilityTracker Tracker(Opts.DurabilityPolicy, Opts.DurabilityRetryBudget);
  armDurabilityTracker(Opts, Tracker);
  armJournalCheckpointSink(Opts);
  StandardMachine M(Program, Opts);
  RunResult R = M.run();
  R.DurabilityFaults = Opts.Durability->takeFaults();
  return R;
}

/// Monitoring semantics with \p C instantiated over \p Program. Internal:
/// the public surface is evaluate(EvalMode, Expr*) — EvalMode::runOptions()
/// is the single options constructor (a Cascade converts implicitly to an
/// EvalMode, so `evaluate(C & maxSteps(n), e)` is the spelling).
static RunResult evaluateMonitored(const Cascade &C, const Expr *Program,
                                   RunOptions Opts) {
  if (C.empty())
    return evaluate(Program, Opts);
  DurabilityTracker Tracker(Opts.DurabilityPolicy, Opts.DurabilityRetryBudget);
  armDurabilityTracker(Opts, Tracker);
  armJournalCheckpointSink(Opts);

  DiagnosticSink Diags;
  if (!C.validateFor(Program, Diags)) {
    RunResult R;
    R.setOutcome(Outcome::Error);
    R.Error = Diags.str();
    return R;
  }

  // Hook chain, outermost first: journal -> event tap -> cascade. Both
  // decorators render events with the same canonical text, so the tapped
  // and journaled streams are byte-identical.
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
  MonitoredMachine M(Program, Opts, DynamicMonitorPolicy{Hooks});
  RunResult R = M.run();
  R.FinalStates = RC.takeStates();
  R.MonitorFaults = RC.takeFaults();
  R.DurabilityFaults = Opts.Durability->takeFaults();
  return R;
}

static RunResult errorResult(std::string Msg) {
  RunResult R;
  R.setOutcome(Outcome::Error);
  R.Error = std::move(Msg);
  return R;
}

RunResult monsem::evaluate(const EvalMode &Mode, const Expr *Program) {
  RunOptions Opts = Mode.runOptions();
  switch (Mode.B) {
  case Backend::CEK:
    return evaluateMonitored(Mode.C, Program, Opts);

  case Backend::VM: // An alias of VMRegister.
  case Backend::VMRegister:
    if (Opts.Strat != Strategy::Strict)
      return errorResult("the VM backend is strict-only; drop kVMReg or "
                         "the lazy strategy tag");
    // evaluateCompiled validates disjointness itself.
    return evaluateCompiled(Mode.C, Program, Opts);

  case Backend::VMAot:
    if (Opts.Strat != Strategy::Strict)
      return errorResult("the VM backend is strict-only; drop kVMAot or "
                         "the lazy strategy tag");
    Opts.VMAot = true;
    return evaluateCompiled(Mode.C, Program, Opts);

  case Backend::Direct: {
    if (Opts.ResumeFrom)
      return errorResult("checkpoint/resume requires the CEK or VM backend; "
                         "drop kDirect");
    // runDirect assumes a validated cascade; validate here like the other
    // backends do.
    if (!Mode.C.empty()) {
      DiagnosticSink Diags;
      if (!Mode.C.validateFor(Program, Diags))
        return errorResult(Diags.str());
    }
    DirectOptions D;
    D.Strat = Opts.Strat;
    // The direct interpreter's call budget doubles as its fuel and depth
    // bound.
    if (Mode.Limits.MaxSteps)
      D.CallBudget = Mode.Limits.MaxSteps;
    D.Limits = Mode.Limits;
    D.MonitorFaultPolicy = Mode.MonitorFaultPolicy;
    D.MonitorRetryBudget = Mode.MonitorRetryBudget;
    return runDirect(Program, Mode.C.empty() ? nullptr : &Mode.C, D);
  }
  }
  return errorResult("unknown backend");
}

std::string monsem::describeStates(const Cascade &C, const RunResult &R) {
  std::string Out;
  for (unsigned I = 0; I < C.size() && I < R.FinalStates.size(); ++I) {
    Out += C.monitor(I).name();
    Out += ": ";
    Out += R.FinalStates[I]->str();
    Out += '\n';
  }
  return Out;
}
