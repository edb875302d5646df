//===- interp/Machine.h - CEK machine for L_lambda --------------*- C++ -*-===//
///
/// \file
/// The production evaluator: a trampolined CEK machine that is a
/// defunctionalized form of the paper's continuation semantics.
///
/// Standard semantics (Fig. 2): every transition below is one clause of
/// G_lambda. Continuations are explicit frame chains in the run's arena, so
/// the machine never grows the C stack; the paper's application order —
/// operand before operator — is preserved.
///
/// Monitoring semantics (Fig. 3, Definition 4.2): the single extra clause
/// for `{mu}: e` runs updPre on the monitor state, pushes a MonPost frame
/// (the kappa_post continuation), and evaluates e; when a value returns to
/// a MonPost frame, updPost runs and the value continues unchanged. With
/// monitoring disabled the clause reduces to evaluating e — the oblivious
/// functional G_obl of Definition 7.1.
///
/// The machine is specialized at two levels (Section 9.1):
///
///  * a monitor *policy* (level 1, the template parameter): instantiating
///    the machine with a concrete, statically known monitor removes the
///    interpretive overhead of monitor dispatch, exactly as specializing
///    the parameterized interpreter with respect to a monitor
///    specification does. `NoMonitorPolicy` (standard semantics) and
///    `DynamicMonitorPolicy` (cascade chosen at run time) are provided;
///    benchmarks instantiate further policies.
///
///  * the program (level 2): the machine resolves its program once
///    (analysis/Resolver.h, through the process-wide cache) and runs it on
///    flat, array-backed environment frames — variable references index
///    frames directly instead of scanning a named chain, and coalesced
///    letrec binders write slots of the current frame instead of
///    allocating. Monitors still see named bindings through EnvView, so
///    Thm. 7.7 soundness is representation-invariant. Only trees resolve:
///    a program with shared AST nodes is refused with an error, never run.
///
/// The reference for this machine is the functional it defunctionalizes,
/// interp/Direct.h, at every strategy.
///
/// Popped continuation frames are recycled through a free list (frames are
/// strictly LIFO — the language has no first-class continuations — so a
/// popped frame can never be referenced again); the hot loop then touches
/// a handful of cache lines instead of streaming through the arena.
///
/// Three evaluation strategies (Section 9.2's "language modules"): strict,
/// call-by-name, and call-by-need.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_INTERP_MACHINE_H
#define MONSEM_INTERP_MACHINE_H

#include "analysis/Resolver.h"
#include "monitor/FaultIsolation.h"
#include "monitor/Hooks.h"
#include "semantics/Answer.h"
#include "semantics/ValueGraph.h"
#include "support/Checkpoint.h"
#include "support/Durability.h"
#include "support/FailPoint.h"
#include "support/Governor.h"
#include "semantics/Primitives.h"
#include "semantics/Value.h"
#include "syntax/Ast.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace monsem {

enum class Strategy : uint8_t { Strict, CallByName, CallByNeed };

const char *strategyName(Strategy S);

struct RunOptions {
  Strategy Strat = Strategy::Strict;
  /// 0 = unlimited. Each machine transition costs one unit.
  uint64_t MaxSteps = 0;
  /// The answer algebra phi used by the initial continuation (Section 3.1).
  const AnswerAlgebra *Algebra = &StdAnswerAlgebra::instance();
  /// Resource budget beyond fuel: deadline, arena cap, depth bound,
  /// cooperative cancellation. Limits.MaxSteps supersedes MaxSteps above
  /// when nonzero.
  ResourceLimits Limits;
  /// Run-wide default for what happens when a monitor hook throws;
  /// per-monitor overrides come from Cascade::use(M, Policy).
  FaultPolicy MonitorFaultPolicy = FaultPolicy::Quarantine;
  /// Faults tolerated per monitor under RetryThenQuarantine.
  unsigned MonitorRetryBudget = 3;
  /// Reuse the caller's environment frame on self-tail-calls (CEK machine
  /// and VM): `down 100000`-style loops run in O(1) arena bytes.
  /// Answers and step counts are unchanged; only arena accounting differs.
  bool ReuseTailFrames = true;
  /// Compiled programs only: run leaf blocks as native code compiled by the
  /// system C compiler (`--backend=vm-aot`). Degrades to the register
  /// interpreter when no compiler is available or the program has no
  /// eligible blocks; observable behavior is identical either way.
  bool VMAot = false;
  /// Cache directory for vm-aot shared objects; "" selects the per-user
  /// default under TMPDIR (see compile/AotEmit.h).
  std::string AotCacheDir;
  /// Resume from this checkpoint instead of starting fresh. The checkpoint
  /// must match the run's configuration (backend, strategy, monitored-ness,
  /// program fingerprint); a mismatch yields an error result without
  /// running. The pointee must outlive the run. The resumed run continues
  /// the cumulative step counter but gets a fresh budget (fuel/checkpoint
  /// boundaries measure steps since resume).
  const Checkpoint *ResumeFrom = nullptr;
  /// Where emitted checkpoints go (a file, a journal, a test buffer).
  /// Null disables all checkpoint capture.
  std::function<void(const Checkpoint &)> CheckpointSink;
  /// Emit a final checkpoint when the governor stops the run (fuel,
  /// deadline, memory, depth, cancellation) so it can be resumed.
  bool CheckpointOnStop = false;
  /// Emit a periodic checkpoint every N steps (0 = off). Folded into the
  /// governor's pause schedule, so the hot loop stays one compare per step.
  uint64_t CheckpointEveryNSteps = 0;
  /// In-process observer of every probe event, called with (step, text)
  /// where the text is the canonical journal rendering (probePreText /
  /// probePostText), so a tapped stream is byte-identical to a journaled
  /// one. The driver wraps the run's hooks in EventTapHooks; `monsem
  /// serve` uses this to stream probe batches to clients. Null = off.
  std::function<void(uint64_t Step, const std::string &Text)> EventSink;
  /// Append every probe event to this crash-safe journal (the driver wraps
  /// the run's hooks in JournalingHooks). Null disables journaling. The
  /// pointee must outlive the run.
  Journal *RunJournal = nullptr;
  /// What happens when a durable sink (journal append, checkpoint save)
  /// fails: abort the run, degrade the sink to best-effort immediately, or
  /// (default) tolerate DurabilityRetryBudget failures before degrading.
  /// See support/Durability.h.
  OnDurabilityFailure DurabilityPolicy = OnDurabilityFailure::RetryThenDegrade;
  /// Sink failures tolerated under RetryThenDegrade before demotion.
  unsigned DurabilityRetryBudget = 3;
  /// Failpoint plan installed (process-globally) by the driver before the
  /// run; empty = none. See support/FailPoint.h for the spec syntax.
  std::string FailPointSpec;
  /// The run's durability arbiter. Drivers leave this null and get a
  /// per-run tracker configured from the two fields above; embedders (the
  /// CLI) may install their own so sinks they construct can report into it.
  /// The pointee must outlive the run.
  DurabilityTracker *Durability = nullptr;
};

/// When \p O has a journal armed, rewrite its CheckpointSink so every
/// emitted checkpoint is appended to the journal first (each append is
/// flushed, so the checkpoint is durable even if the original sink never
/// persists it), then forwarded to the original sink if there was one.
/// Installing a sink also arms the periodic-checkpoint schedule, so
/// journaled runs get durable checkpoints by default. Drivers call this
/// once per run, before handing the options to a machine.
inline void armJournalCheckpointSink(RunOptions &O) {
  if (!O.RunJournal)
    return;
  Journal *J = O.RunJournal;
  DurabilityTracker *DT = O.Durability;
  O.CheckpointSink = [J, DT, User = std::move(O.CheckpointSink)](
                         const Checkpoint &CK) {
    if (DT && DT->degraded("checkpoint"))
      return;
    if (!J->appendCheckpoint(CK.bytes()) && DT)
      DT->report("checkpoint", J->error(), CK.header().SavedSteps);
    if (User)
      User(CK);
  };
}

/// Points the run at \p T unless an embedder already installed a tracker,
/// and installs the RunOptions failpoint plan (process-global; see
/// support/FailPoint.h). Drivers call this once per run, before
/// armJournalCheckpointSink.
inline void armDurabilityTracker(RunOptions &O, DurabilityTracker &T) {
  if (!O.Durability)
    O.Durability = &T;
  if (!O.FailPointSpec.empty()) {
    // The spec was validated where it entered (CLI flag, combinator); a
    // malformed one here degenerates to "no failpoints", never to UB.
    std::string Err;
    installFailPoints(O.FailPointSpec, Err);
  }
}

/// The final answer: the paper's <alpha, sigma'> pair. `ValueText` is
/// phi(alpha); typed accessors are provided for test convenience. Monitor
/// states are attached by the driver (see Eval.h), not by the machine.
struct RunResult {
  /// How the run ended; the single source of truth. `Ok` and
  /// `FuelExhausted` below are mirrors kept for the (many) callers that
  /// predate the Outcome enum — always set St through setOutcome().
  Outcome St = Outcome::Error;
  bool Ok = false;
  bool FuelExhausted = false;
  std::string Error;
  std::string ValueText;
  std::optional<int64_t> IntValue;
  std::optional<bool> BoolValue;
  uint64_t Steps = 0;
  /// Arena bytes the run allocated. Informational (benchmarks, the
  /// tail-reuse O(1) assertions); ignored by sameOutcome because it is a
  /// property of the representation and optimization level, not of the
  /// semantics.
  uint64_t ArenaBytes = 0;
  std::vector<std::unique_ptr<MonitorState>> FinalStates;
  /// Faults the monitor fault boundary recorded (see FaultIsolation.h).
  /// Non-empty MonitorFaults with St == Ok means quarantine kept the run
  /// alive; the FinalStates of quarantined monitors are partial.
  std::vector<MonitorFault> MonitorFaults;
  /// Failures of the durable sinks (journal, checkpoint). Non-empty with
  /// St == Ok means a degradation policy kept the run alive without full
  /// durability; under Abort the first fault also ends the run with
  /// St == Error. See support/Durability.h.
  std::vector<DurabilityFault> DurabilityFaults;

  void setOutcome(Outcome O) {
    St = O;
    Ok = O == Outcome::Ok;
    FuelExhausted = O == Outcome::FuelExhausted;
  }

  /// True when the governor (not the program) stopped the run.
  bool stoppedByGovernor() const { return isGovernanceStop(St); }

  /// True when two runs produced the same observable outcome.
  bool sameOutcome(const RunResult &O) const {
    if (St != O.St)
      return false;
    if (St == Outcome::Ok)
      return ValueText == O.ValueText;
    if (St == Outcome::Error)
      return Error == O.Error;
    return true; // Same governance stop.
  }
};

//===----------------------------------------------------------------------===//
// Monitor policies (level-1 specialization points)
//===----------------------------------------------------------------------===//

/// Standard semantics: annotations are skipped (G_obl of Definition 7.1).
struct NoMonitorPolicy {
  static constexpr bool Enabled = false;
  void pre(const Annotation &, const Expr &, EnvView, uint64_t, uint64_t) {}
  void post(const Annotation &, const Expr &, EnvView, Value, uint64_t,
            uint64_t) {}
};

/// Monitoring semantics with the cascade chosen at run time.
struct DynamicMonitorPolicy {
  static constexpr bool Enabled = true;
  MonitorHooks *Hooks = nullptr;
  void pre(const Annotation &Ann, const Expr &E, EnvView Env, uint64_t Step,
           uint64_t Bytes) {
    Hooks->pre(Ann, E, Env, Step, Bytes);
  }
  void post(const Annotation &Ann, const Expr &E, EnvView Env, Value V,
            uint64_t Step, uint64_t Bytes) {
    Hooks->post(Ann, E, Env, V, Step, Bytes);
  }
};

//===----------------------------------------------------------------------===//
// The machine
//===----------------------------------------------------------------------===//

namespace detail {

/// A defunctionalized continuation frame. One allocation per pending
/// sub-evaluation (amortized away by the free list); frames are immutable
/// once pushed — patching happens in environments/Thunks, never frames.
struct Frame {
  enum class Kind : uint8_t {
    Halt,
    EvalFn,     ///< Operand evaluated; evaluate the operator (paper order).
    Apply,      ///< Operator evaluated; apply it to the stored argument.
    Branch,     ///< Conditional scrutinee evaluated; pick a branch.
    LetrecBind, ///< Bound expression evaluated; tie the knot, run the body.
    Prim2Rhs,   ///< Left prim operand evaluated; evaluate the right one.
    Prim2Apply, ///< Both prim operands evaluated; apply the primitive.
    Prim1Apply, ///< Prim operand evaluated; apply the primitive.
    MonPost,    ///< kappa_post of Definition 4.2: run updPost, pass value on.
    UpdateThunk ///< Memoize a forced thunk (call-by-need).
  };

  Kind K;
  uint8_t Op = 0;           ///< Prim1Op/Prim2Op for primitive frames.
  uint32_t Idx = 0;         ///< LetrecBind slot index; tail-position flag
                            ///< for EvalFn/Apply (the application site's
                            ///< AppExpr::TailPos).
  const Expr *E1 = nullptr; ///< Pending expression (EvalFn/Branch/...).
  const Expr *E2 = nullptr; ///< Else branch (Branch).
  EnvFrame *Env = nullptr; ///< Environment for the pending evaluation; also
                           ///< the knot-tying target of LetrecBind (the
                           ///< frame whose slot Idx to write).
  Value V;             ///< Stored intermediate value.
  const Annotation *Ann = nullptr; ///< MonPost.
  Thunk *Th = nullptr;             ///< UpdateThunk.
  Frame *Next = nullptr;
};

} // namespace detail

/// One program execution. Owns the run's arena; `run()` drives the
/// transition loop to a final answer. The machine resolves \p Program
/// itself through resolveProgramCached — once per tree, process-wide, so
/// concurrent runs sharing a program never race on the annotations — and
/// run() refuses a program that does not resolve (shared AST nodes).
template <typename Policy> class MachineT {
public:
  MachineT(const Expr *Program, RunOptions Opts, Policy P = Policy())
      : Program(Program), Opts(Opts), Pol(P),
        Res(resolveProgramCached(Program)) {}

  RunResult run();

  /// Bytes the run allocated (diagnostics/benchmarks).
  size_t arenaBytes() const { return A.bytesAllocated(); }

private:
  using Frame = detail::Frame;
  using FK = Frame::Kind;

  Frame *mkFrame(FK K, Frame *Next) {
    ++KontDepth;
    Frame *F = FreeList;
    if (F)
      FreeList = F->Next;
    else
      F = A.create<Frame>();
    F->K = K;
    F->Next = Next;
    return F;
  }

  /// Returns a popped frame to the free list. Sound because continuation
  /// frames are strictly LIFO: nothing else ever holds a frame pointer
  /// (thunks and closures capture environments, not continuations), so a
  /// frame that has been returned through cannot be reached again. Every
  /// creation site initializes all the fields its kind reads, so recycled
  /// frames are not cleared.
  void recycle(Frame *F) {
    --KontDepth; // Frames are popped exactly once; the depth bound
                 // (ResourceLimits::MaxDepth) reads this counter.
    F->Next = FreeList;
    FreeList = F;
  }

  void fail(std::string Msg) {
    Failed = true;
    Error = std::move(Msg);
  }

  /// Transition: evaluate \p E in \p Env with continuation \p K.
  /// Sets Mode to Return when a value is produced immediately.
  void doEval(const Expr *E, EnvFrame *Env, Frame *K);

  /// Transition: process exactly one frame of the continuation for the
  /// returned value \p V. Never recurses; chained pass-through frames
  /// (MonPost, UpdateThunk, primitive frames) bounce through the
  /// trampoline, keeping C-stack usage constant.
  void doReturn(Value V, Frame *K);

  /// Schedules delivery of \p V to \p K via the trampoline.
  void setReturn(Value V, Frame *K) {
    M = Mode::Return;
    CurVal = V;
    CurKont = K;
  }

  /// Applies function value \p Fn to argument \p Arg with continuation
  /// \p K. Handles closures, primitives and partial primitives; forces
  /// thunk arguments of primitives. \p CallerEnv is the application
  /// site's environment and \p Tail its AppExpr::TailPos flag — together
  /// with the dynamic shape/parent check they enable self-tail-call
  /// frame reuse on the lexical machine.
  void applyFunction(Value Fn, Value Arg, Frame *K,
                     EnvFrame *CallerEnv = nullptr, bool Tail = false);

  /// Forces \p V (a thunk) and delivers the result to \p K.
  void force(Value V, Frame *K);

  /// Monitor-facing view of \p Env. Flat frames carry shape ids, so the
  /// view needs the Resolution's decode table to answer named lookups.
  EnvView envView(EnvFrame *Env) const {
    return EnvView(Env, Res->shapeTable());
  }

  //===--------------------------------------------------------------------===//
  // Checkpoint/resume
  //===--------------------------------------------------------------------===//

  /// Pre-order index of the program plus derived maps (annotation -> owning
  /// AnnotExpr id, structural fingerprint). Built lazily: only
  /// checkpoint-armed or resumed runs pay for it.
  const ExprTable *exprTable() {
    if (!Exprs) {
      Exprs = std::make_unique<ExprTable>(Program);
      for (uint32_t I = 1; I <= Exprs->size(); ++I) {
        const Expr *E = Exprs->exprAt(I);
        if (E && E->kind() == ExprKind::Annot)
          AnnotIds.emplace(cast<AnnotExpr>(E)->Ann, I);
      }
      Fingerprint = exprFingerprint(Program);
    }
    return Exprs.get();
  }
  uint64_t fingerprint() {
    exprTable();
    return Fingerprint;
  }
  uint32_t annotIdOf(const Annotation *Ann) const {
    if (!Ann)
      return 0;
    auto It = AnnotIds.find(Ann);
    return It == AnnotIds.end() ? 0 : It->second;
  }

  uint32_t numShapes() const {
    // The decode table has one extra entry: id 0 is the shared
    // primitives-frame shape, seeded ahead of the resolver's own shapes.
    return static_cast<uint32_t>(Res->numShapes()) + 1;
  }

  /// Serializes the full machine state at a transition boundary. Called
  /// with Steps = s after ++Steps but before transition s executed, so the
  /// checkpoint records s-1 completed transitions; resume re-executes
  /// transition s and cumulative step counts match an uninterrupted run.
  /// Returns an invalid Checkpoint if serialization failed.
  Checkpoint makeCheckpoint();

  /// Emits a checkpoint to the configured sink, if any. Skips even the
  /// serialization once the checkpoint path has been degraded (the sink
  /// would drop it anyway).
  void emitCheckpoint() {
    if (!Opts.CheckpointSink)
      return;
    if (Opts.Durability && Opts.Durability->degraded("checkpoint"))
      return;
    Checkpoint CK = makeCheckpoint();
    if (CK.valid())
      Opts.CheckpointSink(CK);
  }

  /// Rebuilds the machine state from \p CK (header validation, monitor
  /// section, value graph, trampoline roots, continuation chain). On
  /// failure sets \p Err and leaves the machine unusable — run() reports
  /// the error without stepping.
  bool restoreCheckpoint(const Checkpoint &CK, std::string &Err);

  const Expr *Program;
  RunOptions Opts;
  Policy Pol;
  /// The program's frame layout; pinned here so it outlives the run.
  std::shared_ptr<const Resolution> Res;
  Arena A;

  // Trampoline state.
  enum class Mode : uint8_t { Eval, Return, Done } M = Mode::Eval;
  const Expr *CurExpr = nullptr;
  EnvFrame *CurEnv = nullptr;
  Value CurVal;
  Frame *CurKont = nullptr;
  Frame *FreeList = nullptr;
  EnvFrame *PrimF = nullptr; ///< The initial frame (lexical Global slots).

  uint64_t Steps = 0;
  uint64_t KontDepth = 0; ///< Live continuation frames (depth bound).
  bool Failed = false;
  std::string Error;

  // Checkpoint/resume support (all lazily populated; see exprTable()).
  uint64_t StepBase = 0; ///< Steps already completed before this process.
  std::unique_ptr<ExprTable> Exprs;
  std::unordered_map<const Annotation *, uint32_t> AnnotIds;
  uint64_t Fingerprint = 0;
  /// Storage for strings revived from a checkpoint (Str values point into
  /// it); must live as long as the rebuilt heap, i.e. the machine.
  std::deque<std::string> RevivedStrings;
};

extern template class MachineT<NoMonitorPolicy>;
extern template class MachineT<DynamicMonitorPolicy>;

using StandardMachine = MachineT<NoMonitorPolicy>;
using MonitoredMachine = MachineT<DynamicMonitorPolicy>;

//===----------------------------------------------------------------------===//
// Template implementation
//===----------------------------------------------------------------------===//

template <typename Policy>
void MachineT<Policy>::doEval(const Expr *E, EnvFrame *Env, Frame *K) {
  switch (E->kind()) {
  case ExprKind::Const: {
    const ConstVal &C = cast<ConstExpr>(E)->Val;
    switch (C.K) {
    case ConstVal::Kind::Int:
      setReturn(Value::mkInt(C.Int, A), K);
      return;
    case ConstVal::Kind::Bool:
      setReturn(Value::mkBool(C.Bool), K);
      return;
    case ConstVal::Kind::Str:
      setReturn(Value::mkStr(C.Str), K);
      return;
    case ConstVal::Kind::Nil:
      setReturn(Value::mkNil(), K);
      return;
    }
    return;
  }
  case ExprKind::Var: {
    const auto *V = cast<VarExpr>(E);
    Value Val;
    switch (V->Addr) {
    case VarExpr::AddrKind::Local: {
      EnvFrame *F = Env;
      for (uint32_t D = V->FrameDepth; D; --D)
        F = F->parent();
      Val = F->slots()[V->SlotIndex];
      break;
    }
    case VarExpr::AddrKind::Global:
      setReturn(PrimF->slots()[V->SlotIndex], K);
      return;
    case VarExpr::AddrKind::Unbound:
      fail("unbound variable '" + std::string(V->Name.str()) + "' at " +
           E->loc().str());
      return;
    case VarExpr::AddrKind::Unresolved:
      fail("internal error: unresolved variable '" +
           std::string(V->Name.str()) + "' in the CEK machine");
      return;
    }
    if (Val.isUnit()) {
      fail("letrec variable '" + std::string(V->Name.str()) +
           "' referenced before initialization");
      return;
    }
    if (Val.is(ValueKind::Thunk)) {
      force(Val, K);
      return;
    }
    setReturn(Val, K);
    return;
  }
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    Closure *C = A.create<Closure>(L, Env);
    setReturn(Value::mkClosure(C), K);
    return;
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    Frame *F = mkFrame(FK::Branch, K);
    F->E1 = I->Then;
    F->E2 = I->Else;
    F->Env = Env;
    M = Mode::Eval;
    CurExpr = I->Cond;
    CurEnv = Env;
    CurKont = F;
    return;
  }
  case ExprKind::App: {
    const auto *App = cast<AppExpr>(E);
    if (Opts.Strat == Strategy::Strict) {
      // Paper order: E[e2] rho { \v2. E[e1] rho { \v1. (v1|Fun) v2 k } }.
      Frame *F = mkFrame(FK::EvalFn, K);
      F->E1 = App->Fn;
      F->Env = Env;
      F->Idx = App->TailPos; // Threaded through to applyFunction's reuse check.
      M = Mode::Eval;
      CurExpr = App->Arg;
      CurEnv = Env;
      CurKont = F;
      return;
    }
    // Lazy strategies: suspend the operand, evaluate the operator.
    Thunk *T = A.create<Thunk>(App->Arg, nullptr, Thunk::State::Unforced,
                               Value(), Env);
    Frame *F = mkFrame(FK::Apply, K);
    F->V = Value::mkThunk(T);
    F->Env = Env;
    F->Idx = 0; // Tail reuse is strict-only (thunks capture environments).
    M = Mode::Eval;
    CurExpr = App->Fn;
    CurEnv = Env;
    CurKont = F;
    return;
  }
  case ExprKind::Letrec: {
    const auto *L = cast<LetrecExpr>(E);
    EnvFrame *Node;
    uint32_t Slot;
    if (L->Shape) {
      // Frame head: a fresh frame whose slot 0 is the binder.
      Node = allocFrame(A, L->Shape, Env);
      Slot = 0;
    } else {
      // Coalesced member: reuse the current frame; the resolver guarantees
      // this letrec runs at most once per frame instance, so the
      // preallocated slot is still Unit ("not yet initialized").
      Node = Env;
      Slot = L->SlotIndex;
    }
    if (Opts.Strat != Strategy::Strict) {
      // Lazy letrec: bind the name to a thunk of the bound expression in
      // the extended environment; self-reference cycles are caught as
      // black holes under call-by-need.
      Thunk *T = A.create<Thunk>(L->Bound, nullptr, Thunk::State::Unforced,
                                 Value(), Node);
      Node->slots()[Slot] = Value::mkThunk(T);
      M = Mode::Eval;
      CurExpr = L->Body;
      CurEnv = Node;
      CurKont = K;
      return;
    }
    Frame *F = mkFrame(FK::LetrecBind, K);
    F->Env = Node;
    F->Idx = Slot;
    F->E1 = L->Body;
    M = Mode::Eval;
    CurExpr = L->Bound;
    CurEnv = Node;
    CurKont = F;
    return;
  }
  case ExprKind::Prim1: {
    const auto *P = cast<Prim1Expr>(E);
    Frame *F = mkFrame(FK::Prim1Apply, K);
    F->Op = static_cast<uint8_t>(P->Op);
    M = Mode::Eval;
    CurExpr = P->Arg;
    CurEnv = Env;
    CurKont = F;
    return;
  }
  case ExprKind::Prim2: {
    const auto *P = cast<Prim2Expr>(E);
    Frame *F = mkFrame(FK::Prim2Rhs, K);
    F->Op = static_cast<uint8_t>(P->Op);
    F->E1 = P->Rhs;
    F->Env = Env;
    M = Mode::Eval;
    CurExpr = P->Lhs;
    CurEnv = Env;
    CurKont = F;
    return;
  }
  case ExprKind::Annot: {
    const auto *N = cast<AnnotExpr>(E);
    if constexpr (Policy::Enabled) {
      // Definition 4.2: (Vbar [s'] a* kpost) . updPre
      Pol.pre(*N->Ann, *N->Inner, envView(Env), Steps, A.bytesAllocated());
      Frame *F = mkFrame(FK::MonPost, K);
      F->Ann = N->Ann;
      F->E1 = N->Inner;
      F->Env = Env;
      M = Mode::Eval;
      CurExpr = N->Inner;
      CurEnv = Env;
      CurKont = F;
      return;
    }
    // Oblivious (Definition 7.1): skip the annotation.
    M = Mode::Eval;
    CurExpr = N->Inner;
    CurEnv = Env;
    CurKont = K;
    return;
  }
  }
}

template <typename Policy>
void MachineT<Policy>::force(Value V, Frame *K) {
  Thunk *T = V.asThunk();
  switch (T->St) {
  case Thunk::State::Forced:
    setReturn(T->Memo, K);
    return;
  case Thunk::State::Forcing:
    fail("infinite value dependency (black hole)");
    return;
  case Thunk::State::Unforced:
    break;
  }
  if (Opts.Strat == Strategy::CallByNeed) {
    T->St = Thunk::State::Forcing;
    Frame *F = mkFrame(FK::UpdateThunk, K);
    F->Th = T;
    K = F;
  }
  M = Mode::Eval;
  CurExpr = T->E;
  CurEnv = T->FEnv;
  CurKont = K;
}

template <typename Policy>
void MachineT<Policy>::applyFunction(Value Fn, Value Arg, Frame *K,
                                              EnvFrame *CallerEnv, bool Tail) {
  switch (Fn.kind()) {
  case ValueKind::Closure: {
    Closure *C = Fn.asClosure();
    const LamExpr *L = C->L;
    EnvFrame *Env;
    // Self-tail-call frame reuse: the application sits in tail position of
    // a lambda body whose activation frame is CallerEnv (TailPos
    // guarantees no head letrec intervened), the callee is a closure over
    // the *same* lambda (shapes are unique per lambda) with the same
    // parent chain, and the body creates no closures or probes
    // (FrameReusable) — so the fresh frame the callee would allocate is
    // indistinguishable from CallerEnv with its slots reset. Strict only:
    // lazy strategies capture environments in thunks.
    if (Tail && CallerEnv && L->FrameReusable && Opts.ReuseTailFrames &&
        Opts.Strat == Strategy::Strict && CallerEnv->parent() == C->FEnv &&
        frameShape(CallerEnv, Res->shapeTable()) == L->Shape) {
      Value *S = CallerEnv->slots();
      uint32_t N = L->Shape->numSlots();
      S[0] = Arg;
      // Coalesced letrec member slots must read as "not yet initialized"
      // on frame entry, exactly as a fresh frame would.
      for (uint32_t J = 1; J < N; ++J)
        S[J] = Value();
      Env = CallerEnv;
    } else {
      Env = allocFrame(A, L->Shape, C->FEnv, Arg);
    }
    M = Mode::Eval;
    CurExpr = L->Body;
    CurEnv = Env;
    CurKont = K;
    return;
  }
  case ValueKind::Prim1: {
    if (Arg.is(ValueKind::Thunk)) {
      // Primitives are strict: force, then re-apply.
      Frame *F = mkFrame(FK::Prim1Apply, K);
      F->Op = static_cast<uint8_t>(Fn.asPrim1());
      force(Arg, F);
      return;
    }
    PrimResult R = applyPrim1(Fn.asPrim1(), Arg, A);
    if (!R.Ok) {
      fail(std::move(R.Error));
      return;
    }
    setReturn(R.Val, K);
    return;
  }
  case ValueKind::Prim2: {
    if (Arg.is(ValueKind::Thunk)) {
      // Left-strict at partial application; see Primitives.h.
      Frame *F = mkFrame(FK::Prim2Rhs, K);
      F->Op = static_cast<uint8_t>(Fn.asPrim2());
      F->E1 = nullptr; // Signals "build a partial" instead of eval RHS.
      force(Arg, F);
      return;
    }
    PrimPartial *PP = A.create<PrimPartial>(Fn.asPrim2(), Arg);
    setReturn(Value::mkPrim2Partial(PP), K);
    return;
  }
  case ValueKind::Prim2Partial: {
    PrimPartial *PP = Fn.asPrim2Partial();
    if (Arg.is(ValueKind::Thunk)) {
      Frame *F = mkFrame(FK::Prim2Apply, K);
      F->Op = static_cast<uint8_t>(PP->Op);
      F->V = PP->First;
      force(Arg, F);
      return;
    }
    PrimResult R = applyPrim2(PP->Op, PP->First, Arg, A);
    if (!R.Ok) {
      fail(std::move(R.Error));
      return;
    }
    setReturn(R.Val, K);
    return;
  }
  default:
    fail("cannot apply a non-function value (" + toDisplayString(Fn) + ")");
    return;
  }
}

template <typename Policy>
void MachineT<Policy>::doReturn(Value V, Frame *K) {
  // Each case reads the frame's fields into locals, recycles the frame,
  // and only then continues — the recycled slot is usually reused by the
  // very next mkFrame, so the continuation's hot end stays in cache.
  switch (K->K) {
  case FK::Halt:
    M = Mode::Done;
    CurVal = V;
    return;
  case FK::EvalFn: {
    // V is the operand value; evaluate the operator next.
    const Expr *Fn = K->E1;
    EnvFrame *Env = K->Env;
    uint32_t Tail = K->Idx;
    Frame *Next = K->Next;
    recycle(K);
    Frame *F = mkFrame(FK::Apply, Next);
    F->V = V;
    F->Env = Env; // The application site's env, for the tail-reuse check.
    F->Idx = Tail;
    M = Mode::Eval;
    CurExpr = Fn;
    CurEnv = Env;
    CurKont = F;
    return;
  }
  case FK::Apply: {
    // V is the operator; the stored value is the operand.
    Value Arg = K->V;
    EnvFrame *CallerEnv = K->Env;
    bool Tail = K->Idx != 0;
    Frame *Next = K->Next;
    recycle(K);
    applyFunction(V, Arg, Next, CallerEnv, Tail);
    return;
  }
  case FK::Branch: {
    if (!V.is(ValueKind::Bool)) {
      fail("conditional scrutinee must be a boolean, found " +
           toDisplayString(V));
      return;
    }
    const Expr *Taken = V.asBool() ? K->E1 : K->E2;
    EnvFrame *Env = K->Env;
    Frame *Next = K->Next;
    recycle(K);
    M = Mode::Eval;
    CurExpr = Taken;
    CurEnv = Env;
    CurKont = Next;
    return;
  }
  case FK::LetrecBind: {
    EnvFrame *Env = K->Env;
    uint32_t Idx = K->Idx;
    const Expr *Body = K->E1;
    Frame *Next = K->Next;
    recycle(K);
    Env->slots()[Idx] = V;
    M = Mode::Eval;
    CurExpr = Body;
    CurEnv = Env;
    CurKont = Next;
    return;
  }
  case FK::Prim2Rhs: {
    uint8_t Op = K->Op;
    const Expr *Rhs = K->E1;
    EnvFrame *Env = K->Env;
    Frame *Next = K->Next;
    recycle(K);
    if (!Rhs) {
      // Forced first operand of a higher-order prim2 application.
      PrimPartial *PP = A.create<PrimPartial>(static_cast<Prim2Op>(Op), V);
      setReturn(Value::mkPrim2Partial(PP), Next);
      return;
    }
    Frame *F = mkFrame(FK::Prim2Apply, Next);
    F->Op = Op;
    F->V = V;
    M = Mode::Eval;
    CurExpr = Rhs;
    CurEnv = Env;
    CurKont = F;
    return;
  }
  case FK::Prim2Apply: {
    uint8_t Op = K->Op;
    Value Lhs = K->V;
    Frame *Next = K->Next;
    recycle(K);
    PrimResult R = applyPrim2(static_cast<Prim2Op>(Op), Lhs, V, A);
    if (!R.Ok) {
      fail(std::move(R.Error));
      return;
    }
    setReturn(R.Val, Next);
    return;
  }
  case FK::Prim1Apply: {
    uint8_t Op = K->Op;
    Frame *Next = K->Next;
    recycle(K);
    PrimResult R = applyPrim1(static_cast<Prim1Op>(Op), V, A);
    if (!R.Ok) {
      fail(std::move(R.Error));
      return;
    }
    setReturn(R.Val, Next);
    return;
  }
  case FK::MonPost: {
    if constexpr (Policy::Enabled)
      Pol.post(*K->Ann, *K->E1, envView(K->Env), V, Steps,
               A.bytesAllocated());
    Frame *Next = K->Next;
    recycle(K);
    setReturn(V, Next);
    return;
  }
  case FK::UpdateThunk: {
    Thunk *T = K->Th;
    Frame *Next = K->Next;
    recycle(K);
    T->St = Thunk::State::Forced;
    T->Memo = V;
    setReturn(V, Next);
    return;
  }
  }
}

/// Per-frame-kind payloads: each kind serializes exactly the fields its
/// doReturn case reads, so stale fields of recycled frames never drag
/// unreachable heap structure into the checkpoint.
template <typename Policy>
Checkpoint MachineT<Policy>::makeCheckpoint() {
  CheckpointHeader H;
  H.Backend = CheckpointBackend::CEK;
  H.Strategy = static_cast<uint8_t>(Opts.Strat);
  // Header byte 10 once told flat frames (1) from the named chain (0); the
  // machine only has flat frames now, so it is always 1.
  H.Lexical = true;
  // Only hook-carrying policies (DynamicMonitorPolicy) have monitor states
  // to serialize; a level-1 inline policy keeps its state outside the
  // machine and checkpoints as unmonitored.
  constexpr bool HasHooks =
      requires(Policy &P, Serializer &Sec) { P.Hooks->saveMonitorSection(Sec); };
  H.Monitored = HasHooks;
  H.ProgramFingerprint = fingerprint();
  H.SavedSteps = Steps - 1;
  Serializer S = Checkpoint::begin(H);
  S.writeU8(M == Mode::Return ? 1 : 0);
  if constexpr (HasHooks)
    Pol.Hooks->saveMonitorSection(S);
  else
    S.writeU32(0);

  ValueGraphWriter W(exprTable(), Res->shapeTable());
  Serializer &RS = W.roots();
  if (M == Mode::Return) {
    W.writeValue(CurVal);
  } else {
    W.writeExprRef(CurExpr);
    W.writeEnvFrameRef(CurEnv);
  }
  W.writeEnvFrameRef(PrimF);

  uint32_t N = 0;
  for (Frame *F = CurKont; F; F = F->Next)
    ++N;
  RS.writeU32(N);
  for (Frame *F = CurKont; F; F = F->Next) {
    RS.writeU8(static_cast<uint8_t>(F->K));
    switch (F->K) {
    case FK::Halt:
      break;
    case FK::EvalFn:
      W.writeExprRef(F->E1);
      W.writeEnvFrameRef(F->Env);
      RS.writeU32(F->Idx);
      break;
    case FK::Apply:
      W.writeValue(F->V);
      W.writeEnvFrameRef(F->Env);
      RS.writeU32(F->Idx);
      break;
    case FK::Branch:
      W.writeExprRef(F->E1);
      W.writeExprRef(F->E2);
      W.writeEnvFrameRef(F->Env);
      break;
    case FK::LetrecBind:
      W.writeEnvFrameRef(F->Env);
      RS.writeU32(F->Idx);
      W.writeExprRef(F->E1);
      break;
    case FK::Prim2Rhs:
      RS.writeU8(F->Op);
      W.writeExprRef(F->E1); // Null encodes "build a partial" (see doReturn).
      W.writeEnvFrameRef(F->Env);
      break;
    case FK::Prim2Apply:
      RS.writeU8(F->Op);
      W.writeValue(F->V);
      break;
    case FK::Prim1Apply:
      RS.writeU8(F->Op);
      break;
    case FK::MonPost:
      // Ann and E1 both belong to one AnnotExpr; its pre-order id names
      // them across processes.
      RS.writeU32(annotIdOf(F->Ann));
      W.writeEnvFrameRef(F->Env);
      break;
    case FK::UpdateThunk:
      W.writeThunkRef(F->Th);
      break;
    }
  }
  if (!W.ok())
    return Checkpoint();
  W.finish(S);
  return Checkpoint::seal(std::move(S));
}

template <typename Policy>
bool MachineT<Policy>::restoreCheckpoint(const Checkpoint &CK,
                                                  std::string &Err) {
  const CheckpointHeader &H = CK.header();
  if (H.Backend != CheckpointBackend::CEK) {
    Err = "checkpoint was taken by the VM backend, not the CEK machine";
    return false;
  }
  if (H.Strategy != static_cast<uint8_t>(Opts.Strat)) {
    Err = std::string("checkpoint was taken under the ") +
          strategyName(static_cast<Strategy>(H.Strategy)) +
          " strategy, this run uses " + strategyName(Opts.Strat);
    return false;
  }
  if (!H.Lexical) {
    Err = "checkpoint was written by the named-environment CEK machine, "
          "which no longer exists; rerun the program from the start";
    return false;
  }
  constexpr bool HasHooks = requires(Policy &P, Deserializer &Sec) {
    P.Hooks->loadMonitorSection(Sec);
  };
  if (H.Monitored != HasHooks) {
    Err = H.Monitored
              ? "checkpoint was taken by a monitored run; attach the same "
                "cascade to resume"
              : "checkpoint was taken by an unmonitored run";
    return false;
  }
  if (H.ProgramFingerprint != fingerprint()) {
    Err = "checkpoint was taken for a different program (fingerprint "
          "mismatch)";
    return false;
  }

  Deserializer D = CK.payload();
  uint8_t ModeByte = D.readU8();
  if (ModeByte > 1) {
    Err = "corrupt checkpoint: bad trampoline mode byte";
    return false;
  }
  if constexpr (HasHooks)
    Pol.Hooks->loadMonitorSection(D);
  else if (D.readU32() != 0)
    D.fail("checkpoint has monitor states but this run is unmonitored");
  if (!D.ok()) {
    Err = D.error();
    return false;
  }

  ValueGraphReader Rd(D, A, exprTable(), Res->shapeTable(), numShapes());
  if (!Rd.readObjects()) {
    Err = D.error();
    return false;
  }
  if (ModeByte == 1) {
    CurVal = Rd.readValue();
    M = Mode::Return;
  } else {
    CurExpr = Rd.readExprRef();
    CurEnv = Rd.readEnvFrameRef();
    M = Mode::Eval;
    if (D.ok() && !CurExpr) {
      Err = "corrupt checkpoint: null control expression";
      return false;
    }
  }
  PrimF = Rd.readEnvFrameRef();

  uint32_t N = D.readU32();
  if (!D.ok() || N == 0 || N > (1u << 28)) {
    Err = D.ok() ? "corrupt checkpoint: bad continuation length" : D.error();
    return false;
  }
  std::vector<Frame *> Fs(N);
  for (uint32_t I = 0; I < N; ++I)
    Fs[I] = A.create<Frame>();
  for (uint32_t I = 0; I < N && D.ok(); ++I) {
    Frame *F = Fs[I];
    uint8_t Raw = D.readU8();
    if (Raw > static_cast<uint8_t>(FK::UpdateThunk)) {
      D.fail("corrupt checkpoint: unknown continuation frame kind");
      break;
    }
    F->K = static_cast<FK>(Raw);
    switch (F->K) {
    case FK::Halt:
      break;
    case FK::EvalFn:
      F->E1 = Rd.readExprRef();
      F->Env = Rd.readEnvFrameRef();
      F->Idx = D.readU32();
      break;
    case FK::Apply:
      F->V = Rd.readValue();
      F->Env = Rd.readEnvFrameRef();
      F->Idx = D.readU32();
      break;
    case FK::Branch:
      F->E1 = Rd.readExprRef();
      F->E2 = Rd.readExprRef();
      F->Env = Rd.readEnvFrameRef();
      break;
    case FK::LetrecBind:
      F->Env = Rd.readEnvFrameRef();
      F->Idx = D.readU32();
      F->E1 = Rd.readExprRef();
      break;
    case FK::Prim2Rhs:
      F->Op = D.readU8();
      F->E1 = Rd.readExprRef();
      F->Env = Rd.readEnvFrameRef();
      break;
    case FK::Prim2Apply:
      F->Op = D.readU8();
      F->V = Rd.readValue();
      break;
    case FK::Prim1Apply:
      F->Op = D.readU8();
      break;
    case FK::MonPost: {
      uint32_t AnnId = D.readU32();
      const Expr *AE = exprTable()->exprAt(AnnId);
      if (!AE || AE->kind() != ExprKind::Annot) {
        D.fail("corrupt checkpoint: MonPost frame names a non-annotation");
        break;
      }
      F->Ann = cast<AnnotExpr>(AE)->Ann;
      F->E1 = cast<AnnotExpr>(AE)->Inner;
      F->Env = Rd.readEnvFrameRef();
      break;
    }
    case FK::UpdateThunk:
      F->Th = Rd.readThunkRef();
      if (D.ok() && !F->Th) {
        D.fail("corrupt checkpoint: UpdateThunk frame without a thunk");
      }
      break;
    }
    F->Next = I + 1 < N ? Fs[I + 1] : nullptr;
  }
  if (D.ok() && Fs[N - 1]->K != FK::Halt)
    D.fail("corrupt checkpoint: continuation does not end in Halt");
  if (!D.ok()) {
    Err = D.error();
    return false;
  }
  CurKont = Fs[0];
  KontDepth = N;
  RevivedStrings = Rd.takeStrings();
  return true;
}

template <typename Policy>
RunResult MachineT<Policy>::run() {
  RunResult R;
  if (!Res->ok()) {
    R.setOutcome(Outcome::Error);
    R.Error = kSharedNodesError;
    return R;
  }
  if (Opts.ResumeFrom) {
    std::string Err;
    if (!restoreCheckpoint(*Opts.ResumeFrom, Err)) {
      R.setOutcome(Outcome::Error);
      R.Error = "cannot resume from checkpoint: " + Err;
      return R;
    }
    // Continue the cumulative step counter; fuel and checkpoint boundaries
    // are measured from the resume point (fresh budget).
    StepBase = Steps = Opts.ResumeFrom->header().SavedSteps;
  }
  Governor Gov(Opts.Limits, Opts.MaxSteps, StepBase,
               Opts.CheckpointSink ? Opts.CheckpointEveryNSteps : 0);
  A.setByteLimit(Gov.arenaByteCap());
  try {
    if (!Opts.ResumeFrom) {
      Frame *Halt = mkFrame(FK::Halt, nullptr);
      CurExpr = Program;
      // The frame chain bottoms out at the initial frame so monitors see
      // the primitive bindings through EnvView. The machine itself
      // addresses PrimF directly (AddrKind::Global).
      PrimF = initialFrame(A);
      CurEnv = allocFrame(A, Res->rootShape(), PrimF);
      CurKont = Halt;
      M = Mode::Eval;
    }

    while (M != Mode::Done && !Failed) {
      ++Steps;
      if (Steps >= Gov.nextPause()) {
        Outcome O = Gov.pause(Steps, A.bytesAllocated(), KontDepth);
        if (O != Outcome::Ok) {
          // ++Steps ran but transition `Steps` did not; the checkpoint
          // records Steps-1 completed transitions so a resumed run
          // re-executes exactly this transition.
          if (Opts.CheckpointOnStop)
            emitCheckpoint();
          R.setOutcome(O);
          R.Steps = Steps;
          R.ArenaBytes = A.bytesAllocated();
          return R;
        }
        if (Gov.takeCheckpointDue())
          emitCheckpoint();
      }
      if (M == Mode::Eval)
        doEval(CurExpr, CurEnv, CurKont);
      else
        doReturn(CurVal, CurKont);
    }
  } catch (const MonitorAbort &E) {
    // A monitor under FaultPolicy::Abort faulted: the run's answer is an
    // error, not a crash.
    Failed = true;
    Error = E.what();
  } catch (const DurabilityAbort &E) {
    // A durable sink failed under OnDurabilityFailure::Abort: "no
    // checkpoint, no progress" — surface it as the run's error.
    Failed = true;
    Error = E.what();
  } catch (const ArenaLimitExceeded &) {
    // A single step blew past the arena cap between checkpoints.
    R.setOutcome(Outcome::MemoryExceeded);
    R.Steps = Steps;
    R.ArenaBytes = A.bytesAllocated();
    return R;
  }

  R.Steps = Steps;
  R.ArenaBytes = A.bytesAllocated();
  if (Failed) {
    R.setOutcome(Outcome::Error);
    R.Error = std::move(Error);
    return R;
  }
  R.setOutcome(Outcome::Ok);
  // kappa_init = \v. phi v (Section 3.1).
  R.ValueText = Opts.Algebra->render(CurVal);
  if (CurVal.is(ValueKind::Int))
    R.IntValue = CurVal.asInt();
  if (CurVal.is(ValueKind::Bool))
    R.BoolValue = CurVal.asBool();
  return R;
}

} // namespace monsem

#endif // MONSEM_INTERP_MACHINE_H
