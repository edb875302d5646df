//===- imp/ImpMachine.cpp --------------------------------------------------===//

#include "imp/ImpMachine.h"

#include "semantics/Primitives.h"
#include "syntax/Parser.h"

#include <optional>

using namespace monsem;

namespace {

/// Recursive evaluator for the expression sub-language. Environments are
/// EnvNode chains rooted in the store snapshot; all heap values live in the
/// machine's arena so store cells stay valid across commands.
class ExprEval {
public:
  ExprEval(Arena &A, const ImpStore &Store, const ImpRunOptions &Opts,
           uint64_t &Steps, MonitorHooks *Hooks, Governor &Gov)
      : A(A), Store(Store), Opts(Opts), Steps(Steps), Hooks(Hooks),
        Gov(Gov) {}

  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }

  Value eval(const Expr *E, EnvNode *Env, unsigned Depth) {
    if (Failed)
      return Value();
    ++Steps;
    if (Steps >= Gov.nextPause()) {
      // The governor is shared with the command loop, so fuel, deadline
      // and the rest are charged uniformly across both levels; Depth here
      // is the expression recursion depth.
      Outcome O = Gov.pause(Steps, A.bytesAllocated(), Depth);
      if (O != Outcome::Ok) {
        Stop = O;
        Failed = true;
        return Value();
      }
    }
    if (Depth > Opts.MaxExprDepth)
      return fail("expression recursion too deep");
    switch (E->kind()) {
    case ExprKind::Const: {
      const ConstVal &C = cast<ConstExpr>(E)->Val;
      switch (C.K) {
      case ConstVal::Kind::Int:
        return Value::mkInt(C.Int, A);
      case ConstVal::Kind::Bool:
        return Value::mkBool(C.Bool);
      case ConstVal::Kind::Str:
        return Value::mkStr(C.Str);
      case ConstVal::Kind::Nil:
        return Value::mkNil();
      }
      return Value();
    }
    case ExprKind::Var: {
      Symbol Name = cast<VarExpr>(E)->Name;
      for (EnvNode *N = Env; N; N = N->Parent)
        if (N->Name == Name) {
          if (N->Val.isUnit())
            return fail("letrec variable '" + std::string(Name.str()) +
                        "' referenced before initialization");
          return N->Val;
        }
      auto It = Store.find(Name);
      if (It != Store.end())
        return It->second;
      if (auto P1 = lookupPrim1(Name))
        return Value::mkPrim1(*P1);
      if (auto P2 = lookupPrim2(Name))
        return Value::mkPrim2(*P2);
      return fail("variable '" + std::string(Name.str()) +
                  "' is not initialized");
    }
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      return Value::mkClosure(A.create<Closure>(L, Env));
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      Value C = eval(I->Cond, Env, Depth + 1);
      if (Failed)
        return Value();
      if (!C.is(ValueKind::Bool))
        return fail("conditional scrutinee must be a boolean, found " +
                    toDisplayString(C));
      return eval(C.asBool() ? I->Then : I->Else, Env, Depth + 1);
    }
    case ExprKind::App: {
      const auto *Ap = cast<AppExpr>(E);
      // Paper order: operand first.
      Value Arg = eval(Ap->Arg, Env, Depth + 1);
      if (Failed)
        return Value();
      Value Fn = eval(Ap->Fn, Env, Depth + 1);
      if (Failed)
        return Value();
      return apply(Fn, Arg, Depth + 1);
    }
    case ExprKind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      EnvNode *Node = extendEnv(A, Env, L->Name, Value::mkUnit());
      Value B = eval(L->Bound, Node, Depth + 1);
      if (Failed)
        return Value();
      Node->Val = B;
      return eval(L->Body, Node, Depth + 1);
    }
    case ExprKind::Prim1: {
      const auto *P = cast<Prim1Expr>(E);
      Value V = eval(P->Arg, Env, Depth + 1);
      if (Failed)
        return Value();
      PrimResult R = applyPrim1(P->Op, V, A);
      if (!R.Ok)
        return fail(std::move(R.Error));
      return R.Val;
    }
    case ExprKind::Prim2: {
      const auto *P = cast<Prim2Expr>(E);
      Value L = eval(P->Lhs, Env, Depth + 1);
      if (Failed)
        return Value();
      Value R = eval(P->Rhs, Env, Depth + 1);
      if (Failed)
        return Value();
      PrimResult PR = applyPrim2(P->Op, L, R, A);
      if (!PR.Ok)
        return fail(std::move(PR.Error));
      return PR.Val;
    }
    case ExprKind::Annot: {
      // Expression-level annotations fire on the expression cascade when
      // one is attached (cross-level monitoring); without one the
      // standard semantics is oblivious to them.
      const auto *N = cast<AnnotExpr>(E);
      if (!Hooks)
        return eval(N->Inner, Env, Depth + 1);
      Hooks->pre(*N->Ann, *N->Inner, EnvView(Env), Steps,
                 A.bytesAllocated());
      Value V = eval(N->Inner, Env, Depth + 1);
      if (!Failed)
        Hooks->post(*N->Ann, *N->Inner, EnvView(Env), V, Steps,
                    A.bytesAllocated());
      return V;
    }
    }
    return Value();
  }

  Outcome Stop = Outcome::Ok; ///< Governance stop reason, if any.

private:
  Value apply(Value Fn, Value Arg, unsigned Depth) {
    switch (Fn.kind()) {
    case ValueKind::Closure: {
      Closure *C = Fn.asClosure();
      EnvNode *Env = extendEnv(A, C->Env, C->L->Param, Arg);
      return eval(C->L->Body, Env, Depth + 1);
    }
    case ValueKind::Prim1: {
      PrimResult R = applyPrim1(Fn.asPrim1(), Arg, A);
      if (!R.Ok)
        return fail(std::move(R.Error));
      return R.Val;
    }
    case ValueKind::Prim2:
      return Value::mkPrim2Partial(
          A.create<PrimPartial>(Fn.asPrim2(), Arg));
    case ValueKind::Prim2Partial: {
      PrimPartial *PP = Fn.asPrim2Partial();
      PrimResult R = applyPrim2(PP->Op, PP->First, Arg, A);
      if (!R.Ok)
        return fail(std::move(R.Error));
      return R.Val;
    }
    default:
      return fail("cannot apply a non-function value (" +
                  toDisplayString(Fn) + ")");
    }
  }

  Value fail(std::string Msg) {
    if (!Failed) {
      Failed = true;
      Error = std::move(Msg);
    }
    return Value();
  }

  Arena &A;
  const ImpStore &Store;
  const ImpRunOptions &Opts;
  uint64_t &Steps;
  MonitorHooks *Hooks;
  Governor &Gov;
  bool Failed = false;
  std::string Error;
};

/// The command machine.
class ImpMachine {
public:
  ImpMachine(const Cmd *Program, ImpRuntimeCascade *Hooks,
             MonitorHooks *ExprHooks, ImpRunOptions Opts)
      : Program(Program), Hooks(Hooks), ExprHooks(ExprHooks), Opts(Opts) {}

  ImpRunResult run() {
    ImpRunResult R;
    Governor Gov(Opts.Limits, Opts.MaxSteps);
    A.setByteLimit(Gov.arenaByteCap());
    GovPtr = &Gov;
    try {
      Work.push_back(Item{Item::Kind::Run, Program, nullptr});
      while (!Work.empty()) {
        ++Steps;
        if (Steps >= Gov.nextPause()) {
          Outcome O = Gov.pause(Steps, A.bytesAllocated(), Work.size());
          if (O != Outcome::Ok) {
            R.setOutcome(O);
            R.Steps = Steps;
            return R;
          }
        }
        Item It = Work.back();
        Work.pop_back();
        if (It.K == Item::Kind::Post) {
          if (Hooks)
            Hooks->post(*cast<AnnotCmd>(It.C)->Ann,
                        *cast<AnnotCmd>(It.C)->Inner, Store, Steps);
          continue;
        }
        if (!step(It.C))
          break;
      }
    } catch (const MonitorAbort &E) {
      fail(E.what());
    } catch (const ArenaLimitExceeded &) {
      R.setOutcome(Outcome::MemoryExceeded);
      R.Steps = Steps;
      return R;
    }
    R.Steps = Steps;
    if (Stop != Outcome::Ok) {
      R.setOutcome(Stop);
      return R;
    }
    if (Failed) {
      R.setOutcome(Outcome::Error);
      R.Error = std::move(Error);
      return R;
    }
    R.setOutcome(Outcome::Ok);
    R.Output = std::move(Output);
    for (const auto &[Name, Val] : Store)
      R.Store.emplace(std::string(Name.str()), toDisplayString(Val));
    return R;
  }

private:
  struct Item {
    enum class Kind : uint8_t { Run, Post };
    Kind K;
    const Cmd *C;
    const Annotation *Ann;
  };

  bool step(const Cmd *C) {
    switch (C->kind()) {
    case CmdKind::Skip:
      return true;
    case CmdKind::Assign: {
      const auto *A2 = cast<AssignCmd>(C);
      Value V = evalExpr(A2->Value);
      if (Failed || Stop != Outcome::Ok)
        return false;
      Store[A2->Var] = V;
      return true;
    }
    case CmdKind::Seq: {
      const auto *S = cast<SeqCmd>(C);
      Work.push_back(Item{Item::Kind::Run, S->Second, nullptr});
      Work.push_back(Item{Item::Kind::Run, S->First, nullptr});
      return true;
    }
    case CmdKind::If: {
      const auto *I = cast<IfCmd>(C);
      Value V = evalExpr(I->Cond);
      if (Failed || Stop != Outcome::Ok)
        return false;
      if (!V.is(ValueKind::Bool)) {
        fail("conditional scrutinee must be a boolean, found " +
             toDisplayString(V));
        return false;
      }
      Work.push_back(Item{Item::Kind::Run, V.asBool() ? I->Then : I->Else,
                          nullptr});
      return true;
    }
    case CmdKind::While: {
      const auto *W = cast<WhileCmd>(C);
      Value V = evalExpr(W->Cond);
      if (Failed || Stop != Outcome::Ok)
        return false;
      if (!V.is(ValueKind::Bool)) {
        fail("loop condition must be a boolean, found " +
             toDisplayString(V));
        return false;
      }
      if (V.asBool()) {
        Work.push_back(Item{Item::Kind::Run, C, nullptr}); // Re-test.
        Work.push_back(Item{Item::Kind::Run, W->Body, nullptr});
      }
      return true;
    }
    case CmdKind::Print: {
      const auto *P = cast<PrintCmd>(C);
      Value V = evalExpr(P->Value);
      if (Failed || Stop != Outcome::Ok)
        return false;
      Output.push_back(toDisplayString(V));
      return true;
    }
    case CmdKind::Read: {
      const auto *Rd = cast<ReadCmd>(C);
      if (InputPos >= Opts.Input.size()) {
        fail("read: input stream exhausted");
        return false;
      }
      Store[Rd->Var] = Value::mkInt(Opts.Input[InputPos++], A);
      return true;
    }
    case CmdKind::Annot: {
      const auto *A2 = cast<AnnotCmd>(C);
      if (Hooks) {
        Hooks->pre(*A2->Ann, *A2->Inner, Store, Steps);
        Work.push_back(Item{Item::Kind::Post, C, A2->Ann});
      }
      Work.push_back(Item{Item::Kind::Run, A2->Inner, nullptr});
      return true;
    }
    }
    return true;
  }

  Value evalExpr(const Expr *E) {
    ExprEval Ev(A, Store, Opts, Steps, ExprHooks, *GovPtr);
    Value V = Ev.eval(E, nullptr, 0);
    if (Ev.Stop != Outcome::Ok) {
      Stop = Ev.Stop;
      return Value();
    }
    if (Ev.failed()) {
      fail(Ev.error());
      return Value();
    }
    return V;
  }

  void fail(std::string Msg) {
    if (!Failed) {
      Failed = true;
      Error = std::move(Msg);
    }
  }

  const Cmd *Program;
  ImpRuntimeCascade *Hooks;
  MonitorHooks *ExprHooks;
  ImpRunOptions Opts;
  Arena A;
  Governor *GovPtr = nullptr; ///< Valid for the duration of run().
  ImpStore Store;
  std::vector<Item> Work;
  std::vector<std::string> Output;
  size_t InputPos = 0;
  uint64_t Steps = 0;
  bool Failed = false;
  Outcome Stop = Outcome::Ok; ///< Governance stop raised in evalExpr.
  std::string Error;
};

} // namespace

ImpRunResult monsem::runImp(const Cmd *Program, ImpRunOptions Opts) {
  ImpMachine M(Program, nullptr, nullptr, Opts);
  return M.run();
}

ImpRunResult monsem::runImp(const ImpCascade &C, const Cmd *Program,
                            ImpRunOptions Opts) {
  Cascade Empty;
  return runImp(C, Empty, Program, Opts);
}

void monsem::collectImpExprAnnotations(const Cmd *Program,
                                       std::vector<const Annotation *> &Out) {
  switch (Program->kind()) {
  case CmdKind::Skip:
  case CmdKind::Read:
    return;
  case CmdKind::Assign:
    collectAnnotations(cast<AssignCmd>(Program)->Value, Out);
    return;
  case CmdKind::Seq:
    for (const Cmd *I : seqItems(cast<SeqCmd>(Program)))
      collectImpExprAnnotations(I, Out);
    return;
  case CmdKind::If: {
    const auto *I = cast<IfCmd>(Program);
    collectAnnotations(I->Cond, Out);
    collectImpExprAnnotations(I->Then, Out);
    collectImpExprAnnotations(I->Else, Out);
    return;
  }
  case CmdKind::While: {
    const auto *W = cast<WhileCmd>(Program);
    collectAnnotations(W->Cond, Out);
    collectImpExprAnnotations(W->Body, Out);
    return;
  }
  case CmdKind::Print:
    collectAnnotations(cast<PrintCmd>(Program)->Value, Out);
    return;
  case CmdKind::Annot:
    collectImpExprAnnotations(cast<AnnotCmd>(Program)->Inner, Out);
    return;
  }
}

ImpRunResult monsem::runImp(const ImpCascade &C, const Cascade &ExprC,
                            const Cmd *Program, ImpRunOptions Opts) {
  if (C.empty() && ExprC.empty())
    return runImp(Program, Opts);

  DiagnosticSink Diags;
  if (!C.empty() && !C.validateFor(Program, Diags)) {
    ImpRunResult R;
    R.Error = Diags.str();
    return R;
  }
  if (!ExprC.empty()) {
    std::vector<const Annotation *> ExprAnns;
    collectImpExprAnnotations(Program, ExprAnns);
    for (const Annotation *Ann : ExprAnns)
      if (ExprC.resolve(*Ann, &Diags) == -2) {
        ImpRunResult R;
        R.Error = Diags.str();
        return R;
      }
  }

  std::optional<ImpRuntimeCascade> RC;
  if (!C.empty())
    RC.emplace(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
  std::optional<RuntimeCascade> ERC;
  if (!ExprC.empty())
    ERC.emplace(ExprC, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);

  ImpMachine M(Program, RC ? &*RC : nullptr, ERC ? &*ERC : nullptr, Opts);
  ImpRunResult R = M.run();
  if (RC) {
    R.FinalStates = RC->takeStates();
    R.MonitorFaults = RC->takeFaults();
  }
  if (ERC) {
    for (auto &S : ERC->takeStates())
      R.FinalStates.push_back(std::move(S));
    for (auto &F : ERC->takeFaults())
      R.MonitorFaults.push_back(std::move(F));
  }
  return R;
}
