//===- analysis/Resolver.cpp ----------------------------------------------===//

#include "analysis/Resolver.h"

#include "semantics/Primitives.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace monsem;

namespace monsem {

/// The single-pass scope walk. One instance per resolveProgram call.
class Resolver {
public:
  explicit Resolver(Resolution &R) : R(R) {
    // Reserve shape id 0 for the shared primitives frame, which sits at
    // the root of every run-time frame chain but is not produced by this
    // pass (its own Id defaults to 0).
    R.Table.push_back(primFrameShape());
  }

  void run(const Expr *Program) {
    FrameShape *Root = R.newShape();
    R.Root = Root;
    // The root frame has no owner binding; letrec binders coalesced at the
    // program's outermost level fill its slots (possibly none).
    visit(Program, /*Level=*/0, Root, /*Coalesce=*/true, /*Tail=*/true);
  }

private:
  /// One name in scope. FrameLevel/Slot locate its runtime storage;
  /// BinderOrdinal is its position in the binder-counted de Bruijn
  /// numbering the bytecode compiler uses.
  struct ScopeEntry {
    Symbol Name;
    uint32_t FrameLevel;
    uint32_t Slot;
    uint32_t BinderOrdinal;
  };

  /// \p Tail: E is in tail position of the enclosing lambda body — its
  /// value is the body's value with nothing of this activation pending,
  /// and (because frame heads only occur in non-tail positions) the
  /// run-time environment at E is exactly the activation frame. Recorded
  /// on applications (AppExpr::TailPos) for self-tail-call frame reuse.
  void visit(const Expr *E, uint32_t Level, FrameShape *Shape, bool Coalesce,
             bool Tail) {
    if (!R.Ok)
      return;
    // Per-node annotations are only meaningful if each node is reachable
    // exactly once. Shared subtrees make addresses ambiguous: refuse, and
    // the executors report kSharedNodesError.
    if (!Visited.insert(E).second) {
      R.Ok = false;
      return;
    }
    switch (E->kind()) {
    case ExprKind::Const:
      return;
    case ExprKind::Var:
      resolveVar(cast<VarExpr>(E), Level);
      return;
    case ExprKind::Lam: {
      const LamExpr *L = cast<LamExpr>(E);
      FrameShape *S = R.newShape();
      S->Slots.push_back(L->Param);
      L->Shape = S;
      // A lambda anywhere inside an enclosing lambda's body can capture
      // that body's activation frame — none of the enclosing frames may
      // be reused after this point.
      clearReusable();
      LamStack.push_back({L, true});
      // The body opens a fresh frame per application, so letrecs directly
      // under it coalesce into *that* frame, never the enclosing one.
      Scope.push_back({L->Param, Level + 1, 0, numBinders()});
      visit(L->Body, Level + 1, S, /*Coalesce=*/true, /*Tail=*/true);
      Scope.pop_back();
      L->FrameReusable = LamStack.back().second;
      LamStack.pop_back();
      Cleared = std::min<size_t>(Cleared, LamStack.size());
      return;
    }
    case ExprKind::If: {
      const IfExpr *I = cast<IfExpr>(E);
      // Condition and the taken branch run exactly when the `if` does, in
      // the same environment: coalescing passes through. Only the taken
      // branch is in tail position; the condition has a pending Branch
      // frame.
      visit(I->Cond, Level, Shape, Coalesce, /*Tail=*/false);
      visit(I->Then, Level, Shape, Coalesce, Tail);
      visit(I->Else, Level, Shape, Coalesce, Tail);
      return;
    }
    case ExprKind::App: {
      const AppExpr *A = cast<AppExpr>(E);
      A->TailPos = Tail;
      // The operator is evaluated strictly under every strategy; the
      // operand may become a thunk (call-by-name re-evaluates it), so a
      // letrec inside it must keep allocating its own frame.
      visit(A->Fn, Level, Shape, Coalesce, /*Tail=*/false);
      visit(A->Arg, Level, Shape, /*Coalesce=*/false, /*Tail=*/false);
      return;
    }
    case ExprKind::Letrec: {
      const LetrecExpr *L = cast<LetrecExpr>(E);
      if (Coalesce) {
        // Member: claim the next slot of the enclosing frame. The binder
        // scopes over both the bound expression and the body.
        uint32_t Slot = Shape->numSlots();
        Shape->Slots.push_back(L->Name);
        L->Shape = nullptr;
        L->SlotIndex = Slot;
        Scope.push_back({L->Name, Level, Slot, numBinders()});
        visit(L->Bound, Level, Shape, /*Coalesce=*/false, /*Tail=*/false);
        visit(L->Body, Level, Shape, /*Coalesce=*/true, Tail);
        Scope.pop_back();
        return;
      }
      // Head: this letrec allocates a fresh frame (it may run many times
      // per enclosing frame instance — e.g. inside a thunked operand).
      // Its body runs in that fresh frame, not the lambda's activation
      // frame, so nothing under it is in tail position.
      FrameShape *S = R.newShape();
      S->Slots.push_back(L->Name);
      L->Shape = S;
      L->SlotIndex = 0;
      Scope.push_back({L->Name, Level + 1, 0, numBinders()});
      visit(L->Bound, Level + 1, S, /*Coalesce=*/false, /*Tail=*/false);
      visit(L->Body, Level + 1, S, /*Coalesce=*/true, /*Tail=*/false);
      Scope.pop_back();
      return;
    }
    case ExprKind::Prim1: {
      const Prim1Expr *P = cast<Prim1Expr>(E);
      // Primitive operands are strict under every strategy.
      visit(P->Arg, Level, Shape, Coalesce, /*Tail=*/false);
      return;
    }
    case ExprKind::Prim2: {
      const Prim2Expr *P = cast<Prim2Expr>(E);
      visit(P->Lhs, Level, Shape, Coalesce, /*Tail=*/false);
      visit(P->Rhs, Level, Shape, Coalesce, /*Tail=*/false);
      return;
    }
    case ExprKind::Annot: {
      const AnnotExpr *A = cast<AnnotExpr>(E);
      // Probes observe but never change the environment (Thm. 7.7) — but
      // they *do* observe it: a pending MonPost frame holds the current
      // env at the annotated expression, so no enclosing activation frame
      // may be reused (monitored sites keep paper-exact allocation), and
      // the inner expression is not in tail position.
      clearReusable();
      visit(A->Inner, Level, Shape, Coalesce, /*Tail=*/false);
      return;
    }
    }
  }

  void resolveVar(const VarExpr *V, uint32_t Level) {
    for (size_t I = Scope.size(); I-- > 0;) {
      const ScopeEntry &S = Scope[I];
      if (S.Name != V->Name)
        continue;
      V->Addr = VarExpr::AddrKind::Local;
      V->FrameDepth = Level - S.FrameLevel;
      V->SlotIndex = S.Slot;
      V->BinderDepth = numBinders() - 1 - S.BinderOrdinal;
      return;
    }
    const std::vector<PrimBinding> &Prims = primBindings();
    for (size_t I = 0; I < Prims.size(); ++I) {
      if (Prims[I].Name != V->Name)
        continue;
      V->Addr = VarExpr::AddrKind::Global;
      V->FrameDepth = 0;
      V->SlotIndex = static_cast<uint32_t>(I);
      V->BinderDepth = 0;
      return;
    }
    V->Addr = VarExpr::AddrKind::Unbound;
    V->FrameDepth = 0;
    V->SlotIndex = 0;
    V->BinderDepth = 0;
  }

  uint32_t numBinders() const { return static_cast<uint32_t>(Scope.size()); }

  /// Marks every lambda being visited as not reusable. Entries below the
  /// watermark are cleared already, so each entry is cleared once while
  /// it is on the stack and nested lambdas cost linear time, not
  /// quadratic.
  void clearReusable() {
    for (size_t I = Cleared; I < LamStack.size(); ++I)
      LamStack[I].second = false;
    Cleared = LamStack.size();
  }

  Resolution &R;
  std::vector<ScopeEntry> Scope;
  /// Lambdas currently being visited, each with a still-reusable flag any
  /// inner lambda or annotation clears (see LamExpr::FrameReusable).
  std::vector<std::pair<const LamExpr *, bool>> LamStack;
  /// LamStack[0, Cleared) are all false (see clearReusable).
  size_t Cleared = 0;
  std::unordered_set<const Expr *> Visited;
};

} // namespace monsem

std::unique_ptr<Resolution> monsem::resolveProgram(const Expr *Program) {
  auto R = std::make_unique<Resolution>();
  Resolver(*R).run(Program);
  // A raw resolve repoints the tree's annotations away from whatever the
  // cache may hold for this root; drop the stamp so a later cached lookup
  // re-resolves instead of returning a Resolution the annotations no
  // longer belong to.
  Program->ResolutionStamp = nullptr;
  return R;
}

namespace {

/// Guards the cache map, the per-root stamps, and — crucially — the
/// annotation-writing resolve pass itself. Holding it across the pass is
/// what publishes the AST writes to every thread that later looks the same
/// tree up: lock acquire/release gives the happens-before edge.
std::mutex &resolveCacheMutex() {
  static std::mutex M;
  return M;
}

using ResolveCache =
    std::unordered_map<const Expr *, std::shared_ptr<const Resolution>>;

ResolveCache &resolveCache() {
  // Leaked on purpose: entries may be handed out to threads that outlive
  // static destruction order.
  static ResolveCache *C = new ResolveCache();
  return *C;
}

/// Above this many entries a miss sweeps out every Resolution nobody but
/// the cache still holds. use_count() == 1 is trustworthy here because new
/// references are only ever minted under the cache mutex, which the
/// sweeper holds. Evicting a still-live tree's entry is safe (the next run
/// re-resolves while provably nobody is mid-run on it) — merely wasted
/// work, so the threshold is generous.
constexpr size_t kResolveCacheSweep = 256;

} // namespace

std::shared_ptr<const Resolution>
monsem::resolveProgramCached(const Expr *Program) {
  std::lock_guard<std::mutex> Lock(resolveCacheMutex());
  ResolveCache &Cache = resolveCache();
  auto It = Cache.find(Program);
  if (It != Cache.end() && Program->ResolutionStamp == It->second.get())
    return It->second;
  if (Cache.size() >= kResolveCacheSweep)
    for (auto SI = Cache.begin(); SI != Cache.end();)
      SI = SI->second.use_count() == 1 ? Cache.erase(SI) : std::next(SI);
  std::shared_ptr<const Resolution> Res = resolveProgram(Program);
  Program->ResolutionStamp = Res.get();
  Cache[Program] = Res;
  return Res;
}
