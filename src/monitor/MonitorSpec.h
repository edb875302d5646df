//===- monitor/MonitorSpec.h - Monitor specifications -----------*- C++ -*-===//
///
/// \file
/// Definition 5.1: a monitor specification is a triple
/// Mon = (MSyn, MAlg, MFun):
///
///  * MSyn — the syntactic domain of monitor annotations: here, the
///    `accepts` predicate over Annotation values (which annotations belong
///    to this monitor's annotation language);
///  * MAlg — the monitor algebras, in particular the monitor-state domain
///    MS: here, the MonitorState subclass built by `initialState`;
///  * MFun — the pair of monitoring functions
///      M_pre  : Ann -> S -> A* -> MS -> MS
///      M_post : Ann -> S -> A* -> A*' -> MS -> MS
///    here, the `pre` and `post` virtual methods.
///
/// Soundness by construction (Theorem 7.7): `pre`/`post` receive const
/// views of the syntax, the semantic context, and the intermediate result,
/// and a mutable reference only to the monitor's *own* state. A monitor is
/// therefore a monitor-state transformer and cannot change program
/// behavior. (Monitors may perform I/O — e.g. the interactive debugger —
/// but only through channels held in their own state.)
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITOR_MONITORSPEC_H
#define MONSEM_MONITOR_MONITORSPEC_H

#include "semantics/Value.h"
#include "support/Checkpoint.h"
#include "syntax/Ast.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace monsem {

/// Root of all monitor-state domains (the sigma in MS). Concrete monitors
/// define their own subclass; the framework only creates, owns, and hands
/// back these objects.
class MonitorState {
public:
  virtual ~MonitorState() = default;

  /// Human-readable rendering of the final state (used by examples and
  /// EXPERIMENTS.md); the paper prints states like `[fac -> 4, mul -> 3]`.
  virtual std::string str() const { return "<state>"; }

  /// Checkpoint support: serialize this state's *data* — counters, tables,
  /// buffered output — never live handles (streams, ballast, callbacks),
  /// which the owning Monitor re-establishes through initialState() on
  /// resume. The default saves nothing, which is correct for stateless
  /// monitors; a monitor that keeps data and does not override these pairs
  /// resumes with a fresh state. See docs/WRITING_MONITORS.md ("Making
  /// your monitor checkpointable").
  virtual void save(Serializer &S) const {}

  /// Inverse of save(): called on a state freshly built by initialState(),
  /// so members not written by save() keep their initial-state values.
  /// Report malformed input via D.fail(); never trust sizes blindly.
  virtual void load(Deserializer &D) {}
};

/// The entry for \p Key in a std::map with a transparent comparator (e.g.
/// std::string keys under std::less<>, looked up by std::string_view),
/// value-initialized on first use. Monitor states keep spelling-keyed
/// tables so str() renders them sorted; a hit on an existing key allocates
/// nothing, so pre/post stay cheap.
template <typename Map, typename Key>
typename Map::mapped_type &entryFor(Map &M, const Key &K) {
  auto It = M.lower_bound(K);
  if (It == M.end() || M.key_comp()(K, It->first))
    It = M.emplace_hint(It, std::piecewise_construct,
                        std::forward_as_tuple(K), std::forward_as_tuple());
  return It->second;
}

/// Read-only view of the semantic context (the A*_i arguments: for
/// L_lambda, the environment rho) that a monitoring function receives.
class EnvView {
public:
  explicit EnvView(const EnvNode *Env) : Node(Env) {}
  /// Flat-frame view; \p Table is the resolving Resolution's shape table
  /// (frames store shape ids, not shape pointers).
  EnvView(const EnvFrame *Env, FrameShapeTable Table)
      : Frame(Env), Table(Table) {}

  /// rho(x): innermost binding of \p Name, if any. On the flat-frame
  /// representation, Unit slots (letrec members whose binder has not run
  /// yet) are treated as absent.
  std::optional<Value> lookup(Symbol Name) const {
    if (Frame) {
      if (const Value *V = lookupFrame(Frame, Name, Table))
        return *V;
      return std::nullopt;
    }
    for (const EnvNode *N = Node; N; N = N->Parent)
      if (N->Name == Name)
        return N->Val;
    return std::nullopt;
  }

  /// ToStr(rho(x)) with "?" for unbound names — the tracer's convention.
  std::string lookupStr(Symbol Name) const {
    std::string Out;
    appendStr(Out, Name);
    return Out;
  }

  /// Appends lookupStr(Name) to \p Out.
  void appendStr(std::string &Out, Symbol Name) const {
    if (auto V = lookup(Name))
      appendDisplayString(Out, *V);
    else
      Out += '?';
  }

  /// The visible bindings, innermost first, up to \p Limit entries.
  /// Shadowed duplicates are included (callers can filter).
  std::vector<std::pair<Symbol, Value>> bindings(size_t Limit = 32) const {
    std::vector<std::pair<Symbol, Value>> Out;
    if (Frame) {
      for (const EnvFrame *F = Frame; F && Out.size() < Limit;
           F = F->parent()) {
        const FrameShape *S = frameShape(F, Table);
        for (uint32_t I = S->numSlots(); I-- > 0 && Out.size() < Limit;)
          if (!F->slots()[I].isUnit())
            Out.emplace_back(S->slotName(I), F->slots()[I]);
      }
      return Out;
    }
    for (const EnvNode *N = Node; N && Out.size() < Limit; N = N->Parent)
      Out.emplace_back(N->Name, N->Val);
    return Out;
  }

private:
  const EnvNode *Node = nullptr;
  const EnvFrame *Frame = nullptr;
  FrameShapeTable Table = nullptr;
};

/// What a monitoring function may observe about the rest of the cascade:
/// the states of the monitors *inside* it (derived earlier). This is the
/// Section 6 remark that "a monitor could monitor the behavior of the
/// monitors before it in the cascade".
class MonitorContext {
public:
  virtual ~MonitorContext() = default;

  /// Number of monitors inside the current one in the cascade.
  virtual unsigned numInnerMonitors() const = 0;

  /// Read-only state of inner monitor \p Idx (0 = innermost).
  virtual const MonitorState &innerState(unsigned Idx) const = 0;
};

/// One monitoring probe: the data passed to both M_pre and M_post
/// (M_post additionally receives the intermediate result).
struct MonitorEvent {
  const Annotation &Ann; ///< mu — the annotation.
  const Expr &E;         ///< sbar' — the annotated expression.
  EnvView Env;           ///< rho — the semantic context.
  uint64_t StepIndex;    ///< Machine step count at probe time.
  uint64_t AllocatedBytes; ///< Cumulative arena allocation at probe time.
  const MonitorContext &Ctx;
};

/// A monitor specification (see file comment). Instances are immutable and
/// shareable; all per-run data lives in the MonitorState.
class Monitor {
public:
  virtual ~Monitor();

  /// Monitor name; doubles as the annotation qualifier this monitor claims
  /// (an annotation `{name:...}` is routed to the monitor called `name`).
  virtual std::string_view name() const = 0;

  /// MSyn: does \p Ann belong to this monitor's annotation syntax?
  /// Qualified annotations are pre-routed by qualifier; this predicate is
  /// consulted for the unqualified ones.
  virtual bool accepts(const Annotation &Ann) const = 0;

  /// MAlg: a fresh initial monitor state (the paper's initState/initEnv).
  virtual std::unique_ptr<MonitorState> initialState() const = 0;

  /// MFun, first component: sigma' = M_pre mu sbar' a* sigma.
  virtual void pre(const MonitorEvent &Ev, MonitorState &State) const = 0;

  /// MFun, second component: sigma' = M_post mu sbar' a* iota* sigma.
  virtual void post(const MonitorEvent &Ev, Value Result,
                    MonitorState &State) const = 0;
};

} // namespace monsem

#endif // MONSEM_MONITOR_MONITORSPEC_H
