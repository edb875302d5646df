//===- imp/ImpMonitors.h - Monitor toolbox for L_imp ------------*- C++ -*-===//
///
/// \file
/// Imperative-language monitors built from the same recipe as Section 8:
///
///  * ImpStmtProfiler — counts executions of labeled commands;
///  * ImpWatchMonitor — a Magpie-style demon [DMS84] watching one variable:
///    logs every observed change of its value at annotated commands;
///  * ImpTracer — logs annotated commands with a store snapshot;
///  * ImpInvariantDemon — checks a store predicate after each labeled
///    command and records the labels where it was violated.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_IMP_IMPMONITORS_H
#define MONSEM_IMP_IMPMONITORS_H

#include "imp/ImpMonitor.h"
#include "support/OutChan.h"

#include <functional>
#include <map>
#include <set>

namespace monsem {

//===----------------------------------------------------------------------===//
// Statement profiler
//===----------------------------------------------------------------------===//

class ImpStmtProfilerState : public MonitorState {
public:
  std::map<std::string, uint64_t, std::less<>> Counters;

  uint64_t count(std::string_view Label) const {
    auto It = Counters.find(Label);
    return It == Counters.end() ? 0 : It->second;
  }

  std::string str() const override {
    std::string Out = "[";
    bool First = true;
    for (const auto &[L, N] : Counters) {
      if (!First)
        Out += ", ";
      First = false;
      Out += L + " -> " + std::to_string(N);
    }
    return Out + "]";
  }
};

class ImpStmtProfiler : public ImpMonitor {
public:
  std::string_view name() const override { return "profile"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<ImpStmtProfilerState>();
  }
  void pre(const ImpMonitorEvent &Ev, MonitorState &S) const override {
    ++entryFor(static_cast<ImpStmtProfilerState &>(S).Counters,
               Ev.Ann.Head.str());
  }
  void post(const ImpMonitorEvent &, MonitorState &) const override {}

  static const ImpStmtProfilerState &state(const MonitorState &S) {
    return static_cast<const ImpStmtProfilerState &>(S);
  }
};

//===----------------------------------------------------------------------===//
// Watchpoint demon (Magpie-style)
//===----------------------------------------------------------------------===//

class ImpWatchState : public MonitorState {
public:
  OutChan Chan;
  /// Value snapshots taken by pre, one per live (nested) probe.
  std::vector<std::string> Snapshots;

  std::string str() const override { return Chan.str(); }
};

/// Watches variable \p Var: after every annotated command, if the rendered
/// value of Var changed, logs "<label>: var <old> -> <new>".
class ImpWatchMonitor : public ImpMonitor {
public:
  explicit ImpWatchMonitor(std::string_view Var)
      : Var(Symbol::intern(Var)) {}

  std::string_view name() const override { return "watch"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<ImpWatchState>();
  }
  void pre(const ImpMonitorEvent &Ev, MonitorState &S) const override {
    // Capture the value before the command so post can diff.
    auto &St = static_cast<ImpWatchState &>(S);
    St.Snapshots.push_back(Ev.Store.lookupStr(Var));
  }
  void post(const ImpMonitorEvent &Ev, MonitorState &S) const override {
    auto &St = static_cast<ImpWatchState &>(S);
    std::string Before = St.Snapshots.back();
    St.Snapshots.pop_back();
    std::string Now = Ev.Store.lookupStr(Var);
    if (Now != Before)
      St.Chan.addLine(std::string(Ev.Ann.Head.str()) + ": " +
                      std::string(Var.str()) + " " + Before + " -> " + Now);
  }

  static const ImpWatchState &state(const MonitorState &S) {
    return static_cast<const ImpWatchState &>(S);
  }

private:
  Symbol Var;
};

//===----------------------------------------------------------------------===//
// Command tracer
//===----------------------------------------------------------------------===//

class ImpTracerState : public MonitorState {
public:
  OutChan Chan;
  int Level = 0;
  std::string str() const override { return Chan.str(); }
};

/// Logs `-> label [store]` / `<- label [store]` around annotated commands.
class ImpTracer : public ImpMonitor {
public:
  std::string_view name() const override { return "trace"; }
  bool accepts(const Annotation &) const override { return true; }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<ImpTracerState>();
  }
  void pre(const ImpMonitorEvent &Ev, MonitorState &S) const override {
    auto &St = static_cast<ImpTracerState &>(S);
    St.Chan.addLine(std::string(2 * St.Level, ' ') + "-> " +
                    std::string(Ev.Ann.Head.str()) + " " + Ev.Store.str());
    ++St.Level;
  }
  void post(const ImpMonitorEvent &Ev, MonitorState &S) const override {
    auto &St = static_cast<ImpTracerState &>(S);
    --St.Level;
    St.Chan.addLine(std::string(2 * St.Level, ' ') + "<- " +
                    std::string(Ev.Ann.Head.str()) + " " + Ev.Store.str());
  }

  static const ImpTracerState &state(const MonitorState &S) {
    return static_cast<const ImpTracerState &>(S);
  }
};

//===----------------------------------------------------------------------===//
// Store-invariant demon
//===----------------------------------------------------------------------===//

class ImpInvariantState : public MonitorState {
public:
  std::set<std::string> Violations;
  std::string str() const override {
    std::string Out = "{";
    bool First = true;
    for (const std::string &L : Violations) {
      if (!First)
        Out += ", ";
      First = false;
      Out += L;
    }
    return Out + "}";
  }
};

/// Fires when \p Invariant returns false on the store after an annotated
/// command (cf. the sorted-list demon of Fig. 8, lifted to stores).
class ImpInvariantDemon : public ImpMonitor {
public:
  ImpInvariantDemon(std::string Name,
                    std::function<bool(const ImpStoreView &)> Invariant)
      : MonitorName(std::move(Name)), Invariant(std::move(Invariant)) {}

  std::string_view name() const override { return MonitorName; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<ImpInvariantState>();
  }
  void pre(const ImpMonitorEvent &, MonitorState &) const override {}
  void post(const ImpMonitorEvent &Ev, MonitorState &S) const override {
    if (!Invariant(Ev.Store))
      static_cast<ImpInvariantState &>(S).Violations.insert(
          std::string(Ev.Ann.Head.str()));
  }

  static const ImpInvariantState &state(const MonitorState &S) {
    return static_cast<const ImpInvariantState &>(S);
  }

private:
  std::string MonitorName;
  std::function<bool(const ImpStoreView &)> Invariant;
};

} // namespace monsem

#endif // MONSEM_IMP_IMPMONITORS_H
