//===- monitors/CostProfiler.h - Inclusive step-cost profiler ---*- C++ -*-===//
///
/// \file
/// A cost profiler in the spirit of gprof, built from the same Definition
/// 5.1 recipe (an extension beyond the paper's toolbox): for each
/// annotation label it accumulates the *inclusive* machine-step cost of
/// evaluating the annotated expression — post's StepIndex minus pre's —
/// plus call counts and min/max. The semantic context already carries the
/// step counter, so no machine support is needed: this is exactly the kind
/// of monitor the paper's framework lets users add "in an effective,
/// straightforward way".
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_COSTPROFILER_H
#define MONSEM_MONITORS_COSTPROFILER_H

#include "monitor/MonitorSpec.h"

#include <map>
#include <string>
#include <vector>

namespace monsem {

class CostProfilerState : public MonitorState {
public:
  struct Entry {
    uint64_t Calls = 0;
    uint64_t TotalSteps = 0;
    uint64_t MinSteps = UINT64_MAX;
    uint64_t MaxSteps = 0;
  };

  std::map<std::string, Entry, std::less<>> Entries;
  /// Live probes: (label, entry StepIndex) — one per nested active probe.
  std::vector<std::pair<std::string, uint64_t>> Stack;

  const Entry *entry(std::string_view Label) const {
    auto It = Entries.find(Label);
    return It == Entries.end() ? nullptr : &It->second;
  }

  /// "[fac: calls=4 total=57 avg=14]"-style summary, sorted by label.
  std::string str() const override {
    std::string Out = "[";
    bool First = true;
    for (const auto &[Label, E] : Entries) {
      if (!First)
        Out += ", ";
      First = false;
      Out += Label + ": calls=" + std::to_string(E.Calls) +
             " total=" + std::to_string(E.TotalSteps) +
             " avg=" + std::to_string(E.Calls ? E.TotalSteps / E.Calls : 0);
    }
    return Out + "]";
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Entries.size()));
    for (const auto &[Label, E] : Entries) {
      S.writeString(Label);
      S.writeU64(E.Calls);
      S.writeU64(E.TotalSteps);
      S.writeU64(E.MinSteps);
      S.writeU64(E.MaxSteps);
    }
    S.writeU32(static_cast<uint32_t>(Stack.size()));
    for (const auto &[Label, Start] : Stack) {
      S.writeString(Label);
      S.writeU64(Start);
    }
  }
  void load(Deserializer &D) override {
    Entries.clear();
    Stack.clear();
    uint32_t NE = D.readU32();
    for (uint32_t I = 0; I < NE && D.ok(); ++I) {
      std::string Label = D.readString();
      Entry E;
      E.Calls = D.readU64();
      E.TotalSteps = D.readU64();
      E.MinSteps = D.readU64();
      E.MaxSteps = D.readU64();
      Entries[std::move(Label)] = E;
    }
    uint32_t NS = D.readU32();
    for (uint32_t I = 0; I < NS && D.ok(); ++I) {
      std::string Label = D.readString();
      uint64_t Start = D.readU64();
      Stack.emplace_back(std::move(Label), Start);
    }
  }
};

class CostProfiler : public Monitor {
public:
  std::string_view name() const override { return "cost"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<CostProfilerState>();
  }

  void pre(const MonitorEvent &Ev, MonitorState &State) const override {
    auto &S = static_cast<CostProfilerState &>(State);
    S.Stack.emplace_back(Ev.Ann.Head.str(), Ev.StepIndex);
  }

  void post(const MonitorEvent &Ev, Value, MonitorState &State) const override {
    auto &S = static_cast<CostProfilerState &>(State);
    if (S.Stack.empty())
      return; // Defensive: unmatched post (cannot happen in well-formed runs).
    // Label and Start refer into the top entry: pop it only after use.
    const auto &[Label, Start] = S.Stack.back();
    uint64_t Cost = Ev.StepIndex >= Start ? Ev.StepIndex - Start : 0;
    auto &E = entryFor(S.Entries, Label);
    S.Stack.pop_back();
    ++E.Calls;
    E.TotalSteps += Cost;
    if (Cost < E.MinSteps)
      E.MinSteps = Cost;
    if (Cost > E.MaxSteps)
      E.MaxSteps = Cost;
  }

  static const CostProfilerState &state(const MonitorState &S) {
    return static_cast<const CostProfilerState &>(S);
  }
};

} // namespace monsem

#endif // MONSEM_MONITORS_COSTPROFILER_H
