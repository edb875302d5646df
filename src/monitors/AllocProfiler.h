//===- monitors/AllocProfiler.h - Allocation profiler -----------*- C++ -*-===//
///
/// \file
/// A heap/allocation profiler (extension monitor): for each annotation
/// label it accumulates the *inclusive* arena bytes allocated while the
/// annotated expression evaluated — post's AllocatedBytes minus pre's.
/// Works on every evaluator that reports its arena counter through the
/// probe interface (CEK machine, bytecode VM, direct interpreter, and the
/// imperative module's expression evaluator).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_ALLOCPROFILER_H
#define MONSEM_MONITORS_ALLOCPROFILER_H

#include "monitor/MonitorSpec.h"

#include <map>
#include <string>
#include <vector>

namespace monsem {

class AllocProfilerState : public MonitorState {
public:
  struct Entry {
    uint64_t Calls = 0;
    uint64_t TotalBytes = 0;
    uint64_t MaxBytes = 0;
  };

  std::map<std::string, Entry, std::less<>> Entries;
  /// Live probes: (label, bytes at entry).
  std::vector<std::pair<std::string, uint64_t>> Stack;

  const Entry *entry(std::string_view Label) const {
    auto It = Entries.find(Label);
    return It == Entries.end() ? nullptr : &It->second;
  }

  std::string str() const override {
    std::string Out = "[";
    bool First = true;
    for (const auto &[Label, E] : Entries) {
      if (!First)
        Out += ", ";
      First = false;
      Out += Label + ": calls=" + std::to_string(E.Calls) +
             " bytes=" + std::to_string(E.TotalBytes);
    }
    return Out + "]";
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Entries.size()));
    for (const auto &[Label, E] : Entries) {
      S.writeString(Label);
      S.writeU64(E.Calls);
      S.writeU64(E.TotalBytes);
      S.writeU64(E.MaxBytes);
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
      E.TotalBytes = D.readU64();
      E.MaxBytes = D.readU64();
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

class AllocProfiler : public Monitor {
public:
  std::string_view name() const override { return "alloc"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<AllocProfilerState>();
  }

  void pre(const MonitorEvent &Ev, MonitorState &State) const override {
    auto &S = static_cast<AllocProfilerState &>(State);
    S.Stack.emplace_back(Ev.Ann.Head.str(), Ev.AllocatedBytes);
  }

  void post(const MonitorEvent &Ev, Value, MonitorState &State) const override {
    auto &S = static_cast<AllocProfilerState &>(State);
    if (S.Stack.empty())
      return;
    // Label and Start refer into the top entry: pop it only after use.
    const auto &[Label, Start] = S.Stack.back();
    uint64_t Bytes =
        Ev.AllocatedBytes >= Start ? Ev.AllocatedBytes - Start : 0;
    auto &E = entryFor(S.Entries, Label);
    S.Stack.pop_back();
    ++E.Calls;
    E.TotalBytes += Bytes;
    if (Bytes > E.MaxBytes)
      E.MaxBytes = Bytes;
  }

  static const AllocProfilerState &state(const MonitorState &S) {
    return static_cast<const AllocProfilerState &>(S);
  }
};

} // namespace monsem

#endif // MONSEM_MONITORS_ALLOCPROFILER_H
