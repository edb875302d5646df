//===- monitors/Profiler.h - Profiling monitors -----------------*- C++ -*-===//
///
/// \file
/// Two profiler specifications from the paper:
///
///  * CountingProfiler (Fig. 4, Section 5): counts evaluations of
///    expressions labeled with one of two fixed annotations ("A"/"B" in the
///    paper); its state is the pair of counters <a, b>.
///
///  * CallProfiler (Fig. 6, Section 8): counts how many times each named
///    function is called. The annotation syntax is a bare function name
///    `{f}` placed on the function body; the state is the counter
///    environment CEnv = Ide -> N. M_pre is incCtr, M_post is the identity.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_PROFILER_H
#define MONSEM_MONITORS_PROFILER_H

#include "monitor/MonitorSpec.h"

#include <cstdint>
#include <map>
#include <string>

namespace monsem {

//===----------------------------------------------------------------------===//
// CountingProfiler (Fig. 4)
//===----------------------------------------------------------------------===//

class CountingProfilerState : public MonitorState {
public:
  uint64_t CountA = 0;
  uint64_t CountB = 0;

  /// "<1, 5>" — the paper's sigma = <1, 5>.
  std::string str() const override {
    return "<" + std::to_string(CountA) + ", " + std::to_string(CountB) + ">";
  }

  void save(Serializer &S) const override {
    S.writeU64(CountA);
    S.writeU64(CountB);
  }
  void load(Deserializer &D) override {
    CountA = D.readU64();
    CountB = D.readU64();
  }
};

class CountingProfiler : public Monitor {
public:
  /// Counts annotations labeled \p LabelA and \p LabelB ("A"/"B" in the
  /// paper's Fig. 4).
  CountingProfiler(std::string_view LabelA = "A", std::string_view LabelB = "B")
      : LabelA(Symbol::intern(LabelA)), LabelB(Symbol::intern(LabelB)) {}

  std::string_view name() const override { return "count"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams && (Ann.Head == LabelA || Ann.Head == LabelB);
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<CountingProfilerState>();
  }
  void pre(const MonitorEvent &Ev, MonitorState &State) const override {
    auto &S = static_cast<CountingProfilerState &>(State);
    if (Ev.Ann.Head == LabelA)
      ++S.CountA;
    else
      ++S.CountB;
  }
  void post(const MonitorEvent &, Value, MonitorState &) const override {}

  static const CountingProfilerState &state(const MonitorState &S) {
    return static_cast<const CountingProfilerState &>(S);
  }

private:
  Symbol LabelA, LabelB;
};

//===----------------------------------------------------------------------===//
// CallProfiler (Fig. 6)
//===----------------------------------------------------------------------===//

/// The counter environment CEnv = Ide -> N. The map is keyed by spelling so
/// str() renders alphabetically, matching the paper's [fac -> 4, mul -> 3].
class CallProfilerState : public MonitorState {
public:
  std::map<std::string, uint64_t, std::less<>> Counters;

  uint64_t count(std::string_view Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  std::string str() const override {
    std::string Out = "[";
    bool First = true;
    for (const auto &[Name, N] : Counters) {
      if (!First)
        Out += ", ";
      First = false;
      Out += Name + " -> " + std::to_string(N);
    }
    return Out + "]";
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Counters.size()));
    for (const auto &[Name, N] : Counters) {
      S.writeString(Name);
      S.writeU64(N);
    }
  }
  void load(Deserializer &D) override {
    Counters.clear();
    uint32_t N = D.readU32();
    for (uint32_t I = 0; I < N && D.ok(); ++I) {
      std::string Name = D.readString();
      Counters[Name] = D.readU64();
    }
  }
};

class CallProfiler : public Monitor {
public:
  std::string_view name() const override { return "profile"; }

  /// MSyn: a bare function name (no parameter list).
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<CallProfilerState>();
  }

  /// incCtr [f] rho_c.
  void pre(const MonitorEvent &Ev, MonitorState &State) const override {
    auto &S = static_cast<CallProfilerState &>(State);
    ++entryFor(S.Counters, Ev.Ann.Head.str());
  }

  /// M_post [f] [e] rho v rho_c = rho_c.
  void post(const MonitorEvent &, Value, MonitorState &) const override {}

  static const CallProfilerState &state(const MonitorState &S) {
    return static_cast<const CallProfilerState &>(S);
  }
};

} // namespace monsem

#endif // MONSEM_MONITORS_PROFILER_H
