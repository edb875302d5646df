//===- monitors/CallGraph.h - Dynamic call-graph monitor --------*- C++ -*-===//
///
/// \file
/// Records the dynamic call graph over annotated functions (an extension
/// monitor): an edge caller -> callee is counted whenever a probe for
/// `callee` fires while `caller`'s probe is the innermost live one. The
/// monitor maintains its own stack from pre/post events — no evaluator
/// support needed.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_CALLGRAPH_H
#define MONSEM_MONITORS_CALLGRAPH_H

#include "monitor/MonitorSpec.h"

#include <map>
#include <string>
#include <vector>

namespace monsem {

class CallGraphState : public MonitorState {
public:
  /// Orders (caller, callee) pairs as std::pair<std::string, std::string>
  /// does, and lets the table be searched by a pair of string_views.
  struct EdgeLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A &L, const B &R) const {
      return std::pair<std::string_view, std::string_view>(L.first,
                                                           L.second) <
             std::pair<std::string_view, std::string_view>(R.first, R.second);
    }
  };

  /// (caller, callee) -> count. The synthetic root caller is "<root>".
  std::map<std::pair<std::string, std::string>, uint64_t, EdgeLess> Edges;
  std::vector<std::string> Stack;

  uint64_t edge(std::string_view From, std::string_view To) const {
    auto It = Edges.find(std::pair(From, To));
    return It == Edges.end() ? 0 : It->second;
  }

  /// "<root> -> fac: 1, fac -> fac: 3, fac -> mul: 3" style.
  std::string str() const override {
    std::string Out;
    bool First = true;
    for (const auto &[Edge, N] : Edges) {
      if (!First)
        Out += ", ";
      First = false;
      Out += Edge.first + " -> " + Edge.second + ": " + std::to_string(N);
    }
    return Out;
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Edges.size()));
    for (const auto &[Edge, N] : Edges) {
      S.writeString(Edge.first);
      S.writeString(Edge.second);
      S.writeU64(N);
    }
    S.writeU32(static_cast<uint32_t>(Stack.size()));
    for (const std::string &Name : Stack)
      S.writeString(Name);
  }
  void load(Deserializer &D) override {
    Edges.clear();
    Stack.clear();
    uint32_t NE = D.readU32();
    for (uint32_t I = 0; I < NE && D.ok(); ++I) {
      std::string From = D.readString();
      std::string To = D.readString();
      Edges[{std::move(From), std::move(To)}] = D.readU64();
    }
    uint32_t NS = D.readU32();
    for (uint32_t I = 0; I < NS && D.ok(); ++I)
      Stack.push_back(D.readString());
  }
};

class CallGraphMonitor : public Monitor {
public:
  std::string_view name() const override { return "callgraph"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<CallGraphState>();
  }

  void pre(const MonitorEvent &Ev, MonitorState &State) const override {
    auto &S = static_cast<CallGraphState &>(State);
    std::string_view Callee = Ev.Ann.Head.str();
    std::string_view Caller =
        S.Stack.empty() ? std::string_view("<root>") : S.Stack.back();
    ++entryFor(S.Edges, std::pair(Caller, Callee));
    S.Stack.emplace_back(Callee);
  }

  void post(const MonitorEvent &, Value, MonitorState &State) const override {
    auto &S = static_cast<CallGraphState &>(State);
    if (!S.Stack.empty())
      S.Stack.pop_back();
  }

  static const CallGraphState &state(const MonitorState &S) {
    return static_cast<const CallGraphState &>(S);
  }
};

} // namespace monsem

#endif // MONSEM_MONITORS_CALLGRAPH_H
