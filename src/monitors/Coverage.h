//===- monitors/Coverage.h - Coverage monitor (extension) -------*- C++ -*-===//
///
/// \file
/// A coverage monitor, built from the same three-part recipe as the paper's
/// examples (an extension beyond the paper's toolbox). Combined with
/// labelProgramPoints (Annotator.h), which labels every application with
/// `{p0}, {p1}, ...`, it reports which program points executed.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_COVERAGE_H
#define MONSEM_MONITORS_COVERAGE_H

#include "monitor/MonitorSpec.h"

#include <set>
#include <string>

namespace monsem {

class CoverageState : public MonitorState {
public:
  std::set<std::string, std::less<>> Hit;
  uint64_t TotalHits = 0;
  unsigned TotalPoints = 0;

  double ratio() const {
    return TotalPoints == 0
               ? 0.0
               : static_cast<double>(Hit.size()) / TotalPoints;
  }

  std::string str() const override {
    std::string Out = std::to_string(Hit.size());
    if (TotalPoints)
      Out += "/" + std::to_string(TotalPoints);
    Out += " points hit (" + std::to_string(TotalHits) + " events)";
    return Out;
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Hit.size()));
    for (const std::string &P : Hit)
      S.writeString(P);
    S.writeU64(TotalHits);
    S.writeU32(TotalPoints);
  }
  void load(Deserializer &D) override {
    Hit.clear();
    uint32_t N = D.readU32();
    for (uint32_t I = 0; I < N && D.ok(); ++I)
      Hit.insert(D.readString());
    TotalHits = D.readU64();
    TotalPoints = D.readU32();
  }
};

class CoverageMonitor : public Monitor {
public:
  /// \p TotalPoints is the label count from labelProgramPoints (0 if
  /// unknown).
  explicit CoverageMonitor(unsigned TotalPoints = 0)
      : TotalPoints(TotalPoints) {}

  std::string_view name() const override { return "cover"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    auto S = std::make_unique<CoverageState>();
    S->TotalPoints = TotalPoints;
    return S;
  }
  void pre(const MonitorEvent &Ev, MonitorState &State) const override {
    auto &S = static_cast<CoverageState &>(State);
    std::string_view Point = Ev.Ann.Head.str();
    if (S.Hit.find(Point) == S.Hit.end())
      S.Hit.emplace(Point);
    ++S.TotalHits;
  }
  void post(const MonitorEvent &, Value, MonitorState &) const override {}

  static const CoverageState &state(const MonitorState &S) {
    return static_cast<const CoverageState &>(S);
  }

private:
  unsigned TotalPoints;
};

} // namespace monsem

#endif // MONSEM_MONITORS_COVERAGE_H
