//===- imp/ImpMonitor.cpp --------------------------------------------------===//

#include "imp/ImpMonitor.h"

#include <algorithm>

using namespace monsem;

ImpMonitor::~ImpMonitor() = default;

std::string ImpStoreView::str() const {
  std::vector<std::pair<std::string, std::string>> Entries;
  for (const auto &[Name, Val] : S)
    Entries.emplace_back(std::string(Name.str()), toDisplayString(Val));
  std::sort(Entries.begin(), Entries.end());
  std::string Out = "[";
  for (size_t I = 0; I < Entries.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += Entries[I].first + " = " + Entries[I].second;
  }
  return Out + "]";
}

int ImpCascade::resolve(const Annotation &Ann, DiagnosticSink *Diags) const {
  if (Ann.Qual) {
    for (unsigned I = 0; I < Monitors.size(); ++I)
      if (Monitors[I]->name() == Ann.Qual.str())
        return static_cast<int>(I);
    return -1;
  }
  int Found = -1;
  for (unsigned I = 0; I < Monitors.size(); ++I) {
    if (!Monitors[I]->accepts(Ann))
      continue;
    if (Found >= 0) {
      if (Diags)
        Diags->error(Ann.Loc, "annotation " + Ann.text() +
                                  " is claimed by two monitors");
      return -2;
    }
    Found = static_cast<int>(I);
  }
  return Found;
}

bool ImpCascade::validateFor(const Cmd *Program, DiagnosticSink &Diags) const {
  std::vector<const Annotation *> Anns;
  collectCmdAnnotations(Program, Anns);
  bool Ok = true;
  for (const Annotation *Ann : Anns)
    if (resolve(*Ann, &Diags) == -2)
      Ok = false;
  return Ok;
}

ImpRuntimeCascade::ImpRuntimeCascade(const ImpCascade &C,
                                     FaultPolicy DefaultPolicy,
                                     unsigned RetryBudget)
    : C(C) {
  for (unsigned I = 0; I < C.size(); ++I)
    States.push_back(C.monitor(I).initialState());
  Iso.configure(C.size(), DefaultPolicy, RetryBudget);
  for (unsigned I = 0; I < C.size(); ++I)
    if (auto P = C.faultPolicy(I))
      Iso.setPolicy(I, *P);
}

int ImpRuntimeCascade::resolveCached(const Annotation &Ann) {
  auto It = Cache.find(&Ann);
  if (It != Cache.end())
    return It->second;
  int Idx = C.resolve(Ann);
  if (Idx == -2)
    Idx = -1;
  Cache.emplace(&Ann, Idx);
  return Idx;
}

void ImpRuntimeCascade::pre(const Annotation &Ann, const Cmd &Cm,
                            const ImpStore &S, uint64_t Step) {
  int Idx = resolveCached(Ann);
  if (Idx < 0)
    return;
  ImpMonitorEvent Ev{Ann, Cm, ImpStoreView(S), Step};
  Iso.guard(static_cast<unsigned>(Idx), C.monitor(Idx).name(),
            [&Ann] { return Ann.text(); },
            /*InPost=*/false, Step,
            [&] { C.monitor(Idx).pre(Ev, *States[Idx]); });
}

void ImpRuntimeCascade::post(const Annotation &Ann, const Cmd &Cm,
                             const ImpStore &S, uint64_t Step) {
  int Idx = resolveCached(Ann);
  if (Idx < 0)
    return;
  ImpMonitorEvent Ev{Ann, Cm, ImpStoreView(S), Step};
  Iso.guard(static_cast<unsigned>(Idx), C.monitor(Idx).name(),
            [&Ann] { return Ann.text(); },
            /*InPost=*/true, Step,
            [&] { C.monitor(Idx).post(Ev, *States[Idx]); });
}

std::vector<std::unique_ptr<MonitorState>> ImpRuntimeCascade::takeStates() {
  return std::move(States);
}
