//===- monitor/Cascade.cpp -------------------------------------------------===//

#include "monitor/Cascade.h"

using namespace monsem;

Monitor::~Monitor() = default;

int Cascade::resolve(const Annotation &Ann, DiagnosticSink *Diags) const {
  // Qualified annotations route by monitor name and are unambiguous.
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
        Diags->error(Ann.Loc,
                     "annotation " + Ann.text() +
                         " is claimed by two monitors ('" +
                         std::string(Monitors[Found]->name()) + "' and '" +
                         std::string(Monitors[I]->name()) +
                         "'); qualify it or make the syntaxes disjoint");
      return -2;
    }
    Found = static_cast<int>(I);
  }
  return Found;
}

bool Cascade::validateFor(const Expr *Program, DiagnosticSink &Diags) const {
  std::vector<const Annotation *> Anns;
  collectAnnotations(Program, Anns);
  bool Ok = true;
  for (const Annotation *Ann : Anns)
    if (resolve(*Ann, &Diags) == -2)
      Ok = false;
  return Ok;
}

unsigned Cascade::reportUnclaimed(const Expr *Program,
                                  DiagnosticSink &Diags) const {
  std::vector<const Annotation *> Anns;
  collectAnnotations(Program, Anns);
  unsigned Count = 0;
  for (const Annotation *Ann : Anns) {
    if (resolve(*Ann) == -1) {
      ++Count;
      Diags.warning(Ann->Loc, "annotation " + Ann->text() +
                                  " is not claimed by any monitor in the "
                                  "cascade and will be skipped");
    }
  }
  return Count;
}

Cascade monsem::cascadeOf(std::initializer_list<const Monitor *> Ms) {
  Cascade C;
  for (const Monitor *M : Ms)
    C.use(*M);
  return C;
}

RuntimeCascade::RuntimeCascade(const Cascade &C, FaultPolicy DefaultPolicy,
                               unsigned RetryBudget)
    : C(C) {
  for (unsigned I = 0; I < C.size(); ++I)
    States.push_back(C.monitor(I).initialState());
  Iso.configure(C.size(), DefaultPolicy, RetryBudget);
  for (unsigned I = 0; I < C.size(); ++I)
    if (auto P = C.faultPolicy(I))
      Iso.setPolicy(I, *P);
}

int RuntimeCascade::resolveCached(const Annotation &Ann) {
  auto It = ResolutionCache.find(&Ann);
  if (It != ResolutionCache.end())
    return It->second;
  int Idx = C.resolve(Ann);
  if (Idx == -2)
    Idx = -1; // Ambiguous: validateFor should have caught it; skip probe.
  ResolutionCache.emplace(&Ann, Idx);
  return Idx;
}

void RuntimeCascade::pre(const Annotation &Ann, const Expr &E, EnvView Env,
                         uint64_t StepIndex, uint64_t AllocatedBytes) {
  int Idx = resolveCached(Ann);
  if (Idx < 0)
    return;
  InnerView View(*this, static_cast<unsigned>(Idx));
  MonitorEvent Ev{Ann, E, Env, StepIndex, AllocatedBytes, View};
  Iso.guard(static_cast<unsigned>(Idx), C.monitor(Idx).name(),
            [&Ann] { return Ann.text(); },
            /*InPost=*/false, StepIndex,
            [&] { C.monitor(Idx).pre(Ev, *States[Idx]); });
}

void RuntimeCascade::post(const Annotation &Ann, const Expr &E, EnvView Env,
                          Value Result, uint64_t StepIndex,
                          uint64_t AllocatedBytes) {
  int Idx = resolveCached(Ann);
  if (Idx < 0)
    return;
  InnerView View(*this, static_cast<unsigned>(Idx));
  MonitorEvent Ev{Ann, E, Env, StepIndex, AllocatedBytes, View};
  Iso.guard(static_cast<unsigned>(Idx), C.monitor(Idx).name(),
            [&Ann] { return Ann.text(); },
            /*InPost=*/true, StepIndex,
            [&] { C.monitor(Idx).post(Ev, Result, *States[Idx]); });
}

std::vector<std::unique_ptr<MonitorState>> RuntimeCascade::takeStates() {
  return std::move(States);
}

void RuntimeCascade::saveMonitorSection(Serializer &S) const {
  S.writeU32(C.size());
  for (unsigned I = 0; I < C.size(); ++I) {
    S.writeString(std::string(C.monitor(I).name()));
    Serializer Blob;
    States[I]->save(Blob);
    S.writeU32(static_cast<uint32_t>(Blob.size()));
    S.writeBytes(Blob.bytes().data(), Blob.size());
  }
}

void RuntimeCascade::loadMonitorSection(Deserializer &D) {
  uint32_t N = D.readU32();
  if (!D.ok())
    return;
  if (N != C.size()) {
    D.fail("checkpoint was written with a different number of monitors (" +
           std::to_string(N) + " saved, " + std::to_string(C.size()) +
           " in this run's cascade)");
    return;
  }
  for (unsigned I = 0; I < C.size(); ++I) {
    std::string Name = D.readString();
    if (!D.ok())
      return;
    if (Name != C.monitor(I).name()) {
      D.fail("checkpoint monitor #" + std::to_string(I) + " is '" + Name +
             "' but this run's cascade has '" +
             std::string(C.monitor(I).name()) + "' at that position");
      return;
    }
    uint32_t Len = D.readU32();
    if (!D.ok())
      return;
    if (Len > D.remaining()) {
      D.fail("monitor state blob for '" + Name + "' is truncated");
      return;
    }
    // Each state's load() runs against a sub-view of exactly its own blob,
    // so a monitor that misreads its bytes cannot desynchronize the rest
    // of the section.
    Deserializer Sub(D.cursor(), Len);
    States[I]->load(Sub);
    if (!Sub.ok()) {
      D.fail("monitor '" + Name + "': " + Sub.error());
      return;
    }
    D.skip(Len);
  }
}
