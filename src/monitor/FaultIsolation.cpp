//===- monitor/FaultIsolation.cpp ------------------------------------------===//

#include "monitor/FaultIsolation.h"

using namespace monsem;

const char *monsem::faultPolicyName(FaultPolicy P) {
  switch (P) {
  case FaultPolicy::Quarantine:
    return "quarantine";
  case FaultPolicy::Abort:
    return "abort";
  case FaultPolicy::RetryThenQuarantine:
    return "retry";
  }
  return "?";
}

bool monsem::parseFaultPolicy(std::string_view Name, FaultPolicy &Out) {
  if (Name == "quarantine")
    Out = FaultPolicy::Quarantine;
  else if (Name == "abort")
    Out = FaultPolicy::Abort;
  else if (Name == "retry")
    Out = FaultPolicy::RetryThenQuarantine;
  else
    return false;
  return true;
}

std::string MonitorFault::str() const {
  std::string Out = "monitor '" + MonitorName + "' fault in " +
                    (InPost ? "post" : "pre") + " at " + Site + " (step " +
                    std::to_string(Step) + "): " + Message;
  if (Quarantined)
    Out += " [quarantined]";
  return Out;
}

void FaultIsolator::configure(unsigned NumMonitors, FaultPolicy Default,
                              unsigned RetryBudget) {
  Slots.assign(NumMonitors, Slot{Default, RetryBudget, false});
}

void FaultIsolator::setPolicy(unsigned Idx, FaultPolicy P) {
  if (Idx < Slots.size())
    Slots[Idx].Policy = P;
}

bool FaultIsolator::onFault(unsigned Idx, std::string_view Name,
                            std::string Site, bool InPost, uint64_t Step,
                            std::string Message) {
  MonitorFault F;
  F.MonitorIndex = Idx;
  F.MonitorName = std::string(Name);
  F.Site = std::move(Site);
  F.InPost = InPost;
  F.Step = Step;
  F.Message = std::move(Message);

  // A hook of an unconfigured cascade (never expected, but don't make a
  // fault handler the thing that crashes): treat as quarantine-on-first.
  if (Idx >= Slots.size()) {
    F.Quarantined = true;
    Faults.push_back(std::move(F));
    return false;
  }

  Slot &S = Slots[Idx];
  switch (S.Policy) {
  case FaultPolicy::Abort: {
    std::string Msg = F.str();
    Faults.push_back(std::move(F));
    throw MonitorAbort(Msg);
  }
  case FaultPolicy::Quarantine:
    S.Quarantined = true;
    F.Quarantined = true;
    Faults.push_back(std::move(F));
    return false;
  case FaultPolicy::RetryThenQuarantine:
    if (S.Budget == 0) {
      S.Quarantined = true;
      F.Quarantined = true;
      Faults.push_back(std::move(F));
      return false;
    }
    --S.Budget;
    Faults.push_back(std::move(F));
    return true; // Retry the hook.
  }
  return false;
}
