//===- interp/Machine.cpp --------------------------------------------------===//

#include "interp/Machine.h"

namespace monsem {

const char *strategyName(Strategy S) {
  switch (S) {
  case Strategy::Strict:
    return "strict";
  case Strategy::CallByName:
    return "call-by-name";
  case Strategy::CallByNeed:
    return "call-by-need";
  }
  return "?";
}

template class MachineT<NoMonitorPolicy>;
template class MachineT<DynamicMonitorPolicy>;

} // namespace monsem
