//===- monitors/Tracer.cpp -------------------------------------------------===//

#include "monitors/Tracer.h"

#include <cctype>

using namespace monsem;

/// Starts \p Line as `<indent>[F` for a probe of function \p Name at trace
/// level \p Level: five spaces per level, the name upper-cased.
static void beginLine(std::string &Line, int Level, Symbol Name) {
  Line.assign(Level > 0 ? static_cast<size_t>(Level) * 5 : 0, ' ');
  Line += '[';
  for (char C : Name.str())
    Line += static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
}

std::unique_ptr<MonitorState> Tracer::initialState() const {
  auto S = std::make_unique<TracerState>();
  if (Echo)
    S->Chan.echoTo(Echo);
  return S;
}

void Tracer::pre(const MonitorEvent &Ev, MonitorState &State) const {
  auto &S = static_cast<TracerState &>(State);
  // printChan ("[" ++ f ++ " receives (" ++ ToStr(rho(x1)) ++ ... ++ ")]")
  std::string &Line = S.LineBuf;
  beginLine(Line, S.Level, Ev.Ann.Head);
  Line += " receives (";
  for (size_t I = 0; I < Ev.Ann.Params.size(); ++I) {
    if (I != 0)
      Line += ' ';
    Ev.Env.appendStr(Line, Ev.Ann.Params[I]);
  }
  Line += ")]";
  S.Chan.addLine(Line);
  ++S.Level;
}

void Tracer::post(const MonitorEvent &Ev, Value Result,
                  MonitorState &State) const {
  auto &S = static_cast<TracerState &>(State);
  --S.Level;
  std::string &Line = S.LineBuf;
  beginLine(Line, S.Level, Ev.Ann.Head);
  Line += " returns ";
  appendDisplayString(Line, Result);
  Line += ']';
  S.Chan.addLine(Line);
}
