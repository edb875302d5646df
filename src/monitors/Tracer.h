//===- monitors/Tracer.h - Fancy tracer (Fig. 7) ----------------*- C++ -*-===//
///
/// \file
/// The fancy tracer of Fig. 7. The annotation syntax is a function header
/// `{f(x1,...,xn)}` placed on the function body; the monitor state is the
/// pair <output channel, trace level>. Before evaluating the body the
/// tracer prints `[F receives (v1 ... vn)]` and increments the level; after
/// evaluation it prints `[F returns v]` at the restored level.
///
/// Indentation: five spaces per level, e.g.
///
///   [FAC receives (3)]
///        [FAC receives (2)]
///             ...
///        [FAC returns 2]
///        [MUL receives (3 2)]
///        [MUL returns 6]
///   [FAC returns 6]
///
/// (The paper's figure decorates the margin with '|' glyphs; we keep the
/// plain-space indentation, preserving content and nesting structure.)
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_TRACER_H
#define MONSEM_MONITORS_TRACER_H

#include "monitor/MonitorSpec.h"
#include "support/OutChan.h"

#include <iosfwd>

namespace monsem {

/// MS = OutChan x N.
class TracerState : public MonitorState {
public:
  OutChan Chan;
  int Level = 0;
  /// Reused line buffer: each line is built here and the channel keeps an
  /// exact-size copy. Not data: neither saved nor rendered.
  std::string LineBuf;

  std::string str() const override { return Chan.str(); }

  void save(Serializer &S) const override {
    Chan.save(S);
    S.writeI64(Level);
  }
  void load(Deserializer &D) override {
    Chan.load(D);
    Level = static_cast<int>(D.readI64());
  }
};

class Tracer : public Monitor {
public:
  /// \p Echo, if non-null, live-streams every trace line (examples).
  explicit Tracer(std::ostream *Echo = nullptr) : Echo(Echo) {}

  std::string_view name() const override { return "trace"; }

  /// MSyn: a function header `f(x1,...,xn)`.
  bool accepts(const Annotation &Ann) const override { return Ann.HasParams; }

  std::unique_ptr<MonitorState> initialState() const override;

  void pre(const MonitorEvent &Ev, MonitorState &State) const override;
  void post(const MonitorEvent &Ev, Value Result,
            MonitorState &State) const override;

  static const TracerState &state(const MonitorState &S) {
    return static_cast<const TracerState &>(S);
  }

private:
  std::ostream *Echo;
};

} // namespace monsem

#endif // MONSEM_MONITORS_TRACER_H
