//===- perfbench/harness/Programs.h - Workload programs and oracle -*- C++ -*-===//
///
/// \file
/// The compute programs of the `kernels` and `monitored` workloads and of
/// the serve load, their monitor cascades, and the checks every job's output goes
/// through. Expected answers come from closed forms, checked against the
/// Direct interpreter (the paper's functional) at set-up. Step counts,
/// monitor finals and probe-stream hashes come from the committed
/// `expected.tsv`, generated once by `pbharness gen-expected`: it requires
/// all four backends to agree and, at the sizes the Direct interpreter can
/// run, Direct too. Nothing expected is ever taken from the backend under
/// test in the run being checked.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_PERFBENCH_PROGRAMS_H
#define MONSEM_PERFBENCH_PROGRAMS_H

#include "Bench.h"

#include "interp/Eval.h"

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace pb {

enum class Family { Fib, Tak, Ack, Down, SumList, MSort };

/// One compute program: a family and its size arguments.
struct Kernel {
  Family F = Family::Fib;
  std::vector<int64_t> Args;

  /// "fib:18", "tak:18,12,6", ...; names the program in expected files.
  std::string key() const;
  std::string source() const;
  /// The answer as `RunResult::ValueText` prints it, from a closed form.
  std::string reference() const;
};

/// The size ranges a workload draws from, three sizes per family in
/// ascending order. `Monitored` sizes stay within what the Direct
/// interpreter can run as the oracle for finals and probes.
std::vector<Kernel> kernelSizes();
std::vector<Kernel> monitoredSizes();
/// The serve load: short monitored runs that finish within one quantum, and
/// unmonitored bulk runs that span many.
std::vector<Kernel> serveInteractiveSizes();
std::vector<Kernel> serveBulkSizes();

/// Monitoring densities of the `monitored` workload.
enum class Density { None, Sparse, Medium, Dense };
const char *densityName(Density D);

/// A monitor that forwards every call to the real one and times it. It is
/// transparent to routing (same name, same accepts) so a cascade of
/// wrappers sees exactly the annotations the real cascade would.
class TimedMonitor : public monsem::Monitor {
public:
  TimedMonitor(const monsem::Monitor &Inner, uint64_t *ProbeHash)
      : Inner(Inner), ProbeHash(ProbeHash) {}

  std::string_view name() const override { return Inner.name(); }
  bool accepts(const monsem::Annotation &Ann) const override {
    return Inner.accepts(Ann);
  }
  std::unique_ptr<monsem::MonitorState> initialState() const override {
    return Inner.initialState();
  }
  void pre(const monsem::MonitorEvent &Ev,
           monsem::MonitorState &State) const override;
  void post(const monsem::MonitorEvent &Ev, monsem::Value Result,
            monsem::MonitorState &State) const override;

  mutable uint64_t PreNs = 0, PostNs = 0, PreCalls = 0, PostCalls = 0;
  /// What a timed window reads with no inner call (the clock's own cost).
  static uint64_t clockOverheadNs();

private:
  const monsem::Monitor &Inner;
  uint64_t *ProbeHash; ///< When non-null, folds in each probe's text.
};

/// A program prepared for one (kernel, density, target) configuration: the
/// parsed and annotated tree and the monitors its cascade uses.
struct Prepared {
  std::unique_ptr<monsem::ParsedProgram> P;
  const monsem::Expr *Root = nullptr;
  std::vector<std::unique_ptr<monsem::Monitor>> Monitors;
  std::vector<std::unique_ptr<TimedMonitor>> Timed;
  /// The monitor names in cascade order ("profile", "cost", ...).
  std::vector<std::string> Names;
  uint64_t ProbeHash = 0;

  /// Cascade over the real monitors, or over timing wrappers (which also
  /// fold every probe into ProbeHash).
  monsem::Cascade cascade(bool Timed);
};

/// Parses \p K's source and annotates it for \p D. \p Target names the
/// single profiled function of the sparse density ("*": every function). \p Discard receives the
/// dense tracer's output. With \p S, parse and annotate get a span each.
std::unique_ptr<Prepared> prepare(const Kernel &K, Density D,
                                  const std::string &Target,
                                  std::ostream *Discard,
                                  Spans *S = nullptr, uint64_t Job = 0);

/// What a job must produce.
struct Expected {
  std::string Answer;
  uint64_t Steps = 0; ///< 0 = no expectation (left unchecked).
  uint64_t FinalsHash = 0;
  bool HasFinals = false;
  uint64_t ProbeHash = 0;
  bool HasProbes = false;
};

/// The canonical hash of a run's final monitor states.
uint64_t finalsHash(const std::vector<std::string> &Names,
                    const monsem::RunResult &R);

/// Compares \p R with \p E; on mismatch returns false with the reason
/// ("answer", "steps", "finals", "probes", "outcome").
bool checkRun(const monsem::RunResult &R, const Expected &E,
              const std::vector<std::string> &Names, uint64_t ProbeHash,
              std::string &Why);

/// Runs \p Fn on a thread with a \p StackBytes stack: the Direct
/// interpreter nests one C frame chain per valuation call.
void runOnBigStack(const std::function<void()> &Fn,
                   size_t StackBytes = size_t(1) << 30);

/// Runs \p Prog under the Direct interpreter with \p C (may be empty), on a
/// big stack and without a call budget.
monsem::RunResult runOracle(const monsem::Expr *Prog,
                            const monsem::Cascade &C);

/// `expected.tsv`: "<config key>\t<backend>\t<steps>" lines.
class ExpectTable {
public:
  bool load(const std::string &Path);
  uint64_t get(const std::string &Key, const std::string &Backend) const;
  void put(const std::string &Key, const std::string &Backend, uint64_t S) {
    Rows[Key + "\t" + Backend] = S;
  }
  bool save(const std::string &Path) const;
  size_t size() const { return Rows.size(); }

private:
  std::map<std::string, uint64_t> Rows;
};

monsem::Backend backendFromName(const std::string &Name);

} // namespace pb

#endif // MONSEM_PERFBENCH_PROGRAMS_H
