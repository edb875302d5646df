//===- perfbench/harness/Harness.h - Workload entry points ------*- C++ -*-===//

#ifndef MONSEM_PERFBENCH_HARNESS_H
#define MONSEM_PERFBENCH_HARNESS_H

#include "Bench.h"
#include "Programs.h"

#include <string>

namespace pb {

struct Options {
  std::string Mode;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Stop after set-up and report only its time.
  bool SetupOnly = false;
  std::string Root;   ///< Repository root (examples/programs lives here).
  std::string Work;   ///< Working directory of this run (caches, sockets).
  std::string Monsem; ///< The monsem binary.
  std::string Steps;  ///< expected.tsv.
  std::string SpansOut; ///< Where a traced run writes its spans.
  /// Process start, so set-up time includes everything before the loop.
  uint64_t StartNs = 0;
};

struct ExecResult {
  int Exit = -1;
  std::string Out;
  uint64_t WallNs = 0; ///< Spawn to exit.
  double MaxRssMb = 0; ///< The child's ru_maxrss.
};

/// Spawns \p Argv with stdout captured and stderr discarded, and waits.
ExecResult execCapture(const std::vector<std::string> &Argv);

/// Every job mix needs at least this many samples so the p99 has ten
/// beyond it; the loop keeps going past --seconds until it has them.
constexpr uint64_t kMinJobs = 1000;

int runKernels(const Options &O, Report &Rep);
int runMonitored(const Options &O, Report &Rep);
int runCliCorpus(const Options &O, Report &Rep);

/// The per-layer sweep every traced run appends (see Layers.cpp).
void runLayerSweep(const Options &O, Report &Rep);
/// The short single-rate `monsem serve` load of the per-layer sweep (its
/// keys get a "serve." prefix).
int runServeLoad(const Options &O, Report &Rep);

/// Regenerates expected.tsv from the current backends.
int genExpected(const Options &O);
/// The cli-corpus rows of expected.tsv.
int genCliExpected(const Options &O, ExpectTable &T);
/// The expected.tsv key of a kernel configuration ("monitored|fib:12|...").
std::string configKey(const char *Workload, const Kernel &K, Density D,
                      const std::string &Target);
/// Checker self-test: a deliberately wrong answer must be rejected.
int selfTest(const Options &O);
/// Fresh-process probe: aotLoad time per corpus program against the cache
/// in --work (empty on the first call: cold; filled: warm).
int aotLoadProbe(const Options &O);

/// Time since O.StartNs, in seconds.
double sinceStartS(const Options &O);

} // namespace pb

#endif // MONSEM_PERFBENCH_HARNESS_H
