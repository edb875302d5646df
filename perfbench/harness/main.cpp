//===- perfbench/harness/main.cpp - Benchmark harness entry ----------------===//
//
//   pbharness <kernels|monitored|cli-corpus> --seed=N
//             --seconds=S [--trace] [--setup-only] --root=DIR --work=DIR
//             --monsem=PATH --steps=FILE [--spans-out=FILE]
//   pbharness gen-expected --steps=FILE --work=DIR
//   pbharness selftest --work=DIR
//   pbharness aot-load-probe --work=DIR (internal: fresh-process aotLoad)
//
// Prints one JSON record of raw samples and counters on stdout;
// perfbench/run.py turns it into the benchmark's metrics.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <csignal>
#include <filesystem>
#include <iostream>

using namespace pb;

double pb::sinceStartS(const Options &O) {
  return (nowNs() - O.StartNs) * 1e-9;
}

static bool parse(int Argc, char **Argv, Options &O) {
  if (Argc < 2)
    return false;
  O.Mode = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&](const char *P) -> const char * {
      size_t N = std::char_traits<char>::length(P);
      return A.compare(0, N, P) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = Val("--seed="))
      O.Seed = std::stoull(V);
    else if (const char *V = Val("--seconds="))
      O.Seconds = std::stod(V);
    else if (A == "--trace")
      O.Trace = true;
    else if (A == "--setup-only")
      O.SetupOnly = true;
    else if (const char *V = Val("--root="))
      O.Root = V;
    else if (const char *V = Val("--work="))
      O.Work = V;
    else if (const char *V = Val("--monsem="))
      O.Monsem = V;
    else if (const char *V = Val("--steps="))
      O.Steps = V;
    else if (const char *V = Val("--spans-out="))
      O.SpansOut = V;
    else
      return false;
  }
  return true;
}

int main(int Argc, char **Argv) {
  Options O;
  O.StartNs = nowNs();
  if (!parse(Argc, Argv, O)) {
    std::cerr << "usage: pbharness <workload|gen-expected|selftest> "
                 "--seed=N --seconds=S [--trace] [--setup-only] --root=DIR "
                 "--work=DIR --monsem=PATH --steps=FILE\n";
    return 2;
  }
  // A daemon that closes its end must show up as a write error on the
  // connection, not kill the harness.
  std::signal(SIGPIPE, SIG_IGN);
  if (O.Work.empty())
    O.Work = ".";
  std::filesystem::create_directories(O.Work);
  try {
    if (O.Mode == "gen-expected")
      return genExpected(O);
    if (O.Mode == "selftest")
      return selfTest(O);
    if (O.Mode == "aot-load-probe")
      return aotLoadProbe(O);
    Report Rep;
    int Rc;
    if (O.Mode == "kernels")
      Rc = runKernels(O, Rep);
    else if (O.Mode == "monitored")
      Rc = runMonitored(O, Rep);
    else if (O.Mode == "cli-corpus")
      Rc = runCliCorpus(O, Rep);
    else {
      std::cerr << "unknown workload '" << O.Mode << "'\n";
      return 2;
    }
    // 1 = set-up only, which still reports its time.
    if (Rc == 0 || Rc == 1) {
      Rep.print();
      return 0;
    }
    return Rc;
  } catch (const std::exception &E) {
    std::cerr << "pbharness: " << E.what() << '\n';
    return 3;
  }
}
