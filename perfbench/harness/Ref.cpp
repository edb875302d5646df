//===- perfbench/harness/Ref.cpp - The process-start reference ------------===//
//
// A program that starts the way monsem does (a dynamically linked C++
// program: libstdc++, libm and libgcc_s loaded and initialized) and exits.
// It contains none of monsem's code, so its time is the host's cost of
// starting such a process; the cli-corpus loop runs it after every job.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <iostream>
#include <string>

int main(int Argc, char **Argv) {
  std::string Name(Argv[0]);
  if (Argc > 1)
    std::cout << Name << ' ' << std::sqrt(static_cast<double>(Argc)) << '\n';
  return 0;
}
