//===- perfbench/harness/Bench.h - Shared benchmark plumbing ----*- C++ -*-===//
///
/// \file
/// Clocks, the seeded generator, the span recorder and the result writer
/// shared by every workload of the benchmark harness. The harness measures
/// the layers of monsem from outside: it only calls their public functions
/// and times those calls; nothing here reaches into `src/`.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_PERFBENCH_BENCH_H
#define MONSEM_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: every input the benchmark generates derives from the
/// workload seed through one of these.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

inline uint64_t fnv1a(std::string_view Text,
                      uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Spans recorded around the harness's own calls into each layer. Kept in
/// memory and written out once at exit; disabled (the default) it costs a
/// branch per call site.
class Spans {
public:
  struct Span {
    const char *Name;
    uint64_t Start, End;
    int64_t Parent; ///< Index into the span list, -1 for a root.
    uint64_t Job;
    /// Time inside this span attributed to a named child layer that has no
    /// span of its own (monitor pre/post, summed by the timing wrappers).
    uint64_t ExclNs = 0;
    const char *ExclName = nullptr;
  };

  bool On = false;

  int64_t begin(const char *Name, uint64_t Job) {
    if (!On)
      return -1;
    List.push_back({Name, nowNs(), 0, Open, Job});
    Open = static_cast<int64_t>(List.size()) - 1;
    return Open;
  }
  void end(int64_t Idx) {
    if (Idx < 0)
      return;
    List[Idx].End = nowNs();
    Open = List[Idx].Parent;
  }
  void exclude(int64_t Idx, const char *Name, uint64_t Ns) {
    if (Idx < 0)
      return;
    List[Idx].ExclName = Name;
    List[Idx].ExclNs += Ns;
  }
  /// JSON lines: {"name","start","end","parent","job","excl","excl_name"}.
  bool writeJsonl(const std::string &Path) const;

private:
  std::vector<Span> List;
  int64_t Open = -1;
};

/// RAII span; a no-op when the recorder is off.
class Scope {
public:
  Scope(Spans &S, const char *Name, uint64_t Job)
      : S(S), Idx(S.begin(Name, Job)) {}
  ~Scope() { S.end(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int64_t index() const { return Idx; }

private:
  Spans &S;
  int64_t Idx;
};

/// The harness's one output record: raw samples and counters for
/// `perfbench/run.py`, which computes every statistic.
class Report {
public:
  void num(const std::string &Key, double V) { Nums[Key] = V; }
  void add(const std::string &Key, double V) { Nums[Key] += V; }
  std::vector<double> &samples(const std::string &Key) { return Arrays[Key]; }
  void fail(const std::string &Why);

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// True unless some job gave a wrong answer, step count, final state or
  /// probe stream.
  bool Correct = true;

  /// Prints the record as one JSON line on stdout.
  void print() const;

private:
  std::map<std::string, double> Nums;
  std::map<std::string, std::vector<double>> Arrays;
  std::map<std::string, uint64_t> FailReasons;
};

/// Peak resident set of this process (VmHWM), in MiB.
double selfPeakRssMb();
/// Appends \p S to \p Out as a JSON string literal.
void jsonQuote(std::string &Out, std::string_view S);

} // namespace pb

#endif // MONSEM_PERFBENCH_BENCH_H
