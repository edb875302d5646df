//===- perfbench/harness/Layers.cpp - The per-layer sweep ------------------===//
//
// Every traced run ends with this sweep: each layer's public functions
// called on their own, on fixed inputs, and timed from outside. It gives
// the per-layer metrics for every workload, including the layers a
// workload does not exercise itself (their numbers then serve as a
// baseline for the layers a change did not touch).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Resolver.h"
#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "monitors/Profiler.h"
#include "support/Journal.h"
#include "syntax/Annotator.h"
#include "syntax/Prelude.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace monsem;
using namespace pb;
namespace fs = std::filesystem;

namespace {

std::vector<std::string> corpusSources(const Options &O) {
  std::vector<std::string> Files;
  for (const auto &E : fs::directory_iterator(O.Root + "/examples/programs"))
    if (E.path().extension() == ".lam")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  std::vector<std::string> Out;
  for (const std::string &F : Files) {
    std::ifstream In(F);
    std::ostringstream SS;
    SS << In.rdbuf();
    Out.push_back(SS.str());
  }
  return Out;
}

double usSince(uint64_t T0) { return (nowNs() - T0) * 1e-3; }

/// syntax, analysis and the compile front end, over the example corpus
/// (each program with the prelude, as the heavier half of cli-corpus).
void frontEnd(const Options &O, Report &Rep) {
  constexpr int Reps = 20;
  for (const std::string &Src : corpusSources(O)) {
    for (int I = 0; I < Reps; ++I) {
      uint64_t T0 = nowNs();
      auto P = ParsedProgram::parse(Src);
      Rep.samples("syntax.parse_us").push_back(usSince(T0));
      DiagnosticSink D;
      T0 = nowNs();
      const Expr *Prog = wrapWithPrelude(P->context(), P->root(), D);
      Rep.samples("syntax.prelude_us").push_back(usSince(T0));
      AnnotateOptions AO;
      AO.Qualifier = Symbol::intern("profile");
      T0 = nowNs();
      Prog = annotateFunctionBodies(P->context(), Prog, {}, AO);
      Rep.samples("syntax.annotate_us").push_back(usSince(T0));
      T0 = nowNs();
      resolveProgramCached(Prog);
      Rep.samples("analysis.resolve_us").push_back(usSince(T0));
      T0 = nowNs();
      auto CP = compileProgram(Prog, D);
      Rep.samples("compile.bytecode_us").push_back(usSince(T0));
      if (!CP)
        continue;
      T0 = nowNs();
      auto RP = lowerToRegisters(*CP);
      Rep.samples("compile.lower_us").push_back(usSince(T0));
      if (!RP)
        continue;
      T0 = nowNs();
      std::string C = aotEmitSource(*RP);
      Rep.samples("compile.aot_emit_us").push_back(usSince(T0));
      Rep.samples("compile.aot_c_bytes").push_back(
          static_cast<double>(C.size()));
    }
  }
}

/// Each backend's run alone (front end excluded), on the middle kernel size
/// of every family.
void interp(const Options &O, Report &Rep) {
  std::vector<Kernel> Ks;
  std::vector<Kernel> All = kernelSizes();
  for (size_t I = 1; I < All.size(); I += 3)
    Ks.push_back(All[I]);
  std::string AotDir = O.Work + "/aot-layers";
  for (const char *B : {"cek", "vm", "vm-reg", "vm-aot"}) {
    std::string N = B;
    std::replace(N.begin(), N.end(), '-', '_');
    double RunNs = 0, Steps = 0, Arena = 0;
    uint64_t Native = 0, Blocks = 0;
    for (const Kernel &K : Ks) {
      auto P = ParsedProgram::parse(K.source());
      const Expr *Root = P->root();
      resolveProgramCached(Root);
      DiagnosticSink D;
      auto CP = compileProgram(Root, D);
      auto RP = lowerToRegisters(*CP);
      std::shared_ptr<const AotLibrary> Lib;
      if (N == "vm_aot") {
        Lib = aotLoad(*RP, AotDir, nullptr);
        if (Lib) {
          for (AotBlockFn F : Lib->fns())
            Native += F != nullptr;
          Blocks += Lib->fns().size();
        }
      }
      std::vector<double> Ts;
      RunResult R;
      for (int Trial = 0; Trial < 3; ++Trial) {
        uint64_t T0 = nowNs();
        if (N == "cek")
          R = evaluate(Root);
        else if (N == "vm")
          R = runCompiled(*CP);
        else if (Lib)
          R = runAotProgram(*RP, *Lib, nullptr, RunOptions());
        else
          R = runRegisterProgram(*RP);
        Ts.push_back(static_cast<double>(nowNs() - T0));
      }
      std::sort(Ts.begin(), Ts.end());
      RunNs += Ts[1];
      Steps += static_cast<double>(R.Steps);
      Arena += static_cast<double>(R.ArenaBytes);
    }
    Rep.num("interp." + N + ".run_ms", RunNs * 1e-6 / Ks.size());
    Rep.num("interp." + N + ".ns_per_step", RunNs / Steps);
    Rep.num("interp." + N + ".arena_bytes", Arena / Ks.size());
    if (N == "vm_aot")
      Rep.num("compile.native_block_share",
              Blocks ? static_cast<double>(Native) / Blocks : 0);
  }
}

/// Each monitor's pre/post cost through timing wrappers, and the
/// framework's own cost per event: monitored minus unmonitored minus the
/// monitors, over the events delivered.
void monitors(Report &Rep) {
  const uint64_t Clock = TimedMonitor::clockOverheadNs();
  std::vector<Kernel> Ks;
  std::vector<Kernel> All = monitoredSizes();
  for (size_t I = 1; I < All.size(); I += 3)
    Ks.push_back(All[I]);
  struct Acc {
    double PreNs = 0, PostNs = 0, Pre = 0, Post = 0;
  };
  std::map<std::string, Acc> Per;
  double FrameNs = 0, FrameEvents = 0, MonNs = 0;
  static std::ostream Null(nullptr);
  for (Density D : {Density::Medium, Density::Dense}) {
    for (const Kernel &K : Ks) {
      auto Median3 = [&](bool WithMonitors, bool Timed) {
        std::vector<double> Ts;
        for (int I = 0; I < 3; ++I) {
          auto P = prepare(K, D, "*", &Null);
          resolveProgramCached(P->Root);
          EvalMode M =
              WithMonitors ? P->cascade(Timed) : EvalMode(Cascade());
          uint64_t T0 = nowNs();
          evaluate(M, P->Root);
          Ts.push_back(static_cast<double>(nowNs() - T0));
          if (Timed && I == 2) {
            for (size_t J = 0; J < P->Timed.size(); ++J) {
              const TimedMonitor &T = *P->Timed[J];
              std::string Name = P->Names[J] == "trace"   ? "tracer"
                                 : P->Names[J] == "cover" ? "coverage"
                                                          : P->Names[J];
              Acc &A = Per[Name];
              A.PreNs += static_cast<double>(T.PreNs) -
                         static_cast<double>(Clock * T.PreCalls);
              A.PostNs += static_cast<double>(T.PostNs) -
                          static_cast<double>(Clock * T.PostCalls);
              A.Pre += static_cast<double>(T.PreCalls);
              A.Post += static_cast<double>(T.PostCalls);
            }
          }
        }
        std::sort(Ts.begin(), Ts.end());
        return Ts[1];
      };
      double Plain = Median3(false, false);
      double Mon = Median3(true, false);
      Acc Before;
      for (auto &[N, A] : Per)
        Before.PreNs += A.PreNs + A.PostNs, Before.Pre += A.Pre + A.Post;
      Median3(true, true);
      Acc After;
      for (auto &[N, A] : Per)
        After.PreNs += A.PreNs + A.PostNs, After.Pre += A.Pre + A.Post;
      double HookNs = After.PreNs - Before.PreNs;
      double Events = After.Pre - Before.Pre;
      FrameNs += Mon - Plain - HookNs;
      FrameEvents += Events;
      MonNs += Mon;
    }
  }
  Rep.num("monitor.events_per_s", MonNs ? FrameEvents / (MonNs * 1e-9) : 0);
  for (auto &[N, A] : Per) {
    // Net of the clock's own cost; a hook cheaper than the clock's jitter
    // reads as 0.
    Rep.num("monitors." + N + ".pre_ns",
            A.Pre ? std::max(0.0, A.PreNs / A.Pre) : 0);
    Rep.num("monitors." + N + ".post_ns",
            A.Post ? std::max(0.0, A.PostNs / A.Post) : 0);
    Rep.num("monitors." + N + ".events", A.Pre + A.Post);
  }
  Rep.num("monitor.framework_ns_per_event",
          FrameEvents ? FrameNs / FrameEvents : 0);
}

/// Checkpoint and journal costs on a mid-run machine holding a list.
void support(const Options &O, Report &Rep) {
  Kernel K{Family::SumList, {20000}};
  auto P = ParsedProgram::parse(K.source());
  Checkpoint CK;
  // Stop inside `build`, with most of the list in the arena.
  evaluate(kCEK & maxSteps(250000) &
               checkpointInto([&](const Checkpoint &C) { CK = C; }),
           P->root());
  if (!CK.valid()) {
    Rep.fail("checkpoint");
    return;
  }
  Rep.num("support.checkpoint.bytes", static_cast<double>(CK.bytes().size()));
  std::string Dir = O.Work + "/support";
  fs::create_directories(Dir);
  std::string Path = Dir + "/ck.bin", Err;
  for (int I = 0; I < 5; ++I) {
    uint64_t T0 = nowNs();
    if (!CK.saveFile(Path, Err))
      Rep.fail("checkpoint.save");
    Rep.samples("support.checkpoint.save_ms").push_back(usSince(T0) * 1e-3);
  }
  for (int I = 0; I < 20; ++I) {
    uint64_t T0 = nowNs();
    Checkpoint L = Checkpoint::loadFile(Path, Err);
    Rep.samples("support.checkpoint.load_us").push_back(usSince(T0));
    if (!L.valid())
      Rep.fail("checkpoint.load");
  }
  for (int I = 0; I < 20; ++I) {
    uint64_t T0 = nowNs();
    RunResult R = evaluate(resumeFrom(CK) & maxSteps(1), P->root());
    Rep.samples("support.checkpoint.resume_us").push_back(usSince(T0));
    if (R.St != Outcome::FuelExhausted)
      Rep.fail("checkpoint.resume");
  }
  std::string JPath = Dir + "/run.journal";
  fs::remove(JPath);
  auto J = Journal::open(JPath, Err);
  if (!J) {
    Rep.fail("journal.open");
    return;
  }
  for (int I = 0; I < 2000; ++I) {
    uint64_t T0 = nowNs();
    J->appendEvent(static_cast<uint64_t>(I), "pre {profile:fib}");
    Rep.samples("support.journal.append_event_us").push_back(usSince(T0));
  }
  for (int I = 0; I < 10; ++I) {
    uint64_t T0 = nowNs();
    J->appendCheckpoint(CK.bytes());
    Rep.samples("support.journal.append_checkpoint_us")
        .push_back(usSince(T0));
  }
  J.reset();
  for (int I = 0; I < 3; ++I) {
    uint64_t T0 = nowNs();
    JournalRecovery R = recoverJournal(JPath);
    Rep.samples("support.journal.recover_ms").push_back(usSince(T0) * 1e-3);
    if (R.TotalEvents != 2000)
      Rep.fail("journal.recover");
  }
}

} // namespace

/// `monsem` from exec to exit on the program `0`, and the AOT load in fresh
/// processes against an empty and then a warm cache.
static void tools(const Options &O, Report &Rep) {
  std::string Zero = O.Work + "/zero.lam";
  std::ofstream(Zero) << "0\n";
  for (int I = 0; I < 30; ++I) {
    ExecResult E = execCapture({O.Monsem, Zero});
    if (E.Exit == 0)
      Rep.samples("tools.exec_floor_ms").push_back(E.WallNs * 1e-6);
  }
  std::string Self = fs::read_symlink("/proc/self/exe").string();
  std::string Dir = O.Work + "/aot-probe";
  fs::remove_all(Dir);
  for (const char *Kind : {"cold", "warm"}) {
    ExecResult E = execCapture(
        {Self, "aot-load-probe", "--root=" + O.Root, "--work=" + Dir});
    std::istringstream In(E.Out);
    double Ms;
    while (In >> Ms)
      Rep.samples(std::string("compile.aot_load_") + Kind +
                  (Kind[0] == 'c' ? "_ms" : "_us"))
          .push_back(Kind[0] == 'c' ? Ms : Ms * 1e3);
  }
}

int pb::aotLoadProbe(const Options &O) {
  // One line per corpus program: milliseconds in aotLoad, in this fresh
  // process (so the in-process registry is empty).
  for (const std::string &Src : corpusSources(O)) {
    auto P = ParsedProgram::parse(Src);
    DiagnosticSink D;
    const Expr *Prog = wrapWithPrelude(P->context(), P->root(), D);
    auto CP = compileProgram(Prog, D);
    if (!CP)
      continue;
    auto RP = lowerToRegisters(*CP);
    if (!RP)
      continue;
    uint64_t T0 = nowNs();
    auto Lib = aotLoad(*RP, O.Work, nullptr);
    if (Lib)
      std::cout << (nowNs() - T0) * 1e-6 << '\n';
  }
  return 0;
}

void pb::runLayerSweep(const Options &O, Report &Rep) {
  tools(O, Rep);
  frontEnd(O, Rep);
  interp(O, Rep);
  monitors(Rep);
  support(O, Rep);
  runServeLoad(O, Rep);
}
