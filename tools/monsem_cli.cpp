//===- tools/monsem_cli.cpp - Command-line monitoring environment ----------===//
//
// The user-facing face of the library: run an L_lambda program (or, with
// --imp, an imperative program) under any combination of monitors, in the
// way Section 4.1 envisions — the environment inserts the annotations when
// the user asks to trace or profile a function; hand-written annotations
// in the source work too.
//
//   monsem examples/programs/fac.lam --trace --profile
//   monsem examples/programs/fac.lam --pe --print-residual
//   monsem examples/programs/gcd.imp --imp --imp-watch=a
//   echo 'print 1+2' | monsem - --imp
//
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "interp/Eval.h"
#include "monitors/AllocProfiler.h"
#include "monitors/CallGraph.h"
#include "monitors/Collecting.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Debugger.h"
#include "monitors/Demon.h"
#include "monitors/FaultInjector.h"
#include "monitors/FlightRecorder.h"
#include "monitors/Profiler.h"
#include "monitors/Stepper.h"
#include "monitors/Tracer.h"
#include "pe/PartialEval.h"
#include "server/Serve.h"
#include "server/Session.h"
#include "support/StrUtils.h"
#include "syntax/Prelude.h"
#include "syntax/Annotator.h"
#include "syntax/Printer.h"

#include <atomic>
#include <csignal>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace monsem;

namespace {

/// Set by the SIGINT handler; every run loop polls it through the
/// governor's cancellation hook, so ^C ends the run with partial monitor
/// states (and, with --checkpoint-out, a final resumable checkpoint)
/// instead of killing the process.
std::atomic<bool> GCancel{false};
/// time() of the first SIGINT, 0 before it. A second SIGINT within the
/// grace window hard-exits: the polite path already had its chance.
std::atomic<std::time_t> GFirstInt{0};
constexpr std::time_t kInterruptGraceSeconds = 10;

/// First ^C: raise the cooperative flag and let the governor wind the run
/// down. Second ^C within the grace window: the run is stuck (a hung
/// monitor, a pathological program) — _exit immediately with the
/// conventional 128+SIGINT status. Only async-signal-safe calls here.
void onInterrupt(int) {
  std::time_t Now = std::time(nullptr);
  std::time_t First = GFirstInt.load(std::memory_order_relaxed);
  if (First != 0 && Now - First <= kInterruptGraceSeconds)
    _exit(130);
  GFirstInt.store(Now, std::memory_order_relaxed);
  GCancel.store(true, std::memory_order_relaxed);
}

// The exit-code contract (asserted by tests/cli_test.cpp) lives in
// support/Governor.h as monsem::exitCodeFor — shared with `monsem serve`,
// whose JSONL outcome records carry the same codes.

struct Options {
  std::string File;
  bool Repl = false;
  bool Serve = false;          ///< `monsem serve` subcommand.
  unsigned Workers = 4;        ///< serve: --workers=N.
  uint64_t QuantumSteps = 1 << 16; ///< serve: --quantum-steps=N.
  std::string ListenUnix;      ///< serve: --listen-unix=PATH.
  int ListenTcp = -1;          ///< serve: --listen-tcp=PORT (0 picks).
  uint64_t MaxLiveRuns = 0;    ///< serve: --max-live-runs=N (0 uncapped).
  uint64_t MaxRunsPerTenant = 0;   ///< serve: --max-runs-per-tenant=N.
  uint64_t MaxResidentBytes = 0;   ///< serve: --max-resident-bytes=N.
  uint64_t MaxRequestBytes = 1 << 20;  ///< serve: --max-request-bytes=N.
  uint64_t MaxOutboxBytes = 8u << 20;  ///< serve: --max-outbox-bytes=N.
  uint64_t IdleTimeoutMs = 0;      ///< serve: --idle-timeout-ms=N.
  uint64_t SlowReaderMs = 10000;   ///< serve: --slow-reader-ms=N.
  uint64_t SockSndbufBytes = 0;    ///< serve: --sock-sndbuf-bytes=N.
  bool Imp = false;
  bool Trace = false;
  bool Profile = false;
  bool Cost = false;
  bool Alloc = false;
  bool CallGraph = false;
  bool Collect = false;
  bool DemonSorted = false;
  bool Step = false;
  bool Record = false;
  bool Coverage = false;
  bool Debug = false;
  Backend B = Backend::CEK; ///< --backend=cek|vm|vm-reg|vm-aot|direct.
  std::string AotCacheDir;  ///< --aot-cache=DIR (vm-aot shared objects).
  bool PE = false;
  bool Prelude = false;
  bool PrintAst = false;
  bool PrintResidual = false;
  bool Disasm = false;
  Strategy Strat = Strategy::Strict;
  uint64_t MaxSteps = 0;
  uint64_t DeadlineMs = 0;
  uint64_t MaxBytes = 0;
  uint64_t MaxDepth = 0;
  FaultPolicy FaultPol = FaultPolicy::Quarantine;
  std::string CheckpointOut;   ///< --checkpoint-out=PATH.
  uint64_t CheckpointEvery = 0; ///< --checkpoint-every-n-steps=N.
  std::string ResumePath;      ///< --resume=PATH (a checkpoint file).
  std::string JournalPath;     ///< --journal=PATH.
  std::string ResumeJournal;   ///< --resume-journal=PATH.
  std::string FailPoints;      ///< --failpoints=SPEC (see FailPoint.h).
  OnDurabilityFailure DurPol = OnDurabilityFailure::RetryThenDegrade;
  unsigned DurBudget = 3;       ///< --durability-retry-budget=N.
  bool Supervise = false;       ///< --supervise (requires --journal).
  unsigned MaxRestarts = 3;     ///< --max-restarts=N.
  uint64_t RestartBackoffMs = 50; ///< --restart-backoff-ms=N (base).
  uint64_t RecordCapacity = 16; ///< --record-capacity=N (>0).
  std::string Inject; ///< "", "throw", "sleep", or "alloc".
  std::string ImpWatch;
  std::vector<int64_t> ImpInput;
  bool ImpProfile = false;
  bool ImpTrace = false;
  std::vector<std::string> Names; ///< Functions to annotate ("" = all).
  /// The first option given that only functional programs use; --imp
  /// refuses it rather than ignore it.
  std::string FunctionalOnly;
};

/// Options the imperative module has no use for. Everything else it
/// shares (limits, fault policy, --print-ast) or owns (--imp-*, --input).
constexpr std::string_view kFunctionalOnlyOptions[] = {
    "--backend",       "--checkpoint-out", "--checkpoint-every-n-steps",
    "--resume",        "--resume-journal", "--journal",
    "--pe",            "--print-residual", "--strategy",
    "--profile",       "--trace",          "--cost",
    "--alloc",         "--callgraph",      "--collect",
    "--demon-sorted",  "--step",           "--record",
    "--record-capacity", "--coverage",     "--debug",
    "--prelude",       "--disasm",         "--aot-cache",
    "--supervise",     "--inject",
};

/// One line describing what each backend needs from this build and
/// whether it has it, shown in --help and after an unknown-backend error
/// so the valid set is never a guessing game.
std::string backendAvailability() {
  std::string S = "cek, vm, vm-reg, direct: always available; vm-aot ";
  S += aotAvailable() ? "available (" + aotCompilerId() + ")"
                      : "unavailable (no C compiler; degrades to vm-reg)";
  return S;
}

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " <file | - | --repl | serve> [options]\n"
      << "  functional programs (default):\n"
      << "    --trace[=f,g]      trace calls (auto-annotates functions)\n"
      << "    --profile[=f,g]    count calls per function\n"
      << "    --cost             inclusive step-cost profile per function\n"
      << "    --alloc            inclusive allocation profile per function\n"
      << "    --callgraph        dynamic call graph over functions\n"
      << "    --collect          collecting monitor (source annotations)\n"
      << "    --demon-sorted     unsorted-list demon (source annotations)\n"
      << "    --step             log every monitored event\n"
      << "    --record           flight recorder: keep the last N events\n"
      << "    --record-capacity=N  flight-recorder ring size (default 16)\n"
      << "    --coverage         label applications, report coverage\n"
      << "    --debug            interactive dbx-style debugger on stdin\n"
      << "    --prelude          wrap the program in the standard prelude\n"
      << "    --strategy=strict|name|need\n"
      << "    --backend=cek|vm|vm-reg|vm-aot|direct\n"
      << "                       evaluator: CEK machine (default), register\n"
      << "                       bytecode VM (vm-reg; vm is an alias of\n"
      << "                       vm-reg), native code over the register\n"
      << "                       tier (VMs are strict only), or the direct\n"
      << "                       CPS interpreter:\n"
      << "                       the reference for the others, every\n"
      << "                       strategy, small programs only (it stops\n"
      << "                       with exit 7 when its C stack runs out)\n"
      << "                       this build: " << backendAvailability() << "\n"
      << "    --aot-cache=DIR    vm-aot shared-object cache directory\n"
      << "                       (default: per-user under TMPDIR)\n"
      << "    --pe               partially evaluate, then run the residual\n"
      << "    --print-ast        show the (annotated) program\n"
      << "    --print-residual   with --pe: show the residual program\n"
      << "    --disasm           show compiled bytecode (stack form under\n"
      << "                       vm, register form under vm-reg/vm-aot)\n"
      << "    --max-steps=N      fuel limit\n"
      << "  resource governance (both program kinds):\n"
      << "    --deadline-ms=N    wall-clock budget for the run\n"
      << "    --max-bytes=N      arena byte cap\n"
      << "    --max-depth=N      continuation / recursion depth bound\n"
      << "    --monitor-fault-policy=quarantine|abort|retry\n"
      << "  checkpoint / resume (functional programs):\n"
      << "    --checkpoint-out=F write a checkpoint to F when the governor\n"
      << "                       (or ^C) stops the run; resumable later\n"
      << "    --checkpoint-every-n-steps=N\n"
      << "                       also checkpoint periodically every N steps\n"
      << "    --resume=F         resume from checkpoint file F (same program\n"
      << "                       and monitor flags as the original run)\n"
      << "    --journal=F        crash-safe journal: append every monitor\n"
      << "                       event and checkpoint to F as the run goes\n"
      << "    --resume-journal=F print the journal's event tail, then resume\n"
      << "                       from its last durable checkpoint\n"
      << "  durability and fault injection (functional programs):\n"
      << "    --on-durability-failure=abort|degrade|retry\n"
      << "                       what a failed durable write (journal,\n"
      << "                       checkpoint) does to the run (default retry)\n"
      << "    --durability-retry-budget=N\n"
      << "                       sink failures tolerated under retry before\n"
      << "                       degrading to best-effort (default 3)\n"
      << "    --supervise        run under a supervisor: on a crash, resume\n"
      << "                       from the journal's last durable checkpoint\n"
      << "                       with backoff (requires --journal)\n"
      << "    --max-restarts=N   supervisor restart budget (default 3)\n"
      << "    --restart-backoff-ms=N\n"
      << "                       base supervisor backoff, doubled per\n"
      << "                       restart (default 50)\n"
      << "    --failpoints=SPEC  deterministic fault injection into the\n"
      << "                       durable-I/O sites (testing; also read from\n"
      << "                       the MONSEM_FAILPOINTS environment variable;\n"
      << "                       e.g. 'checkpoint.sync=err(ENOSPC)*1')\n"
      << "    --inject=throw|sleep|alloc\n"
      << "                       wrap --profile's monitor in a fault "
         "injector\n"
      << "  serve mode (monsem serve):\n"
      << "    serve              run the JSONL monitoring daemon: requests\n"
      << "                       on stdin (or a socket), responses on\n"
      << "                       stdout; see DESIGN.md section 6\n"
      << "    --workers=N        worker threads (default 4)\n"
      << "    --quantum-steps=N  scheduler quantum in transitions\n"
      << "                       (default 65536; 0 = no time-slicing)\n"
      << "    --listen-unix=PATH accept clients on a unix socket\n"
      << "    --listen-tcp=PORT  accept clients on 127.0.0.1:PORT (0 picks\n"
      << "                       a free port, announced on stdout)\n"
      << "    --journal=DIR      grant durability: persist requests and\n"
      << "                       journal events under DIR, auto-resume\n"
      << "                       interrupted durable runs on restart\n"
      << "    --max-live-runs=N  admission cap on unfinished runs held by\n"
      << "                       the daemon; over-cap submits get a\n"
      << "                       structured 'overloaded' response (0 = off)\n"
      << "    --max-runs-per-tenant=N\n"
      << "                       the same cap per tenant (0 = off)\n"
      << "    --max-resident-bytes=N\n"
      << "                       evict the coldest paused runs to disk when\n"
      << "                       resident checkpoint bytes exceed N (0=off)\n"
      << "    --max-request-bytes=N\n"
      << "                       cap on one request line (default 1MiB);\n"
      << "                       over it: error record + disconnect\n"
      << "    --max-outbox-bytes=N\n"
      << "                       per-client outbound buffer bound (default\n"
      << "                       8MiB); overflowing readers are dropped\n"
      << "    --idle-timeout-ms=N\n"
      << "                       disconnect idle socket clients (0 = never)\n"
      << "    --slow-reader-ms=N disconnect a client whose socket has been\n"
      << "                       write-blocked this long (default 10000)\n"
      << "    --sock-sndbuf-bytes=N\n"
      << "                       SO_SNDBUF for client sockets; bounds kernel\n"
      << "                       per-client memory (0 = kernel default)\n"
      << "    (--max-steps, --deadline-ms, --max-bytes, --max-depth become\n"
      << "     per-run caps that client requests may tighten, not exceed)\n"
      << "  imperative programs:\n"
      << "    --imp              treat input as an imperative program\n"
      << "    --imp-watch=x      watchpoint demon on variable x\n"
      << "    --input=1,2,3      input stream consumed by 'read x'\n"
      << "    --imp-profile      statement profiler\n"
      << "    --imp-trace        command tracer\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string_view Prefix) -> std::optional<std::string> {
      if (!startsWith(A, Prefix))
        return std::nullopt;
      return A.substr(Prefix.size());
    };
    std::string_view Name = std::string_view(A).substr(0, A.find('='));
    for (std::string_view F : kFunctionalOnlyOptions)
      if (Name == F && O.FunctionalOnly.empty())
        O.FunctionalOnly = Name;
    if (A == "serve" && !O.Serve && O.File.empty()) {
      O.Serve = true;
    } else if (!A.empty() && A[0] != '-' && O.File.empty()) {
      O.File = A;
    } else if (A == "-") {
      O.File = "-";
    } else if (A == "--repl") {
      O.Repl = true;
    } else if (A == "--imp") {
      O.Imp = true;
    } else if (A == "--trace" || startsWith(A, "--trace=")) {
      O.Trace = true;
      if (auto V = Value("--trace="))
        for (const auto &N : splitString(*V, ','))
          O.Names.push_back(N);
    } else if (A == "--profile" || startsWith(A, "--profile=")) {
      O.Profile = true;
      if (auto V = Value("--profile="))
        for (const auto &N : splitString(*V, ','))
          O.Names.push_back(N);
    } else if (A == "--cost") {
      O.Cost = true;
    } else if (A == "--alloc") {
      O.Alloc = true;
    } else if (A == "--callgraph") {
      O.CallGraph = true;
    } else if (A == "--collect") {
      O.Collect = true;
    } else if (A == "--demon-sorted") {
      O.DemonSorted = true;
    } else if (A == "--step") {
      O.Step = true;
    } else if (A == "--record") {
      O.Record = true;
    } else if (A == "--coverage") {
      O.Coverage = true;
    } else if (A == "--debug") {
      O.Debug = true;
    } else if (A == "--prelude") {
      O.Prelude = true;
    } else if (auto V = Value("--workers=")) {
      O.Workers = static_cast<unsigned>(std::stoul(*V));
    } else if (auto V = Value("--quantum-steps=")) {
      O.QuantumSteps = std::stoull(*V);
    } else if (auto V = Value("--listen-unix=")) {
      O.ListenUnix = *V;
    } else if (auto V = Value("--listen-tcp=")) {
      O.ListenTcp = std::stoi(*V);
    } else if (auto V = Value("--max-live-runs=")) {
      O.MaxLiveRuns = std::stoull(*V);
    } else if (auto V = Value("--max-runs-per-tenant=")) {
      O.MaxRunsPerTenant = std::stoull(*V);
    } else if (auto V = Value("--max-resident-bytes=")) {
      O.MaxResidentBytes = std::stoull(*V);
    } else if (auto V = Value("--max-request-bytes=")) {
      O.MaxRequestBytes = std::stoull(*V);
    } else if (auto V = Value("--max-outbox-bytes=")) {
      O.MaxOutboxBytes = std::stoull(*V);
    } else if (auto V = Value("--idle-timeout-ms=")) {
      O.IdleTimeoutMs = std::stoull(*V);
    } else if (auto V = Value("--slow-reader-ms=")) {
      O.SlowReaderMs = std::stoull(*V);
    } else if (auto V = Value("--sock-sndbuf-bytes=")) {
      O.SockSndbufBytes = std::stoull(*V);
    } else if (auto V = Value("--backend=")) {
      if (*V == "cek")
        O.B = Backend::CEK;
      else if (*V == "vm")
        O.B = Backend::VM;
      else if (*V == "vm-reg")
        O.B = Backend::VMRegister;
      else if (*V == "vm-aot")
        O.B = Backend::VMAot;
      else if (*V == "direct")
        O.B = Backend::Direct;
      else {
        std::cerr << "error: unknown backend '" << *V
                  << "' (valid: cek, vm, vm-reg, vm-aot, direct)\n"
                  << "note: " << backendAvailability() << '\n';
        return false;
      }
    } else if (auto V = Value("--aot-cache=")) {
      O.AotCacheDir = *V;
    } else if (A == "--pe") {
      O.PE = true;
    } else if (A == "--print-ast") {
      O.PrintAst = true;
    } else if (A == "--print-residual") {
      O.PrintResidual = true;
    } else if (A == "--disasm") {
      O.Disasm = true;
    } else if (auto V = Value("--strategy=")) {
      if (*V == "strict")
        O.Strat = Strategy::Strict;
      else if (*V == "name")
        O.Strat = Strategy::CallByName;
      else if (*V == "need")
        O.Strat = Strategy::CallByNeed;
      else
        return false;
    } else if (auto V = Value("--max-steps=")) {
      O.MaxSteps = std::stoull(*V);
    } else if (auto V = Value("--deadline-ms=")) {
      O.DeadlineMs = std::stoull(*V);
    } else if (auto V = Value("--max-bytes=")) {
      O.MaxBytes = std::stoull(*V);
    } else if (auto V = Value("--max-depth=")) {
      O.MaxDepth = std::stoull(*V);
    } else if (auto V = Value("--monitor-fault-policy=")) {
      if (!parseFaultPolicy(*V, O.FaultPol))
        return false;
    } else if (auto V = Value("--checkpoint-out=")) {
      O.CheckpointOut = *V;
    } else if (auto V = Value("--checkpoint-every-n-steps=")) {
      O.CheckpointEvery = std::stoull(*V);
    } else if (auto V = Value("--resume=")) {
      O.ResumePath = *V;
    } else if (auto V = Value("--journal=")) {
      O.JournalPath = *V;
    } else if (auto V = Value("--resume-journal=")) {
      O.ResumeJournal = *V;
    } else if (auto V = Value("--failpoints=")) {
      std::string Err;
      if (!installFailPoints(*V, Err)) {
        std::cerr << "error: bad --failpoints spec: " << Err << '\n';
        return false;
      }
      O.FailPoints = *V;
    } else if (auto V = Value("--on-durability-failure=")) {
      if (!parseDurabilityPolicy(*V, O.DurPol)) {
        std::cerr << "error: unknown durability policy '" << *V
                  << "' (valid: abort, degrade, retry)\n";
        return false;
      }
    } else if (auto V = Value("--durability-retry-budget=")) {
      O.DurBudget = static_cast<unsigned>(std::stoul(*V));
    } else if (A == "--supervise") {
      O.Supervise = true;
    } else if (auto V = Value("--max-restarts=")) {
      O.MaxRestarts = static_cast<unsigned>(std::stoul(*V));
    } else if (auto V = Value("--restart-backoff-ms=")) {
      O.RestartBackoffMs = std::stoull(*V);
    } else if (auto V = Value("--record-capacity=")) {
      O.RecordCapacity = std::stoull(*V);
      if (O.RecordCapacity == 0) {
        std::cerr << "error: --record-capacity must be positive\n";
        return false;
      }
    } else if (auto V = Value("--inject=")) {
      if (*V != "throw" && *V != "sleep" && *V != "alloc")
        return false;
      O.Inject = *V;
    } else if (auto V = Value("--imp-watch=")) {
      O.ImpWatch = *V;
    } else if (auto V = Value("--input=")) {
      for (const auto &N : splitString(*V, ','))
        if (!N.empty())
          O.ImpInput.push_back(std::stoll(N));
    } else if (A == "--imp-profile") {
      O.ImpProfile = true;
    } else if (A == "--imp-trace") {
      O.ImpTrace = true;
    } else {
      return false;
    }
  }
  return O.Repl || O.Serve || !O.File.empty();
}

std::optional<std::string> readInput(const std::string &File) {
  if (File == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    return SS.str();
  }
  std::ifstream In(File);
  if (!In) {
    std::cerr << "error: cannot open '" << File << "'\n";
    return std::nullopt;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<Symbol> toSymbols(const std::vector<std::string> &Names) {
  std::vector<Symbol> Out;
  for (const std::string &N : Names)
    if (!N.empty())
      Out.push_back(Symbol::intern(N));
  return Out;
}

/// The single place CLI flags become an EvalMode — the same `&` chain an
/// embedded user would write, so the two construction paths cannot skew.
/// Monitors are composed onto the returned mode by the caller. When a
/// DurabilityTracker is passed, the checkpoint file sink reports its
/// failures into it (so the policy — abort / degrade / retry — governs the
/// file sink exactly like the journal), and the tracker becomes the run's
/// arbiter.
EvalMode modeFor(const Options &O, DurabilityTracker *Tracker = nullptr) {
  EvalMode M = StrategyTag{O.Strat} & cancelOn(GCancel) &
               onMonitorFault(O.FaultPol) &
               onDurabilityFailure(O.DurPol, O.DurBudget);
  M.Durability = Tracker;
  if (O.MaxSteps)
    M = M & maxSteps(O.MaxSteps);
  if (O.DeadlineMs)
    M = M & deadlineMs(O.DeadlineMs);
  if (O.MaxBytes)
    M = M & maxArenaBytes(O.MaxBytes);
  if (O.MaxDepth)
    M = M & maxDepth(O.MaxDepth);
  if (O.B == Backend::VM)
    M = M & kVM;
  else if (O.B == Backend::VMRegister)
    M = M & kVMReg;
  else if (O.B == Backend::VMAot)
    M = M & kVMAot;
  else if (O.B == Backend::Direct)
    M = M & kDirect;
  if (!O.AotCacheDir.empty())
    M.AotCacheDir = O.AotCacheDir;
  if (!O.CheckpointOut.empty()) {
    std::string Path = O.CheckpointOut;
    M = M & checkpointInto([Path, Tracker](const Checkpoint &CK) {
          std::string Err;
          if (CK.saveFile(Path, Err))
            return;
          if (Tracker)
            Tracker->report("checkpoint", Err, CK.header().SavedSteps);
          else
            std::cerr << "warning: cannot write checkpoint to '" << Path
                      << "': " << Err << '\n';
        });
  }
  if (O.CheckpointEvery)
    M = M & checkpointEveryNSteps(O.CheckpointEvery);
  return M;
}

/// Imp runs use the same limits via the mode's RunOptions.
ResourceLimits limitsFor(const Options &O) {
  return modeFor(O).Limits;
}

void printFaults(const std::vector<MonitorFault> &Faults) {
  for (const MonitorFault &F : Faults)
    std::cerr << "monitor fault: " << F.str() << '\n';
}

void printDurabilityFaults(const std::vector<DurabilityFault> &Faults) {
  // F.str() already carries the "durability fault at <site>" prefix.
  for (const DurabilityFault &F : Faults)
    std::cerr << F.str() << '\n';
}

FaultInjector::Config injectorConfig(const std::string &Mode) {
  FaultInjector::Config Cfg;
  Cfg.M = Mode == "sleep"   ? FaultInjector::Mode::Sleep
          : Mode == "alloc" ? FaultInjector::Mode::Allocate
                            : FaultInjector::Mode::Throw;
  Cfg.PerMille = 200;
  return Cfg;
}

int runImperative(const Options &O, const std::string &Source) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Program = parseImpProgram(Ctx, Source, Diags);
  if (!Program) {
    std::cerr << Diags.str() << '\n';
    return exitCodeFor(Outcome::Error);
  }
  if (O.PrintAst)
    std::cout << printCmd(Program) << '\n';

  ImpStmtProfiler Prof;
  ImpTracer Trc;
  std::optional<ImpWatchMonitor> Watch;
  ImpCascade C;
  if (O.ImpProfile)
    C.use(Prof);
  if (O.ImpTrace)
    C.use(Trc);
  if (!O.ImpWatch.empty()) {
    Watch.emplace(O.ImpWatch);
    C.use(*Watch);
  }

  ImpRunOptions Opts;
  Opts.MaxSteps = O.MaxSteps;
  Opts.Limits = limitsFor(O);
  Opts.MonitorFaultPolicy = O.FaultPol;
  Opts.Input = O.ImpInput;
  ImpRunResult R = runImp(C, Program, Opts);
  printFaults(R.MonitorFaults);
  if (R.stoppedByGovernor()) {
    std::cerr << "stopped: " << outcomeName(R.St) << " after " << R.Steps
              << " steps\n";
    for (unsigned I = 0; I < C.size() && I < R.FinalStates.size(); ++I)
      std::cerr << C.monitor(I).name() << " (partial): "
                << R.FinalStates[I]->str() << '\n';
    return exitCodeFor(R.St);
  }
  if (!R.Ok) {
    std::cerr << "error: " << R.Error << '\n';
    return exitCodeFor(Outcome::Error);
  }
  for (const std::string &Line : R.Output)
    std::cout << Line << '\n';
  std::cout << "store:";
  for (const auto &[Name, Val] : R.Store)
    std::cout << ' ' << Name << " = " << Val << ';';
  std::cout << '\n';
  for (unsigned I = 0; I < C.size(); ++I)
    std::cout << C.monitor(I).name() << ": " << R.FinalStates[I]->str()
              << '\n';
  return 0;
}

int runFunctional(const Options &O, const std::string &Source) {
  auto P = ParsedProgram::parse(Source);
  if (!P->ok()) {
    std::cerr << P->diags().str() << '\n';
    return exitCodeFor(Outcome::Error);
  }
  const Expr *Program = P->root();
  if (O.Prelude) {
    DiagnosticSink PDiags;
    Program = wrapWithPrelude(P->context(), Program, PDiags);
    if (!Program) {
      std::cerr << PDiags.str() << '\n';
      return exitCodeFor(Outcome::Error);
    }
  }
  std::vector<Symbol> Names = toSymbols(O.Names);

  // Auto-annotation, one qualifier per requested monitor (Section 4.1's
  // environment-inserted annotations; qualifiers keep syntaxes disjoint).
  auto Annotate = [&](const char *Qual, bool WithParams) {
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern(Qual);
    AO.WithParams = WithParams;
    Program = annotateFunctionBodies(P->context(), Program, Names, AO);
  };
  if (O.Trace)
    Annotate("trace", /*WithParams=*/true);
  if (O.Profile)
    Annotate("profile", /*WithParams=*/false);
  if (O.Cost)
    Annotate("cost", /*WithParams=*/false);
  if (O.Alloc)
    Annotate("alloc", /*WithParams=*/false);
  if (O.CallGraph)
    Annotate("callgraph", /*WithParams=*/false);
  if (O.Record)
    Annotate("record", /*WithParams=*/true);
  unsigned NumPoints = 0;
  if (O.Coverage)
    Program = labelProgramPoints(P->context(), Program, "p",
                                 Symbol::intern("cover"), &NumPoints);

  if (O.PrintAst)
    std::cout << printExpr(Program) << '\n';

  // Level 3: specialize first if asked.
  AstContext PECtx;
  if (O.PE) {
    PEResult R = partialEvaluate(PECtx, Program);
    if (O.PrintResidual)
      std::cout << "residual: " << printExpr(R.Residual)
                << (R.GaveUp ? "   (specializer gave up)" : "") << '\n';
    Program = R.Residual;
  }

  // Assemble the mode: flags first (modeFor), then the cascade, all in
  // one EvalMode routed through the unified evaluate() entry. The tracker
  // arbitrates every durable sink of this run, including the checkpoint
  // file sink modeFor builds.
  DurabilityTracker Tracker(O.DurPol, O.DurBudget);
  EvalMode Mode = modeFor(O, &Tracker);

  // Resume: from an explicit checkpoint file, or from the last durable
  // checkpoint in a journal (after replaying its event tail, so the user
  // sees what the crashed run was doing).
  Checkpoint CK; // Must outlive evaluate().
  if (!O.ResumeJournal.empty()) {
    JournalRecovery Rec = recoverJournal(O.ResumeJournal);
    if (!Rec.Opened) {
      std::cerr << "error: cannot read journal '" << O.ResumeJournal
                << "'\n";
      return 1;
    }
    std::cerr << "journal: " << Rec.TotalEvents << " events";
    if (Rec.TornBytes)
      std::cerr << ", " << Rec.TornBytes << " torn trailing bytes discarded";
    std::cerr << "; last events:\n";
    for (const JournalEvent &E : Rec.Tail)
      std::cerr << "  [step " << E.Step << "] " << E.Text << '\n';
    if (Rec.LastCheckpoint.empty()) {
      std::cerr << "error: journal has no durable checkpoint to resume "
                   "from\n";
      return 1;
    }
    std::string Err;
    CK = Checkpoint::fromBytes(Rec.LastCheckpoint, Err);
    if (!CK.valid()) {
      std::cerr << "error: journal checkpoint is unusable: " << Err << '\n';
      return 1;
    }
    std::cerr << "resuming from step " << CK.header().SavedSteps << '\n';
  } else if (!O.ResumePath.empty()) {
    std::string Err;
    CK = Checkpoint::loadFile(O.ResumePath, Err);
    if (!CK.valid()) {
      std::cerr << "error: cannot load checkpoint '" << O.ResumePath
                << "': " << Err << '\n';
      return 1;
    }
  }
  if (CK.valid()) {
    // Backend and strategy are recorded in the checkpoint; adopt them so
    // `--resume=F` alone continues the run the way it was started. The
    // monitor flags still have to match (the monitor section is checked
    // name-by-name when the machine restores).
    Mode = Mode & resumeFrom(CK);
    // A VM checkpoint is tier-portable: an explicit --backend=vm,
    // vm-reg or vm-aot keeps that tier, anything else resumes on vm.
    if (CK.header().Backend == CheckpointBackend::VM) {
      if (Mode.B != Backend::VM && Mode.B != Backend::VMRegister &&
          Mode.B != Backend::VMAot)
        Mode.B = Backend::VM;
    } else {
      Mode.B = Backend::CEK;
    }
    Mode.Strat = static_cast<Strategy>(CK.header().Strategy);
  }

  // Crash-safe journal: every probe event and emitted checkpoint is
  // appended (and flushed) as the run goes, so a kill -9 still leaves a
  // usable trail. Arming a journal also arms the stop-boundary checkpoint.
  std::unique_ptr<Journal> J;
  if (!O.JournalPath.empty()) {
    std::string Err;
    J = Journal::open(O.JournalPath, Err);
    if (!J) {
      std::cerr << "error: cannot open journal '" << O.JournalPath
                << "': " << Err << '\n';
      return 1;
    }
    Mode = Mode & journalInto(*J);
    Mode.CheckpointOnStop = true;
  }

  Cascade &C = Mode.C;
  Tracer Trc(&std::cout);
  CallProfiler Prof;
  std::optional<FaultInjector> Inj;
  if (!O.Inject.empty())
    Inj.emplace(Prof, injectorConfig(O.Inject));
  CostProfiler Cost;
  AllocProfiler Alloc;
  CallGraphMonitor Graph;
  CollectingMonitor Coll;
  Demon DemonM = Demon::unsortedLists();
  Stepper Stp;
  FlightRecorder Rec(O.RecordCapacity);
  CoverageMonitor Cov(NumPoints);
  Debugger Dbg(std::cin, std::cout);
  if (O.Trace)
    C.use(Trc);
  if (O.Profile)
    C.use(Inj ? static_cast<const Monitor &>(*Inj) : Prof);
  if (O.Cost)
    C.use(Cost);
  if (O.Alloc)
    C.use(Alloc);
  if (O.CallGraph)
    C.use(Graph);
  if (O.Collect)
    C.use(Coll);
  if (O.DemonSorted)
    C.use(DemonM);
  if (O.Step)
    C.use(Stp);
  if (O.Record)
    C.use(Rec);
  if (O.Coverage)
    C.use(Cov);
  if (O.Debug)
    C.use(Dbg);

  if (!C.empty()) {
    DiagnosticSink LintDiags;
    if (C.reportUnclaimed(Program, LintDiags))
      std::cerr << LintDiags.str() << '\n';
  }

  if (O.B == Backend::VM || O.B == Backend::VMRegister ||
      O.B == Backend::VMAot) {
    if (O.Strat != Strategy::Strict) {
      std::cerr << "error: the bytecode backends support the strict "
                   "strategy only\n";
      return 2;
    }
    if (O.Disasm) {
      // `--backend=vm` lists the compiled program in stack notation (the
      // text the checkpoint fingerprint hashes); vm-reg lists the same
      // program in register notation, and vm-aot adds the C the emitter
      // hands to the system compiler for the eligible leaf blocks. A
      // program that does not compile prints nothing here; the run
      // reports why.
      DiagnosticSink Diags;
      if (auto CP = compileProgram(Program, Diags)) {
        if (O.B == Backend::VM) {
          std::cout << CP->disassemble();
        } else {
          RegProgram RP(*CP);
          std::cout << RP.disassemble();
          if (O.B == Backend::VMAot)
            std::cout << '\n' << aotEmitSource(RP);
        }
      }
    }
  }
  // One run on the embedding API the server multiplexes through: a
  // single-worker, unsliced Session is exactly a synchronous evaluate(),
  // so the CLI exercises the same code path `monsem serve` scales up.
  // (Mode stays live — the cascade reference below prints final states.)
  Session Sess;
  RunResult R = Sess.submit(Mode, Program).outcome();

  printFaults(R.MonitorFaults);
  printDurabilityFaults(R.DurabilityFaults);
  if (R.stoppedByGovernor()) {
    std::cerr << "stopped: " << outcomeName(R.St) << " after " << R.Steps
              << " steps\n";
    if (!O.CheckpointOut.empty())
      std::cerr << "checkpoint written to '" << O.CheckpointOut
                << "'; resume with --resume=" << O.CheckpointOut << '\n';
    for (unsigned I = 0; I < C.size() && I < R.FinalStates.size(); ++I) {
      if (&C.monitor(I) == &Trc)
        continue;
      std::cerr << C.monitor(I).name() << " (partial): "
                << R.FinalStates[I]->str() << '\n';
    }
    return exitCodeFor(R.St);
  }
  if (!R.Ok) {
    std::cerr << "error: " << R.Error << '\n';
    return exitCodeFor(Outcome::Error);
  }
  std::cout << R.ValueText << '\n';
  for (unsigned I = 0; I < C.size(); ++I) {
    // The tracer already echoed its lines live.
    if (&C.monitor(I) == &Trc)
      continue;
    std::cout << C.monitor(I).name() << ": " << R.FinalStates[I]->str()
              << '\n';
  }
  return 0;
}

/// `--supervise`: run the functional path in a forked child and, when the
/// child *crashes* — dies on a signal or exits with the injected-crash
/// status (kFailPointCrashExit) — resume it from the journal's last durable
/// checkpoint with exponential backoff, up to --max-restarts times. Normal
/// exits (including governor stops and ordinary errors) pass through
/// unchanged: the supervisor restarts crashes, it does not retry failures.
/// Convergence under deterministic crash injection: each attempt is a fresh
/// process whose failpoint counters restart, but checkpoints land earlier
/// in the attempt than the crash re-fires, so every restart begins strictly
/// further along; the final attempt reproduces the uninterrupted answer,
/// cumulative step count and monitor states exactly (that is what
/// checkpoint/resume guarantees, and tests/cli_test.cpp asserts it).
int runSupervised(Options O, const std::string &Source) {
  if (O.JournalPath.empty()) {
    std::cerr << "error: --supervise requires --journal=F (the journal is "
                 "what crash recovery resumes from)\n";
    return 2;
  }
  unsigned Restarts = 0;
  for (;;) {
    // Flush before fork so the child's stdio buffers start empty (no
    // double-printed parent bytes).
    std::cout.flush();
    std::cerr.flush();
    pid_t Pid = fork();
    if (Pid < 0) {
      std::cerr << "error: fork failed\n";
      return 1;
    }
    if (Pid == 0) {
      int Code = runFunctional(O, Source);
      std::cout.flush();
      std::cerr.flush();
      _exit(Code);
    }
    int Status = 0;
    if (waitpid(Pid, &Status, 0) < 0) {
      std::cerr << "error: waitpid failed\n";
      return 1;
    }
    bool Crashed =
        WIFSIGNALED(Status) ||
        (WIFEXITED(Status) && WEXITSTATUS(Status) == kFailPointCrashExit);
    if (!Crashed)
      return WIFEXITED(Status) ? WEXITSTATUS(Status) : 1;
    if (Restarts >= O.MaxRestarts) {
      std::cerr << "supervisor: giving up after " << O.MaxRestarts
                << " restart" << (O.MaxRestarts == 1 ? "" : "s") << '\n';
      return 1;
    }
    ++Restarts;
    // Exponential backoff, capped: doubling is for transient contention,
    // not for turning a long supervised run into a sleep marathon.
    constexpr uint64_t kMaxBackoffMs = 2000;
    unsigned Shift = Restarts - 1 < 20 ? Restarts - 1 : 20;
    uint64_t BackoffMs = O.RestartBackoffMs << Shift;
    if (BackoffMs > kMaxBackoffMs || BackoffMs < O.RestartBackoffMs)
      BackoffMs = kMaxBackoffMs;
    if (WIFSIGNALED(Status))
      std::cerr << "supervisor: run killed by signal " << WTERMSIG(Status);
    else
      std::cerr << "supervisor: run crashed";
    std::cerr << "; restart " << Restarts << "/" << O.MaxRestarts
              << " after " << BackoffMs << "ms backoff\n";
    std::cerr.flush();
    ::usleep(static_cast<useconds_t>(BackoffMs * 1000));
    // Resume from the journal when it already holds a durable checkpoint;
    // a crash before the first checkpoint restarts from scratch (the
    // journal's torn tail is truncated on reopen either way).
    JournalRecovery Rec = recoverJournal(O.JournalPath);
    O.ResumeJournal = Rec.Opened && !Rec.LastCheckpoint.empty()
                          ? O.JournalPath
                          : std::string();
  }
}

/// A line-based read-eval-monitor loop. `:let f = <expr>` accumulates a
/// (possibly recursive) definition; other lines evaluate in the scope of
/// everything defined so far, under the monitors toggled with `:monitor`.
int runRepl(const Options &Base) {
  std::vector<std::pair<std::string, std::string>> Defs; // name, source.
  bool Trace = false, Profile = false;
  Strategy Strat = Base.Strat;

  std::cout << "monsem repl — :let f = <expr>, :monitor trace|profile|off,\n"
            << ":strategy strict|name|need, :defs, :quit; anything else "
               "evaluates.\n";
  std::string Line;
  while (std::cout << "monsem> " << std::flush,
         std::getline(std::cin, Line)) {
    std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty())
      continue;
    if (Trimmed == ":quit" || Trimmed == ":q")
      break;
    if (Trimmed == ":defs") {
      for (const auto &[Name, Src] : Defs)
        std::cout << "  " << Name << " = " << Src << '\n';
      continue;
    }
    if (startsWith(Trimmed, ":strategy ")) {
      std::string_view V = trimString(Trimmed.substr(10));
      Strat = V == "name"   ? Strategy::CallByName
              : V == "need" ? Strategy::CallByNeed
                            : Strategy::Strict;
      std::cout << "strategy: " << strategyName(Strat) << '\n';
      continue;
    }
    if (startsWith(Trimmed, ":monitor ")) {
      std::string_view V = trimString(Trimmed.substr(9));
      if (V == "trace")
        Trace = true;
      else if (V == "profile")
        Profile = true;
      else if (V == "off")
        Trace = Profile = false;
      else
        std::cout << "unknown monitor '" << V << "'\n";
      std::cout << "monitors:" << (Trace ? " trace" : "")
                << (Profile ? " profile" : "")
                << (!Trace && !Profile ? " none" : "") << '\n';
      continue;
    }
    if (startsWith(Trimmed, ":let ")) {
      std::string_view Rest = trimString(Trimmed.substr(5));
      size_t Eq = Rest.find('=');
      if (Eq == std::string_view::npos) {
        std::cout << "expected :let <name> = <expr>\n";
        continue;
      }
      std::string Name(trimString(Rest.substr(0, Eq)));
      std::string Body(trimString(Rest.substr(Eq + 1)));
      // Validate the definition before accepting it.
      std::string Probe;
      for (const auto &[N, S] : Defs)
        Probe += "letrec " + N + " = " + S + " in ";
      Probe += "letrec " + Name + " = " + Body + " in 0";
      auto P = ParsedProgram::parse(Probe);
      if (!P->ok()) {
        std::cout << P->diags().str() << '\n';
        continue;
      }
      Defs.emplace_back(std::move(Name), std::move(Body));
      continue;
    }

    // Evaluate an expression in the accumulated scope.
    std::string Src;
    for (const auto &[N, S] : Defs)
      Src += "letrec " + N + " = " + S + " in ";
    Src += std::string(Trimmed);
    auto P = ParsedProgram::parse(Src);
    if (!P->ok()) {
      std::cout << P->diags().str() << '\n';
      continue;
    }
    const Expr *Program = P->root();
    Tracer Trc(&std::cout);
    CallProfiler Prof;
    // Same single assembly point as the batch path; only the strategy is
    // REPL-local state.
    Options ReplOpts = Base;
    ReplOpts.Strat = Strat;
    EvalMode Mode = modeFor(ReplOpts);
    Cascade &C = Mode.C;
    if (Trace) {
      AnnotateOptions AO;
      AO.Qualifier = Symbol::intern("trace");
      AO.WithParams = true;
      Program = annotateFunctionBodies(P->context(), Program, {}, AO);
      C.use(Trc);
    }
    if (Profile) {
      AnnotateOptions AO;
      AO.Qualifier = Symbol::intern("profile");
      Program = annotateFunctionBodies(P->context(), Program, {}, AO);
      C.use(Prof);
    }
    GCancel.store(false); // A ^C from a previous evaluation is spent.
    GFirstInt.store(0);   // ...and no longer arms the hard-exit escalation.
    Session Sess;
    RunResult R = Sess.submit(Mode, Program).outcome();
    if (R.stoppedByGovernor())
      std::cout << "stopped: " << outcomeName(R.St) << " after " << R.Steps
                << " steps\n";
    else if (!R.Ok)
      std::cout << "error: " << R.Error << '\n';
    else {
      std::cout << R.ValueText << '\n';
      if (Profile)
        std::cout << "profile: "
                  << R.FinalStates[C.size() - 1]->str() << '\n';
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage(Argv[0]);
  std::signal(SIGINT, onInterrupt);
  if (O.Serve) {
    ServeOptions SO;
    SO.Workers = O.Workers;
    SO.QuantumSteps = O.QuantumSteps;
    SO.MaxSteps = O.MaxSteps;
    SO.DeadlineMs = O.DeadlineMs;
    SO.MaxBytes = O.MaxBytes;
    SO.MaxDepth = O.MaxDepth;
    SO.JournalDir = O.JournalPath; // --journal=DIR in serve mode.
    SO.UnixPath = O.ListenUnix;
    SO.TcpPort = O.ListenTcp;
    SO.MaxLiveRuns = O.MaxLiveRuns;
    SO.MaxRunsPerTenant = O.MaxRunsPerTenant;
    SO.MaxResidentBytes = O.MaxResidentBytes;
    SO.MaxRequestBytes = O.MaxRequestBytes;
    SO.MaxOutboxBytes = O.MaxOutboxBytes;
    SO.IdleTimeoutMs = O.IdleTimeoutMs;
    SO.SlowReaderMs = O.SlowReaderMs;
    SO.SockSndbufBytes = O.SockSndbufBytes;
    SO.Interrupt = &GCancel; // First ^C drains politely; second hard-exits.
    return runServe(SO);
  }
  if (O.Imp && !O.FunctionalOnly.empty()) {
    std::cerr << "error: " << O.FunctionalOnly
              << " applies to functional programs only; --imp does not "
                 "take it\n";
    return 2;
  }
  if (O.Repl)
    return runRepl(O);
  std::optional<std::string> Source = readInput(O.File);
  if (!Source)
    return 1;
  if (O.Imp)
    return runImperative(O, *Source);
  if (O.Supervise)
    return runSupervised(O, *Source);
  return runFunctional(O, *Source);
}
