//===- tests/serve_test.cpp - Session API and `monsem serve` tests ---------===//
//
// Three layers, mirroring the server's own stack:
//
//  * SessionApi.*   — the embedding API in-process: sliced runs on a worker
//                     pool reproduce standalone evaluate() byte-for-byte
//                     (answers, cumulative step counts, probe streams),
//                     including 64 runs multiplexed over 4 workers.
//  * ServeProtocol.* — JSONL golden transcripts through the real binary
//                     over stdin (popen): accept/outcome ordering, error
//                     records, limit caps, capability denials.
//  * ServeDaemon.*  — a bidirectional pipe/fork/exec harness for the parts
//                     popen cannot drive: cancelling a run mid-flight, and
//                     crash-recovery convergence (failpoint-injected crash,
//                     restart on the same journal directory).
//  * ServeSocket.*  — real TCP clients against the poll-driven multiplexer:
//                     a 32-client soak with socket.{read,write} failpoints
//                     armed (short I/O must be absorbed byte-identically),
//                     and slow-reader disconnection under a tiny outbox cap.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "server/Session.h"

#include "monitors/Profiler.h"
#include "support/FailPoint.h"
#include "support/Journal.h"
#include "syntax/Annotator.h"

#include "DeepPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef MONSEM_CLI_PATH
#error "MONSEM_CLI_PATH must be defined by the build"
#endif

using namespace monsem;

namespace {

std::string facProgram(int N) {
  return "letrec fac = lambda n. if n < 2 then 1 else n * fac (n - 1) "
         "in fac " +
         std::to_string(N);
}

//===----------------------------------------------------------------------===//
// SessionApi — in-process embedding tests
//===----------------------------------------------------------------------===//

struct Baseline {
  std::string Value;
  uint64_t Steps = 0;
  Outcome St = Outcome::Ok;
  std::vector<std::pair<uint64_t, std::string>> Events;
  std::vector<std::string> Finals; ///< Monitor final states, cascade order.
};

/// The ground truth: an uninterrupted, unsliced evaluate() of \p Src under
/// a profile cascade, with every probe event recorded.
Baseline standalone(const std::string &Src, const CallProfiler &Prof) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  AnnotateOptions AO;
  AO.Qualifier = Symbol::intern("profile");
  const Expr *Prog = annotateFunctionBodies(P->context(), P->root(), {}, AO);
  Cascade C;
  C.use(Prof);
  Baseline B;
  EvalMode M = EvalMode(C) &
               eventsInto([&B](uint64_t S, const std::string &T) {
                 B.Events.emplace_back(S, T);
               });
  RunResult R = evaluate(M, Prog);
  B.Value = R.ValueText;
  B.Steps = R.Steps;
  B.St = R.St;
  for (const auto &FS : R.FinalStates)
    B.Finals.push_back(FS->str());
  return B;
}

TEST(SessionApi, SlicedRunMatchesStandalone) {
  CallProfiler Prof;
  Baseline Want = standalone(facProgram(10), Prof);
  ASSERT_EQ(Want.St, Outcome::Ok);

  auto P = ParsedProgram::parse(facProgram(10));
  ASSERT_TRUE(P->ok());
  AnnotateOptions AO;
  AO.Qualifier = Symbol::intern("profile");
  const Expr *Prog = annotateFunctionBodies(P->context(), P->root(), {}, AO);
  Cascade C;
  C.use(Prof);

  // A tiny quantum forces many checkpoint/requeue round trips.
  Session S(Session::Config{2, 32});
  std::vector<std::pair<uint64_t, std::string>> Events;
  uint64_t Checkpoints = 0;
  RunEvents Ev;
  Ev.OnProbe = [&Events](uint64_t Step, const std::string &T) {
    Events.emplace_back(Step, T);
  };
  Ev.OnCheckpoint = [&Checkpoints](uint64_t) { ++Checkpoints; };
  RunResult R = S.submit(EvalMode(C), Prog, std::move(Ev)).outcome();

  EXPECT_EQ(R.St, Outcome::Ok);
  EXPECT_EQ(R.ValueText, Want.Value);
  EXPECT_EQ(R.Steps, Want.Steps);
  EXPECT_EQ(Events, Want.Events); // Byte-for-byte, steps included.
  EXPECT_GT(Checkpoints, 1u);     // The run really was sliced.
}

TEST(SessionApi, SixtyFourRunsOnFourWorkersAreByteIdentical) {
  CallProfiler Prof;
  // Eight distinct programs, each with its own standalone baseline.
  constexpr int Kinds = 8;
  std::vector<Baseline> Want;
  std::vector<std::unique_ptr<ParsedProgram>> Parsed;
  std::vector<const Expr *> Progs;
  for (int K = 0; K < Kinds; ++K) {
    std::string Src = facProgram(6 + K);
    Want.push_back(standalone(Src, Prof));
    auto P = ParsedProgram::parse(Src);
    ASSERT_TRUE(P->ok());
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    Progs.push_back(
        annotateFunctionBodies(P->context(), P->root(), {}, AO));
    Parsed.push_back(std::move(P));
  }
  Cascade C;
  C.use(Prof);

  constexpr int Runs = 64;
  Session S(Session::Config{4, 64});
  std::vector<std::vector<std::pair<uint64_t, std::string>>> Events(Runs);
  std::vector<RunHandle> Handles;
  for (int I = 0; I < Runs; ++I) {
    auto *Sink = &Events[I];
    RunEvents Ev;
    Ev.OnProbe = [Sink](uint64_t Step, const std::string &T) {
      Sink->emplace_back(Step, T);
    };
    Handles.push_back(
        S.submit(EvalMode(C), Progs[I % Kinds], std::move(Ev)));
  }
  for (int I = 0; I < Runs; ++I) {
    const Baseline &B = Want[I % Kinds];
    RunResult R = Handles[I].outcome();
    EXPECT_EQ(R.St, Outcome::Ok) << "run " << I;
    EXPECT_EQ(R.ValueText, B.Value) << "run " << I;
    EXPECT_EQ(R.Steps, B.Steps) << "run " << I;
    EXPECT_EQ(Events[I], B.Events) << "run " << I;
  }
  EXPECT_EQ(S.liveRuns(), 0u);
}

TEST(SessionApi, CancelFinishesWithCancelledOutcome) {
  auto P = ParsedProgram::parse("letrec loop = lambda n. loop (n + 1) "
                                "in loop 0");
  ASSERT_TRUE(P->ok());
  Session S(Session::Config{2, 256});
  RunHandle H = S.submit(EvalMode(), P->root());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(H.done());
  H.cancel();
  RunResult R = H.outcome();
  EXPECT_EQ(R.St, Outcome::Cancelled);
  EXPECT_GT(R.Steps, 0u); // It really ran before being cancelled.
}

TEST(SessionApi, PauseParksAndResumeContinues) {
  // Long enough (tens of thousands of steps, hundreds of slices) that the
  // pause below always lands while the run is in flight; a pause that
  // arrives after a run finishes is a no-op by design.
  auto P = ParsedProgram::parse("letrec loop = lambda n. if n < 1 then 42 "
                                "else loop (n - 1) in loop 5000");
  ASSERT_TRUE(P->ok());
  // Unmonitored baseline: this test submits the bare program.
  RunResult Base = evaluate(EvalMode(), P->root());
  ASSERT_EQ(Base.St, Outcome::Ok);

  Session S(Session::Config{1, 64});
  RunHandle H = S.submit(EvalMode(), P->root());
  H.pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(H.done()); // Parked, not finished.
  EXPECT_EQ(S.liveRuns(), 1u);
  H.resume();
  RunResult R = H.outcome();
  EXPECT_EQ(R.St, Outcome::Ok);
  EXPECT_EQ(R.ValueText, Base.ValueText);
  EXPECT_EQ(R.Steps, Base.Steps); // Park/continue does not skew the count.
}

TEST(SessionApi, DestructorCancelsLiveRuns) {
  auto P = ParsedProgram::parse("letrec loop = lambda n. loop (n + 1) "
                                "in loop 0");
  ASSERT_TRUE(P->ok());
  RunHandle H;
  {
    Session S(Session::Config{2, 128});
    H = S.submit(EvalMode(), P->root());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } // ~Session cancels, drains, joins.
  ASSERT_TRUE(H.done());
  EXPECT_EQ(H.outcome().St, Outcome::Cancelled);
}

TEST(SessionApi, FairShareLetsASmallTenantThroughAConvoy) {
  // Tenant "a" floods the single worker with six long runs, then tenant
  // "b" submits one short run. Deficit round robin grants "b" a quantum
  // every rotation, so its run finishes first — under the old single
  // FIFO it would have finished last, behind ~500 slices of "a". "b" is
  // queued from a0's first requeue, when a0 has provably not finished;
  // queuing it from this thread could lose the race to a0's last slice.
  auto Long = ParsedProgram::parse("letrec loop = lambda n. if n < 1 then "
                                   "0 else loop (n - 1) in loop 2000");
  ASSERT_TRUE(Long->ok());
  auto Short = ParsedProgram::parse(facProgram(6));
  ASSERT_TRUE(Short->ok());

  Session::Config Cfg;
  Cfg.Workers = 1;
  Cfg.QuantumSteps = 64;
  Session S(Cfg);

  std::mutex OM;
  std::vector<std::string> FinishOrder;
  auto Finisher = [&](std::string Tag) {
    RunEvents Ev;
    Ev.OnFinish = [&, Tag](const RunResult &) {
      std::lock_guard<std::mutex> L(OM);
      FinishOrder.push_back(Tag);
    };
    return Ev;
  };

  std::promise<RunHandle> BQueued;
  std::future<RunHandle> BHandle = BQueued.get_future();
  std::atomic<bool> BSubmitted{false};
  std::vector<RunHandle> Handles;
  for (int I = 0; I < 6; ++I) {
    RunEvents Ev = Finisher("a" + std::to_string(I));
    if (I == 0)
      Ev.OnCheckpoint = [&](uint64_t) {
        if (!BSubmitted.exchange(true))
          BQueued.set_value(
              S.submit(EvalMode(), Short->root(), Finisher("b"), "b"));
      };
    Handles.push_back(S.submit(EvalMode(), Long->root(), std::move(Ev), "a"));
  }
  RunHandle B = BHandle.get();

  RunResult RB = B.outcome();
  EXPECT_EQ(RB.St, Outcome::Ok);
  EXPECT_EQ(RB.ValueText, "720");
  for (RunHandle &H : Handles)
    EXPECT_EQ(H.outcome().St, Outcome::Ok);
  {
    std::lock_guard<std::mutex> L(OM);
    ASSERT_FALSE(FinishOrder.empty());
    EXPECT_EQ(FinishOrder.front(), "b")
        << ::testing::PrintToString(FinishOrder);
  }
  // Per-tenant accounting survived the runs.
  bool SawA = false, SawB = false;
  for (const Session::TenantStats &T : S.tenantStats()) {
    if (T.Tenant == "a") {
      SawA = true;
      EXPECT_EQ(T.Done, 6u);
      EXPECT_GT(T.UserSteps, 0u);
    } else if (T.Tenant == "b") {
      SawB = true;
      EXPECT_EQ(T.Done, 1u);
    }
  }
  EXPECT_TRUE(SawA && SawB);
}

TEST(SessionApi, AdmissionCapsRejectOverCapSubmits) {
  auto P = ParsedProgram::parse("letrec loop = lambda n. loop (n + 1) "
                                "in loop 0");
  ASSERT_TRUE(P->ok());
  Session::Config Cfg;
  Cfg.Workers = 1;
  Cfg.QuantumSteps = 256;
  Cfg.MaxLiveRuns = 2;
  Cfg.MaxLivePerTenant = 1;
  Session S(Cfg);

  std::string Err;
  RunHandle H1 = S.submit(EvalMode(), P->root(), {}, "t1", &Err);
  ASSERT_TRUE(H1.valid()) << Err;
  // Second run for t1: per-tenant cap.
  RunHandle H1b = S.submit(EvalMode(), P->root(), {}, "t1", &Err);
  EXPECT_FALSE(H1b.valid());
  EXPECT_NE(Err.find("tenant"), std::string::npos) << Err;
  EXPECT_FALSE(S.admissible("t1"));
  // A different tenant still fits (2 live total)...
  ASSERT_TRUE(S.admissible("t2", &Err)) << Err;
  RunHandle H2 = S.submit(EvalMode(), P->root(), {}, "t2", &Err);
  ASSERT_TRUE(H2.valid()) << Err;
  // ...but a third hits the global cap.
  EXPECT_FALSE(S.admissible("t3", &Err));
  RunHandle H3 = S.submit(EvalMode(), P->root(), {}, "t3", &Err);
  EXPECT_FALSE(H3.valid());
  // AdmitErr == nullptr bypasses admission (the recovery path).
  RunHandle H4 = S.submit(EvalMode(), P->root(), {}, "t3");
  EXPECT_TRUE(H4.valid());

  for (RunHandle *H : {&H1, &H2, &H4})
    H->cancel();
  EXPECT_EQ(H1.outcome().St, Outcome::Cancelled);
  EXPECT_EQ(H2.outcome().St, Outcome::Cancelled);
  EXPECT_EQ(H4.outcome().St, Outcome::Cancelled);
}

TEST(SessionApi, EvictionUnderMemoryPressureIsByteIdentical) {
  // A one-byte resident cap parks every checkpointed run that is not on a
  // worker, so each of the ~30 slices per run round-trips its checkpoint
  // through a park file. Outcomes must still be byte-identical to
  // standalone — eviction is invisible or it is wrong.
  std::string Dir = ::testing::TempDir() + "serve_park_" +
                    std::to_string(::getpid());
  ASSERT_TRUE(::mkdir(Dir.c_str(), 0700) == 0 || errno == EEXIST);

  CallProfiler Prof;
  constexpr int Kinds = 4;
  std::vector<Baseline> Want;
  std::vector<std::unique_ptr<ParsedProgram>> Parsed;
  std::vector<const Expr *> Progs;
  for (int K = 0; K < Kinds; ++K) {
    std::string Src = facProgram(8 + K);
    Want.push_back(standalone(Src, Prof));
    auto P = ParsedProgram::parse(Src);
    ASSERT_TRUE(P->ok());
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    Progs.push_back(annotateFunctionBodies(P->context(), P->root(), {}, AO));
    Parsed.push_back(std::move(P));
  }
  Cascade C;
  C.use(Prof);

  Session::Config Cfg;
  Cfg.Workers = 2;
  Cfg.QuantumSteps = 64;
  Cfg.MaxResidentBytes = 1;
  Cfg.ParkDir = Dir;
  constexpr int Runs = 12;
  uint64_t Evicted = 0;
  {
    Session S(Cfg);
    std::vector<std::vector<std::pair<uint64_t, std::string>>> Events(Runs);
    std::vector<RunHandle> Handles;
    for (int I = 0; I < Runs; ++I) {
      auto *Sink = &Events[I];
      RunEvents Ev;
      Ev.OnProbe = [Sink](uint64_t Step, const std::string &T) {
        Sink->emplace_back(Step, T);
      };
      Handles.push_back(
          S.submit(EvalMode(C), Progs[I % Kinds], std::move(Ev)));
    }
    for (int I = 0; I < Runs; ++I) {
      const Baseline &B = Want[I % Kinds];
      RunResult R = Handles[I].outcome();
      EXPECT_EQ(R.St, Outcome::Ok) << "run " << I;
      EXPECT_EQ(R.ValueText, B.Value) << "run " << I;
      EXPECT_EQ(R.Steps, B.Steps) << "run " << I;
      EXPECT_EQ(Events[I], B.Events) << "run " << I;
    }
    Evicted = S.evictions();
    EXPECT_GT(Evicted, 0u); // The cap really did force parking.
    EXPECT_EQ(S.residentBytes(), 0u); // Finished runs release the gauge.
  }
  // Every park file was cleaned up (restored runs unlink on load,
  // finished runs unlink their leftovers).
  DIR *D = ::opendir(Dir.c_str());
  ASSERT_NE(D, nullptr);
  int Leftover = 0;
  while (dirent *E = ::readdir(D))
    if (std::string_view(E->d_name).find(".park") != std::string_view::npos)
      ++Leftover;
  ::closedir(D);
  EXPECT_EQ(Leftover, 0);
  ::rmdir(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// ServeProtocol — golden transcripts over stdin
//===----------------------------------------------------------------------===//

struct Transcript {
  int ExitCode = -1;
  std::vector<std::string> Lines;
};

/// Feeds \p Requests (JSONL) to `monsem serve <Flags>` over stdin and
/// collects the stdout transcript.
Transcript serveStdin(const std::string &Requests, const std::string &Flags) {
  std::string ReqFile =
      ::testing::TempDir() + "serve_req_" + std::to_string(::getpid()) +
      "_" + std::to_string(::rand()) + ".jsonl";
  {
    FILE *F = fopen(ReqFile.c_str(), "w");
    EXPECT_NE(F, nullptr);
    fwrite(Requests.data(), 1, Requests.size(), F);
    fclose(F);
  }
  std::string Cmd = std::string(MONSEM_CLI_PATH) + " serve " + Flags +
                    " < " + ReqFile + " 2>/dev/null";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  Transcript T;
  std::string Out;
  char Buf[512];
  while (size_t N = fread(Buf, 1, sizeof(Buf), Pipe))
    Out.append(Buf, N);
  T.ExitCode = WEXITSTATUS(pclose(Pipe));
  std::remove(ReqFile.c_str());
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t NL = Out.find('\n', Pos);
    if (NL == std::string::npos)
      NL = Out.size();
    T.Lines.push_back(Out.substr(Pos, NL - Pos));
    Pos = NL + 1;
  }
  return T;
}

bool lineHas(const std::string &Line, const std::string &Needle) {
  return Line.find(Needle) != std::string::npos;
}

TEST(ServeProtocol, GoldenSubmitTranscript) {
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"r1\",\"program\":\"" + facProgram(6) +
          "\"}\n",
      "--workers=1 --quantum-steps=0");
  ASSERT_EQ(T.Lines.size(), 3u) << ::testing::PrintToString(T.Lines);
  EXPECT_EQ(T.Lines[0], "{\"event\":\"accepted\",\"id\":\"r1\"}");
  EXPECT_TRUE(lineHas(T.Lines[1], "\"event\":\"outcome\"")) << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[1], "\"id\":\"r1\"")) << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[1], "\"outcome\":\"ok\"")) << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[1], "\"exit_code\":0")) << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[1], "\"value\":\"720\"")) << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[2], "\"event\":\"shutdown\"")) << T.Lines[2];
  EXPECT_TRUE(lineHas(T.Lines[2], "\"done\":1")) << T.Lines[2];
  EXPECT_EQ(T.ExitCode, 0);
}

TEST(ServeProtocol, MalformedLineDoesNotKillTheDaemon) {
  Transcript T = serveStdin(
      "{not json\n"
      "{\"op\":\"submit\",\"id\":\"after\",\"program\":\"1 + 2\"}\n",
      "--workers=1");
  ASSERT_GE(T.Lines.size(), 3u) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(lineHas(T.Lines[0], "\"event\":\"error\"")) << T.Lines[0];
  EXPECT_EQ(T.Lines[1], "{\"event\":\"accepted\",\"id\":\"after\"}");
  EXPECT_TRUE(lineHas(T.Lines[2], "\"value\":\"3\"")) << T.Lines[2];
  EXPECT_EQ(T.ExitCode, 0);
}

TEST(ServeProtocol, ParseErrorYieldsErrorRecordNotAcceptance) {
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"bad\",\"program\":\"((\"}\n",
      "--workers=1");
  ASSERT_GE(T.Lines.size(), 1u);
  EXPECT_TRUE(lineHas(T.Lines[0], "\"event\":\"error\"")) << T.Lines[0];
  EXPECT_TRUE(lineHas(T.Lines[0], "\"id\":\"bad\"")) << T.Lines[0];
}

TEST(ServeProtocol, OverLimitRunGetsOutcomeRecordWithExitCode) {
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"lim\",\"program\":\"letrec loop = "
      "lambda n. loop (n + 1) in loop 0\",\"limits\":{\"max_steps\":"
      "500}}\n",
      "--workers=1 --quantum-steps=0");
  ASSERT_GE(T.Lines.size(), 2u) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(lineHas(T.Lines[1], "\"outcome\":\"fuel-exhausted\""))
      << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[1], "\"exit_code\":3")) << T.Lines[1];
}

TEST(ServeProtocol, ServerCapOverridesGreedyRequest) {
  // The request asks for a billion steps; the server was started with a
  // 500-step cap. Tighter wins.
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"greedy\",\"program\":\"letrec loop = "
      "lambda n. loop (n + 1) in loop 0\",\"limits\":{\"max_steps\":"
      "1000000000}}\n",
      "--workers=1 --max-steps=500");
  ASSERT_GE(T.Lines.size(), 2u) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(lineHas(T.Lines[1], "\"outcome\":\"fuel-exhausted\""))
      << T.Lines[1];
}

TEST(ServeProtocol, CapabilityDenials) {
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"a\",\"program\":\"1\",\"monitors\":"
      "[\"debug\"]}\n"
      "{\"op\":\"submit\",\"id\":\"b\",\"program\":\"1\",\"monitors\":"
      "[\"nosuch\"]}\n"
      "{\"op\":\"submit\",\"id\":\"c\",\"program\":\"1\",\"durable\":"
      "true}\n",
      "--workers=1");
  ASSERT_GE(T.Lines.size(), 3u) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(lineHas(T.Lines[0], "interactive")) << T.Lines[0];
  EXPECT_TRUE(lineHas(T.Lines[1], "unknown monitor")) << T.Lines[1];
  EXPECT_TRUE(lineHas(T.Lines[2], "durability not granted")) << T.Lines[2];
}

TEST(ServeProtocol, StatusAndExplicitShutdown) {
  Transcript T = serveStdin("{\"op\":\"status\"}\n{\"op\":\"shutdown\"}\n"
                            "{\"op\":\"status\"}\n",
                            "--workers=3");
  ASSERT_GE(T.Lines.size(), 2u);
  EXPECT_TRUE(lineHas(T.Lines[0], "\"event\":\"status\"")) << T.Lines[0];
  EXPECT_TRUE(lineHas(T.Lines[0], "\"workers\":3")) << T.Lines[0];
  // The request after shutdown is never processed.
  EXPECT_TRUE(lineHas(T.Lines[1], "\"event\":\"shutdown\"")) << T.Lines[1];
  EXPECT_EQ(T.Lines.size(), 2u) << ::testing::PrintToString(T.Lines);
  EXPECT_EQ(T.ExitCode, 0);
}

TEST(ServeProtocol, SixtyFourConcurrentRunsAllAnswer) {
  // Protocol-level smoke of the multiplexing path: 64 governed runs on 4
  // workers, every one gets the right value. (Byte-identity of streams is
  // asserted in-process by SessionApi.SixtyFourRunsOnFourWorkers*.)
  std::string Reqs;
  for (int I = 0; I < 64; ++I)
    Reqs += "{\"op\":\"submit\",\"id\":\"r" + std::to_string(I) +
            "\",\"program\":\"" + facProgram(6 + I % 8) +
            "\",\"limits\":{\"max_steps\":1000000}}\n";
  Transcript T = serveStdin(Reqs, "--workers=4 --quantum-steps=64");
  EXPECT_EQ(T.ExitCode, 0);
  int Outcomes = 0;
  for (const std::string &L : T.Lines)
    if (lineHas(L, "\"outcome\":\"ok\""))
      ++Outcomes;
  EXPECT_EQ(Outcomes, 64) << "lines: " << T.Lines.size();
  // Spot-check one value per program kind.
  bool Sawfac6 = false;
  for (const std::string &L : T.Lines)
    if (lineHas(L, "\"id\":\"r0\"") && lineHas(L, "\"value\":\"720\""))
      Sawfac6 = true;
  EXPECT_TRUE(Sawfac6);
}

TEST(ServeProtocol, RequestLineOverTheCapIsRejectedStructurally) {
  // A 16KiB request line against a 4KiB cap: the daemon answers with a
  // structured error record and disconnects that channel instead of
  // buffering without bound — and still exits cleanly.
  std::string Huge = "{\"op\":\"submit\",\"id\":\"big\",\"program\":\"";
  Huge.append(16 * 1024, '1');
  Huge += "\"}\n";
  Transcript T = serveStdin(Huge, "--workers=1 --max-request-bytes=4096");
  ASSERT_GE(T.Lines.size(), 2u) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(lineHas(T.Lines[0], "\"event\":\"error\"")) << T.Lines[0];
  EXPECT_TRUE(lineHas(T.Lines[0], "request line exceeds 4096 bytes"))
      << T.Lines[0];
  EXPECT_TRUE(lineHas(T.Lines.back(), "\"event\":\"shutdown\""))
      << T.Lines.back();
  EXPECT_EQ(T.ExitCode, 0);
}

TEST(ServeProtocol, OverCapSubmitGetsOverloadedWithRetryHint) {
  // --max-live-runs=1: the second submit arrives while the first is still
  // burning its 2M-step budget, so admission rejects it with a structured
  // `overloaded` record (and a retry-after hint) rather than queueing.
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"hog\",\"program\":\"letrec loop = "
      "lambda n. loop (n + 1) in loop 0\",\"limits\":{\"max_steps\":"
      "2000000}}\n"
      "{\"op\":\"submit\",\"id\":\"turned-away\",\"program\":\"1\"}\n",
      "--workers=1 --quantum-steps=4096 --max-live-runs=1");
  EXPECT_EQ(T.ExitCode, 0);
  bool SawOverloaded = false, HogFinished = false;
  for (const std::string &L : T.Lines) {
    if (lineHas(L, "\"event\":\"overloaded\"")) {
      SawOverloaded = true;
      EXPECT_TRUE(lineHas(L, "\"id\":\"turned-away\"")) << L;
      EXPECT_TRUE(lineHas(L, "\"tenant\":\"stdio\"")) << L;
      EXPECT_TRUE(lineHas(L, "\"retry_after_ms\":")) << L;
    }
    if (lineHas(L, "\"id\":\"hog\"") && lineHas(L, "\"event\":\"outcome\""))
      HogFinished = true;
  }
  EXPECT_TRUE(SawOverloaded) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(HogFinished); // Backpressure never cancels admitted work.
}

TEST(ServeProtocol, StatusCarriesTenantRowsAndResidentGauge) {
  Transcript T2 = serveStdin(
      "{\"op\":\"submit\",\"id\":\"r1\",\"program\":\"" + facProgram(6) +
          "\",\"tenant\":\"alice\"}\n"
          "{\"op\":\"status\"}\n",
      "--workers=1");
  bool SawRow = false;
  for (const std::string &L : T2.Lines)
    if (lineHas(L, "\"event\":\"status\"")) {
      EXPECT_TRUE(lineHas(L, "\"resident_bytes\":")) << L;
      EXPECT_TRUE(lineHas(L, "\"evictions\":")) << L;
      EXPECT_TRUE(lineHas(L, "\"tenants\":[")) << L;
      EXPECT_TRUE(lineHas(L, "\"tenant\":\"alice\"")) << L;
      SawRow = true;
    }
  EXPECT_TRUE(SawRow) << ::testing::PrintToString(T2.Lines);
}

TEST(ServeProtocol, IntOverflowRunDoesNotStrandLaterSubmits) {
  // INT64_MIN / -1 once raised SIGFPE and took the daemon down, so runs
  // queued behind it never got an outcome. Both must answer now.
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"ovf\",\"program\":\"(0 - "
      "9223372036854775807 - 1) / (0 - 1)\",\"tenant\":\"alice\"}\n"
      "{\"op\":\"submit\",\"id\":\"later\",\"program\":\"" +
          facProgram(6) + "\",\"tenant\":\"bob\"}\n",
      "--workers=1");
  EXPECT_EQ(T.ExitCode, 0);
  bool SawOverflow = false, SawLater = false;
  for (const std::string &L : T.Lines) {
    if (!lineHas(L, "\"event\":\"outcome\""))
      continue;
    SawOverflow |= lineHas(L, "\"id\":\"ovf\"") &&
                   lineHas(L, "\"value\":\"-9223372036854775808\"");
    SawLater |= lineHas(L, "\"id\":\"later\"") &&
                lineHas(L, "\"value\":\"720\"");
  }
  EXPECT_TRUE(SawOverflow) << ::testing::PrintToString(T.Lines);
  EXPECT_TRUE(SawLater) << ::testing::PrintToString(T.Lines);
}

TEST(ServeProtocol, NestingLimitRefusesTheProgramAndKeepsServing) {
  // A program nested past the parser's bounds once overflowed the C stack
  // and killed the daemon, so later submissions got no outcome. Now each
  // shape at its bound runs, one past it gets an error record, and the
  // daemon keeps serving.
  std::string In;
  std::vector<std::string> Backends = {"cek", "vm", "vm-reg", "vm-aot"};
  size_t K = 0;
  for (const monsem::testing::DeepShape &S : monsem::testing::deepShapes()) {
    const std::string &B = Backends[K++ % Backends.size()];
    for (bool Past : {false, true})
      In += "{\"op\":\"submit\",\"id\":\"" + std::string(S.Name) +
            (Past ? "-past" : "-at") + "\",\"backend\":\"" + B +
            "\",\"program\":\"" + S.program(S.Bound + Past) + "\"}\n";
  }
  In += "{\"op\":\"submit\",\"id\":\"later\",\"program\":\"1 + 2\"}\n";
  Transcript T = serveStdin(In, "--workers=1");
  EXPECT_EQ(T.ExitCode, 0);
  auto Has = [&](const std::string &Id, const char *Event) {
    for (const std::string &L : T.Lines)
      if (lineHas(L, "\"id\":\"" + Id + "\"") && lineHas(L, Event))
        return true;
    return false;
  };
  for (const monsem::testing::DeepShape &S : monsem::testing::deepShapes()) {
    EXPECT_TRUE(Has(std::string(S.Name) + "-at", "\"event\":\"outcome\""))
        << S.Name;
    EXPECT_TRUE(Has(std::string(S.Name) + "-past", "\"event\":\"error\""))
        << S.Name;
  }
  bool SawLater = false;
  for (const std::string &L : T.Lines)
    SawLater |= lineHas(L, "\"id\":\"later\"") &&
                lineHas(L, "\"event\":\"outcome\"") &&
                lineHas(L, "\"value\":\"3\"");
  EXPECT_TRUE(SawLater);
}

TEST(ServeProtocol, BadTenantIsRejected) {
  Transcript T = serveStdin(
      "{\"op\":\"submit\",\"id\":\"r1\",\"program\":\"1\",\"tenant\":"
      "\"../etc\"}\n",
      "--workers=1");
  ASSERT_GE(T.Lines.size(), 1u);
  EXPECT_TRUE(lineHas(T.Lines[0], "\"event\":\"error\"")) << T.Lines[0];
  EXPECT_TRUE(lineHas(T.Lines[0], "tenant")) << T.Lines[0];
}

//===----------------------------------------------------------------------===//
// ServeDaemon — bidirectional harness (cancel mid-run, crash recovery)
//===----------------------------------------------------------------------===//

struct ServeProc {
  pid_t Pid = -1;
  int InFd = -1, OutFd = -1;
  std::string Buf;

  bool start(const std::vector<std::string> &ExtraArgs,
             const char *FailPoints = nullptr) {
    int In[2], Out[2];
    if (pipe(In) != 0 || pipe(Out) != 0)
      return false;
    Pid = fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      ::dup2(In[0], 0);
      ::dup2(Out[1], 1);
      ::close(In[0]);
      ::close(In[1]);
      ::close(Out[0]);
      ::close(Out[1]);
      if (FailPoints)
        ::setenv("MONSEM_FAILPOINTS", FailPoints, 1);
      std::vector<std::string> Args = {MONSEM_CLI_PATH, "serve"};
      Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(MONSEM_CLI_PATH, Argv.data());
      _exit(127);
    }
    ::close(In[0]);
    ::close(Out[1]);
    InFd = In[1];
    OutFd = Out[0];
    return true;
  }

  bool send(const std::string &Line) {
    std::string L = Line + "\n";
    return ::write(InFd, L.data(), L.size()) ==
           static_cast<ssize_t>(L.size());
  }

  void closeIn() {
    if (InFd >= 0) {
      ::close(InFd);
      InFd = -1;
    }
  }

  bool readLine(std::string &OutLine, int TimeoutMs = 20000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        OutLine = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0)
        return false;
      struct pollfd P = {OutFd, POLLIN, 0};
      int N = ::poll(&P, 1, static_cast<int>(Left));
      if (N <= 0)
        return false;
      char Chunk[1024];
      ssize_t R = ::read(OutFd, Chunk, sizeof(Chunk));
      if (R <= 0)
        return false; // EOF before a full line.
      Buf.append(Chunk, static_cast<size_t>(R));
    }
  }

  /// Reads lines until one contains \p Needle; collects everything read
  /// into \p Seen when given.
  bool readUntil(const std::string &Needle, std::string *Hit = nullptr,
                 std::vector<std::string> *Seen = nullptr) {
    std::string L;
    while (readLine(L)) {
      if (Seen)
        Seen->push_back(L);
      if (L.find(Needle) != std::string::npos) {
        if (Hit)
          *Hit = L;
        return true;
      }
    }
    return false;
  }

  int wait() {
    closeIn();
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
    return St;
  }

  ~ServeProc() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int St;
      ::waitpid(Pid, &St, 0);
    }
    closeIn();
    if (OutFd >= 0)
      ::close(OutFd);
  }
};

TEST(ServeDaemon, CancelMidRunYieldsCancelledOutcome) {
  ServeProc P;
  ASSERT_TRUE(P.start({"--workers=2", "--quantum-steps=1024"}));
  ASSERT_TRUE(P.send("{\"op\":\"submit\",\"id\":\"spin\",\"program\":"
                     "\"letrec loop = lambda n. loop (n + 1) in loop 0\"}"));
  ASSERT_TRUE(P.readUntil("\"event\":\"accepted\""));
  // Let it spin a little, then cancel.
  ASSERT_TRUE(P.readUntil("\"event\":\"checkpoint\""));
  ASSERT_TRUE(P.send("{\"op\":\"cancel\",\"id\":\"spin\"}"));
  std::string Outcome;
  ASSERT_TRUE(P.readUntil("\"event\":\"outcome\"", &Outcome));
  EXPECT_TRUE(Outcome.find("\"outcome\":\"cancelled\"") != std::string::npos)
      << Outcome;
  EXPECT_TRUE(Outcome.find("\"exit_code\":6") != std::string::npos)
      << Outcome;
  int St = P.wait();
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
}

TEST(ServeDaemon, StatusReportsPerfCounters) {
  ServeProc P;
  ASSERT_TRUE(P.start({"--workers=1"}));
  // A fresh daemon has no scheduler occupancy and no completed steps.
  ASSERT_TRUE(P.send("{\"op\":\"status\"}"));
  std::string S0;
  ASSERT_TRUE(P.readUntil("\"event\":\"status\"", &S0));
  EXPECT_TRUE(S0.find("\"active\":0") != std::string::npos) << S0;
  EXPECT_TRUE(S0.find("\"queued\":0") != std::string::npos) << S0;
  EXPECT_TRUE(S0.find("\"user_steps\":0") != std::string::npos) << S0;
  EXPECT_TRUE(S0.find("\"steps_per_sec\":") != std::string::npos) << S0;
  // UserSteps is credited before the outcome event is emitted, so a
  // status issued after the outcome must account the finished run.
  ASSERT_TRUE(P.send("{\"op\":\"submit\",\"id\":\"f\",\"program\":\"" +
                     facProgram(10) + "\"}"));
  std::string Outcome;
  ASSERT_TRUE(P.readUntil("\"event\":\"outcome\"", &Outcome));
  EXPECT_TRUE(Outcome.find("\"outcome\":\"ok\"") != std::string::npos)
      << Outcome;
  // The worker releases its occupancy slot just *after* the outcome
  // callback returns, so a status racing that window can still read
  // active:1; poll until the scheduler settles.
  std::string S1;
  bool Settled = false;
  for (int I = 0; I < 100 && !Settled; ++I) {
    ASSERT_TRUE(P.send("{\"op\":\"status\"}"));
    ASSERT_TRUE(P.readUntil("\"event\":\"status\"", &S1));
    Settled = S1.find("\"active\":0") != std::string::npos;
    if (!Settled)
      usleep(10000);
  }
  EXPECT_TRUE(Settled) << S1;
  EXPECT_TRUE(S1.find("\"user_steps\":0,") == std::string::npos) << S1;
  P.wait();
}

TEST(ServeDaemon, CancelUnknownRunIsAnError) {
  ServeProc P;
  ASSERT_TRUE(P.start({"--workers=1"}));
  ASSERT_TRUE(P.send("{\"op\":\"cancel\",\"id\":\"ghost\"}"));
  std::string Err;
  ASSERT_TRUE(P.readUntil("\"event\":\"error\"", &Err));
  EXPECT_TRUE(Err.find("no such live run") != std::string::npos) << Err;
  P.wait();
}

/// Crash-recovery convergence: a durable run is killed mid-flight by a
/// failpoint-injected crash in the journal write path (the same
/// deterministic crash PR7's supervisor tests use), the daemon is
/// restarted on the same journal directory, and the recovered run must
/// converge to the standalone answer with the exact cumulative step count.
/// The probe events streamed after recovery must equal the standalone
/// event stream's suffix past the recovery point.
TEST(ServeDaemon, CrashRecoveryConvergesToStandaloneAnswer) {
  CallProfiler Prof;
  Baseline Want = standalone(facProgram(18), Prof);
  ASSERT_EQ(Want.St, Outcome::Ok);

  std::string Dir = ::testing::TempDir() + "serve_crash_" +
                    std::to_string(::getpid());
  std::string Submit =
      "{\"op\":\"submit\",\"id\":\"dur\",\"program\":\"" + facProgram(18) +
      "\",\"monitors\":[\"profile\"],\"durable\":true}";

  // Attempt 1: crash on the 12th journal write — mid-run, after at least
  // one durable checkpoint.
  {
    ServeProc P;
    ASSERT_TRUE(P.start({"--workers=1", "--quantum-steps=64",
                         "--journal=" + Dir},
                        "journal.write=crash@12"));
    ASSERT_TRUE(P.send(Submit));
    ASSERT_TRUE(P.readUntil("\"event\":\"accepted\""));
    P.closeIn();
    int St = 0;
    ::waitpid(P.Pid, &St, 0);
    P.Pid = -1;
    ASSERT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == kFailPointCrashExit)
        << "crash failpoint did not fire; status " << St;
  }

  // Attempt 2: same journal directory, no failpoints. The persisted
  // request is rediscovered and resumed from the last durable checkpoint.
  {
    ServeProc P;
    ASSERT_TRUE(P.start({"--workers=1", "--quantum-steps=64",
                         "--journal=" + Dir}));
    std::vector<std::string> Seen;
    std::string Rec;
    ASSERT_TRUE(P.readUntil("\"event\":\"recovered\"", &Rec, &Seen));
    json::Value RecV;
    std::string JErr;
    ASSERT_TRUE(json::parse(Rec, RecV, JErr)) << Rec;
    uint64_t RecSteps =
        static_cast<uint64_t>(RecV.field("steps")->intOr(0));
    EXPECT_GT(RecSteps, 0u); // crash@12 lands after the first checkpoint.

    std::string Outcome;
    ASSERT_TRUE(P.readUntil("\"event\":\"outcome\"", &Outcome, &Seen));
    json::Value OutV;
    ASSERT_TRUE(json::parse(Outcome, OutV, JErr)) << Outcome;
    EXPECT_EQ(OutV.field("outcome")->strOr(), "ok") << Outcome;
    EXPECT_EQ(OutV.field("value")->strOr(), Want.Value) << Outcome;
    EXPECT_EQ(static_cast<uint64_t>(OutV.field("steps")->intOr(0)),
              Want.Steps)
        << Outcome;

    // Post-recovery probe stream == standalone stream past RecSteps.
    std::vector<std::pair<uint64_t, std::string>> Streamed;
    for (const std::string &L : Seen) {
      if (L.find("\"event\":\"probes\"") == std::string::npos)
        continue;
      json::Value V;
      ASSERT_TRUE(json::parse(L, V, JErr)) << L;
      for (const json::Value &E : V.field("events")->Elems)
        Streamed.emplace_back(
            static_cast<uint64_t>(E.field("step")->intOr(0)),
            std::string(E.field("text")->strOr()));
    }
    std::vector<std::pair<uint64_t, std::string>> WantSuffix;
    for (const auto &[Step, Text] : Want.Events)
      if (Step > RecSteps)
        WantSuffix.emplace_back(Step, Text);
    EXPECT_EQ(Streamed, WantSuffix);

    int St = P.wait();
    EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
    // The request file was consumed: a third start recovers nothing.
    ServeProc P3;
    ASSERT_TRUE(P3.start({"--workers=1", "--journal=" + Dir}));
    ASSERT_TRUE(P3.send("{\"op\":\"status\"}"));
    std::string Status;
    ASSERT_TRUE(P3.readUntil("\"event\":\"status\"", &Status));
    EXPECT_TRUE(Status.find("\"live\":0") != std::string::npos) << Status;
    P3.wait();
  }
}

/// Eviction differential through the real daemon: a one-byte resident cap
/// forces constant park/restore churn in the private spool, yet every
/// outcome must match the standalone evaluate() exactly, and the final
/// status must confess that eviction fired.
TEST(ServeDaemon, EvictionUnderCapMatchesStandalone) {
  CallProfiler Prof;
  constexpr int Kinds = 4;
  std::vector<Baseline> Want;
  for (int K = 0; K < Kinds; ++K)
    Want.push_back(standalone(facProgram(10 + K), Prof));

  ServeProc P;
  ASSERT_TRUE(P.start({"--workers=2", "--quantum-steps=128",
                       "--max-resident-bytes=1"}));
  constexpr int Runs = 12;
  for (int I = 0; I < Runs; ++I)
    ASSERT_TRUE(P.send("{\"op\":\"submit\",\"id\":\"e" + std::to_string(I) +
                       "\",\"program\":\"" + facProgram(10 + I % Kinds) +
                       "\",\"monitors\":[\"profile\"]}"));
  int Outcomes = 0;
  std::string L, JErr;
  while (Outcomes < Runs && P.readLine(L)) {
    if (L.find("\"event\":\"outcome\"") == std::string::npos)
      continue;
    ++Outcomes;
    json::Value V;
    ASSERT_TRUE(json::parse(L, V, JErr)) << L;
    std::string Id(V.field("id")->strOr());
    ASSERT_EQ(Id[0], 'e');
    const Baseline &B = Want[std::stoi(Id.substr(1)) % Kinds];
    EXPECT_EQ(V.field("outcome")->strOr(), "ok") << L;
    EXPECT_EQ(V.field("value")->strOr(), B.Value) << L;
    EXPECT_EQ(static_cast<uint64_t>(V.field("steps")->intOr(0)), B.Steps)
        << L;
  }
  ASSERT_EQ(Outcomes, Runs);
  ASSERT_TRUE(P.send("{\"op\":\"status\"}"));
  std::string Status;
  ASSERT_TRUE(P.readUntil("\"event\":\"status\"", &Status));
  json::Value SV;
  ASSERT_TRUE(json::parse(Status, SV, JErr)) << Status;
  EXPECT_GT(SV.field("evictions")->intOr(0), 0) << Status;
  int St = P.wait();
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
}

//===----------------------------------------------------------------------===//
// ServeSocket — real TCP clients against the multiplexer
//===----------------------------------------------------------------------===//

/// A blocking TCP test client speaking the JSONL protocol.
struct TcpClient {
  int Fd = -1;
  std::string Buf;

  bool connectTo(uint16_t Port, int RcvBuf = 0) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    if (RcvBuf > 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &RcvBuf, sizeof(RcvBuf));
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(Port);
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
  }

  bool send(const std::string &Line) {
    std::string L = Line + "\n";
    size_t Off = 0;
    while (Off < L.size()) {
      ssize_t W = ::write(Fd, L.data() + Off, L.size() - Off);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(W);
    }
    return true;
  }

  void shutdownWrite() { ::shutdown(Fd, SHUT_WR); }

  bool readLine(std::string &Out, int TimeoutMs = 30000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Out = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0)
        return false;
      struct pollfd PP = {Fd, POLLIN, 0};
      if (::poll(&PP, 1, static_cast<int>(Left)) <= 0)
        return false;
      char Chunk[4096];
      ssize_t R = ::read(Fd, Chunk, sizeof(Chunk));
      if (R <= 0)
        return false; // EOF or reset.
      Buf.append(Chunk, static_cast<size_t>(R));
    }
  }

  /// Reads every remaining line until the server closes the connection.
  /// Returns false if the deadline passes with the connection still open.
  bool drainToEof(std::vector<std::string> &Lines, int TimeoutMs = 60000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      size_t NL;
      while ((NL = Buf.find('\n')) != std::string::npos) {
        Lines.push_back(Buf.substr(0, NL));
        Buf.erase(0, NL + 1);
      }
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0)
        return false;
      struct pollfd PP = {Fd, POLLIN, 0};
      if (::poll(&PP, 1, static_cast<int>(Left)) <= 0)
        return false;
      char Chunk[4096];
      ssize_t R = ::read(Fd, Chunk, sizeof(Chunk));
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return true; // A reset counts as closed.
      }
      if (R == 0)
        return true;
      Buf.append(Chunk, static_cast<size_t>(R));
    }
  }

  ~TcpClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

/// Starts a TCP daemon and returns its announced port via \p Port.
bool startTcpDaemon(ServeProc &P, const std::vector<std::string> &Args,
                    uint16_t &Port, const char *FailPoints = nullptr) {
  std::vector<std::string> All = {"--listen-tcp=0"};
  All.insert(All.end(), Args.begin(), Args.end());
  if (!P.start(All, FailPoints))
    return false;
  std::string L;
  if (!P.readUntil("\"event\":\"listening\"", &L))
    return false;
  json::Value V;
  std::string JErr;
  if (!json::parse(L, V, JErr) || !V.field("port"))
    return false;
  Port = static_cast<uint16_t>(V.field("port")->intOr(0));
  return Port != 0;
}

/// The tentpole soak: 32 concurrent TCP clients, two governed runs each
/// (64 runs on 4 workers), with socket.read/socket.write short-I/O
/// failpoints armed inside the daemon. Every client must receive its own
/// runs' probe streams, step counts, values and monitor finals
/// byte-identical to a standalone evaluate() — partial reads and writes
/// are the transport's problem, never the semantics'.
TEST(ServeSocket, ThirtyTwoClientSoakIsByteIdenticalUnderSocketFaults) {
  CallProfiler Prof;
  constexpr int Kinds = 8;
  std::vector<Baseline> Want;
  for (int K = 0; K < Kinds; ++K)
    Want.push_back(standalone(facProgram(6 + K), Prof));

  ServeProc P;
  uint16_t Port = 0;
  ASSERT_TRUE(startTcpDaemon(
      P, {"--workers=4", "--quantum-steps=128"}, Port,
      "socket.read=short(3)*500;socket.write=short(7)*500"));

  constexpr int Clients = 32, RunsPerClient = 2;
  struct ClientResult {
    bool Connected = false, Eof = false;
    std::vector<std::string> Lines;
  };
  std::vector<ClientResult> Results(Clients);
  std::vector<std::thread> Threads;
  for (int CI = 0; CI < Clients; ++CI)
    Threads.emplace_back([CI, Port, &Results] {
      ClientResult &R = Results[CI];
      TcpClient C;
      if (!C.connectTo(Port))
        return;
      R.Connected = true;
      for (int J = 0; J < RunsPerClient; ++J) {
        int Kind = (CI * RunsPerClient + J) % Kinds;
        if (!C.send("{\"op\":\"submit\",\"id\":\"s" + std::to_string(CI) +
                    "x" + std::to_string(J) + "\",\"program\":\"" +
                    facProgram(6 + Kind) +
                    "\",\"monitors\":[\"profile\"]}"))
          return;
      }
      // Half-close: done submitting; the server keeps the connection
      // until every response has been delivered, then closes it.
      C.shutdownWrite();
      R.Eof = C.drainToEof(R.Lines);
    });
  for (std::thread &T : Threads)
    T.join();

  for (int CI = 0; CI < Clients; ++CI) {
    const ClientResult &R = Results[CI];
    ASSERT_TRUE(R.Connected) << "client " << CI;
    ASSERT_TRUE(R.Eof) << "client " << CI << " never saw server close";
    for (int J = 0; J < RunsPerClient; ++J) {
      std::string Id = "s" + std::to_string(CI) + "x" + std::to_string(J);
      const Baseline &B = Want[(CI * RunsPerClient + J) % Kinds];
      std::vector<std::pair<uint64_t, std::string>> Streamed;
      bool SawAccept = false, SawOutcome = false;
      for (const std::string &L : R.Lines) {
        json::Value V;
        std::string JErr;
        ASSERT_TRUE(json::parse(L, V, JErr)) << L;
        if (!V.field("id") || V.field("id")->strOr() != Id)
          continue;
        std::string_view Ev = V.field("event")->strOr();
        if (Ev == "accepted") {
          SawAccept = true;
        } else if (Ev == "probes") {
          for (const json::Value &E : V.field("events")->Elems)
            Streamed.emplace_back(
                static_cast<uint64_t>(E.field("step")->intOr(0)),
                std::string(E.field("text")->strOr()));
        } else if (Ev == "outcome") {
          SawOutcome = true;
          EXPECT_EQ(V.field("outcome")->strOr(), "ok") << L;
          EXPECT_EQ(V.field("value")->strOr(), B.Value) << L;
          EXPECT_EQ(static_cast<uint64_t>(V.field("steps")->intOr(0)),
                    B.Steps)
              << L;
          const json::Value *Mons = V.field("monitors");
          ASSERT_NE(Mons, nullptr);
          ASSERT_EQ(Mons->Elems.size(), B.Finals.size());
          for (size_t M = 0; M < B.Finals.size(); ++M)
            EXPECT_EQ(Mons->Elems[M].field("state")->strOr(), B.Finals[M])
                << L;
        }
      }
      EXPECT_TRUE(SawAccept) << Id;
      EXPECT_TRUE(SawOutcome) << Id;
      EXPECT_EQ(Streamed, B.Events) << Id;
    }
  }

  // One more client shuts the daemon down; it gets the shutdown record.
  TcpClient Ctl;
  ASSERT_TRUE(Ctl.connectTo(Port));
  ASSERT_TRUE(Ctl.send("{\"op\":\"shutdown\"}"));
  std::string Bye;
  EXPECT_TRUE(Ctl.readLine(Bye));
  EXPECT_TRUE(Bye.find("\"event\":\"shutdown\"") != std::string::npos)
      << Bye;
  int St = P.wait();
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
}

/// A reader that stops draining a probe firehose overflows its bounded
/// outbox and is disconnected; the daemon keeps serving other clients.
TEST(ServeSocket, SlowReaderIsDisconnectedAndDaemonSurvives) {
  ServeProc P;
  uint16_t Port = 0;
  ASSERT_TRUE(startTcpDaemon(
      P,
      {"--workers=1", "--max-outbox-bytes=4096", "--slow-reader-ms=300",
       "--sock-sndbuf-bytes=8192"},
      Port));

  // The slow reader: a tiny receive buffer, a probe-heavy run, no reads.
  TcpClient Slow;
  ASSERT_TRUE(Slow.connectTo(Port, /*RcvBuf=*/4096));
  ASSERT_TRUE(Slow.send(
      "{\"op\":\"submit\",\"id\":\"firehose\",\"program\":\"letrec loop = "
      "lambda n. if n < 1 then 0 else loop (n - 1) in loop 50000\","
      "\"monitors\":[\"profile\"]}"));
  // ~50k probe events ≈ several MB of JSON against a few tens of KB of
  // total absorption (8KiB SO_SNDBUF + 4KiB client SO_RCVBUF + the 4KiB
  // outbox): backpressure surfaces after well under 100KB of probes, so
  // even heavily instrumented builds overflow the outbox, trip the 300ms
  // stall detector and cut the connection inside this window.
  std::this_thread::sleep_for(std::chrono::seconds(3));

  // A healthy client is completely unaffected.
  TcpClient Ok;
  ASSERT_TRUE(Ok.connectTo(Port));
  ASSERT_TRUE(Ok.send("{\"op\":\"submit\",\"id\":\"fine\",\"program\":\"" +
                      facProgram(6) + "\"}"));
  std::string L;
  bool SawValue = false;
  while (Ok.readLine(L, 20000)) {
    if (L.find("\"id\":\"fine\"") != std::string::npos &&
        L.find("\"value\":\"720\"") != std::string::npos) {
      SawValue = true;
      break;
    }
  }
  EXPECT_TRUE(SawValue);

  // The slow reader's connection was severed: draining now ends in EOF or
  // a reset, not in an ever-open stream.
  std::vector<std::string> Dregs;
  EXPECT_TRUE(Slow.drainToEof(Dregs, 10000));

  ASSERT_TRUE(Ok.send("{\"op\":\"shutdown\"}"));
  int St = P.wait();
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
}

} // namespace
