//===- tests/cli_test.cpp - CLI integration tests --------------------------===//
//
// Drives the `monsem` command-line tool end-to-end over the sample
// programs (popen; no extra test infrastructure).
//
//===----------------------------------------------------------------------===//

#include "DeepPrograms.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <sys/resource.h>

#ifndef MONSEM_CLI_PATH
#error "MONSEM_CLI_PATH must be defined by the build"
#endif
#ifndef MONSEM_SOURCE_DIR
#error "MONSEM_SOURCE_DIR must be defined by the build"
#endif

namespace {

struct CliResult {
  int ExitCode;
  std::string Output; // stdout + stderr.
};

CliResult runShell(const std::string &Cmd);

CliResult runCli(const std::string &Args) {
  return runShell(std::string(MONSEM_CLI_PATH) + " " + Args);
}

CliResult runShell(const std::string &RawCmd) {
  std::string Cmd = RawCmd + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  char Buf[512];
  while (size_t N = fread(Buf, 1, sizeof(Buf), Pipe))
    Out.append(Buf, N);
  int Status = pclose(Pipe);
  return CliResult{WEXITSTATUS(Status), Out};
}

/// stdout alone, stderr discarded: for comparisons a vm-aot fallback
/// warning must not disturb.
CliResult runCliStdout(const std::string &Args) {
  return runShell("{ " + std::string(MONSEM_CLI_PATH) + " " + Args +
                  " 2>/dev/null; }");
}

std::string sample(const char *Name) {
  return std::string(MONSEM_SOURCE_DIR) + "/examples/programs/" + Name;
}

} // namespace

TEST(CliTest, PlainRun) {
  CliResult R = runCli(sample("fac.lam"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("3628800"), std::string::npos) << R.Output;
}

TEST(CliTest, ProfileAndCost) {
  CliResult R = runCli(sample("fib.lam") + " --profile --cost");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("profile: [fib -> 8361]"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("cost: [fib: calls=8361"), std::string::npos)
      << R.Output;
}

TEST(CliTest, TraceEmitsPaperFormat) {
  CliResult R = runCli(sample("fac.lam") + " --trace");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("[FAC receives (10)]"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("[FAC returns 3628800]"), std::string::npos);
}

TEST(CliTest, DemonFlagsSortSample) {
  CliResult R = runCli(sample("sort.lam") + " --demon-sorted");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("demon: {input}"), std::string::npos) << R.Output;
}

TEST(CliTest, CollectingMonitor) {
  CliResult R = runCli(sample("collect.lam") + " --collect");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("test -> {False, True}"), std::string::npos)
      << R.Output;
}

TEST(CliTest, VmAndInterpreterAgree) {
  CliResult Interp = runCli(sample("church.lam"));
  CliResult VM = runCli(sample("church.lam") + " --backend=vm");
  EXPECT_EQ(Interp.ExitCode, 0);
  EXPECT_EQ(VM.ExitCode, 0);
  EXPECT_EQ(Interp.Output, VM.Output);
}

TEST(CliTest, RegisterBackendAgreesWithInterpreter) {
  CliResult Interp = runCli(sample("church.lam"));
  CliResult Reg = runCli(sample("church.lam") + " --backend=vm-reg");
  EXPECT_EQ(Interp.ExitCode, 0);
  EXPECT_EQ(Reg.ExitCode, 0) << Reg.Output;
  EXPECT_EQ(Interp.Output, Reg.Output);
}

TEST(CliTest, RegisterBackendRunsMonitors) {
  // `--backend=vm` is an alias of vm-reg, and probe events match the CEK
  // machine's, so the profile line is byte-for-byte the same.
  CliResult VM = runCli(sample("fac.lam") + " --backend=vm --profile");
  CliResult Reg = runCli(sample("fac.lam") + " --backend=vm-reg --profile");
  EXPECT_EQ(VM.ExitCode, 0) << VM.Output;
  EXPECT_EQ(Reg.ExitCode, 0) << Reg.Output;
  EXPECT_EQ(VM.Output, Reg.Output);
}

TEST(CliTest, RegisterDisasmShowsRegisterListing) {
  CliResult R = runCli(sample("fac.lam") + " --backend=vm-reg --disasm");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("regs="), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("rconst"), std::string::npos) << R.Output;
  // `vm` runs the same register program but lists the stack bytecode.
  CliResult S = runCli(sample("fac.lam") + " --backend=vm --disasm");
  EXPECT_EQ(S.ExitCode, 0) << S.Output;
  EXPECT_NE(S.Output.find("block 0 (<main>):\n"), std::string::npos)
      << S.Output;
  EXPECT_EQ(S.Output.find("regs="), std::string::npos) << S.Output;
}

TEST(CliTest, AotBackendAgreesWithInterpreter) {
  // Works with or without a system C compiler: vm-aot degrades to the
  // register interpreter when compilation is unavailable, so the value
  // and exit code are compiler-independent.
  CliResult Interp = runCliStdout(sample("church.lam"));
  CliResult Aot = runCliStdout(sample("church.lam") + " --backend=vm-aot");
  EXPECT_EQ(Interp.ExitCode, 0);
  EXPECT_EQ(Aot.ExitCode, 0) << Aot.Output;
  EXPECT_EQ(Interp.Output, Aot.Output);
}

TEST(CliTest, AotBackendRunsMonitors) {
  // The native tier deopts around every probe window, so monitored output
  // is byte-for-byte the register tier's.
  CliResult Reg =
      runCliStdout(sample("fac.lam") + " --backend=vm-reg --profile");
  CliResult Aot =
      runCliStdout(sample("fac.lam") + " --backend=vm-aot --profile");
  EXPECT_EQ(Reg.ExitCode, 0) << Reg.Output;
  EXPECT_EQ(Aot.ExitCode, 0) << Aot.Output;
  EXPECT_EQ(Reg.Output, Aot.Output);
}

TEST(CliTest, AotFallbackWarnsOnceOnStderr) {
  // With no usable C compiler, vm-aot runs on the register interpreter:
  // stdout and exit code are vm-reg's, and stderr carries exactly one
  // line saying why.
  std::string Err = ::testing::TempDir() + "cli_aot_fallback_stderr.txt";
  std::string Args = sample("fac.lam") + " --profile";
  CliResult Aot =
      runShell("{ MONSEM_AOT_CC=/nonexistent/cc " + std::string(MONSEM_CLI_PATH) +
               " " + Args + " --backend=vm-aot 2>'" + Err + "'; }");
  CliResult Reg = runCliStdout(Args + " --backend=vm-reg");
  EXPECT_EQ(Aot.ExitCode, 0) << Aot.Output;
  EXPECT_EQ(Reg.ExitCode, 0) << Reg.Output;
  EXPECT_EQ(Aot.Output, Reg.Output);
  std::ifstream In(Err);
  std::string Line, Rest;
  ASSERT_TRUE(std::getline(In, Line));
  const std::string Head = "warning: vm-aot unavailable (";
  const std::string Tail = "); running on vm-reg";
  ASSERT_GT(Line.size(), Head.size() + Tail.size()) << Line;
  EXPECT_EQ(Line.substr(0, Head.size()), Head);
  EXPECT_EQ(Line.substr(Line.size() - Tail.size()), Tail);
  EXPECT_FALSE(std::getline(In, Rest)) << Rest;
  std::remove(Err.c_str());
}

TEST(CliTest, AotDisasmShowsEmittedC) {
  // --disasm under vm-aot appends the generated C translation unit to the
  // register listing; both are printable without a compiler present.
  CliResult R = runCli(sample("fac.lam") + " --backend=vm-aot --disasm");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("regs="), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("MonsemAotCtx"), std::string::npos) << R.Output;
}

TEST(CliTest, UnknownBackendIsUsageError) {
  CliResult R = runCli(sample("fac.lam") + " --backend=jit");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("unknown backend"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("vm-reg"), std::string::npos)
      << "the error must name the valid choices: " << R.Output;
  EXPECT_NE(R.Output.find("vm-aot"), std::string::npos)
      << "the error must name the valid choices: " << R.Output;
  // The note reports this build's actual tier availability.
  EXPECT_NE(R.Output.find("note: "), std::string::npos) << R.Output;
}

TEST(CliTest, HelpListsBackendAvailability) {
  CliResult R = runShell(std::string(MONSEM_CLI_PATH) + " --help");
  EXPECT_NE(R.Output.find("vm-aot"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("this build: "), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("--aot-cache"), std::string::npos) << R.Output;
}

TEST(CliTest, PartialEvaluationRun) {
  CliResult R = runCli(sample("fac.lam") + " --pe --print-residual");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("residual: 3628800"), std::string::npos)
      << R.Output;
}

TEST(CliTest, PartialEvaluationPrintsWhatThePlainRunPrints) {
  // Every sample, specialized first, prints exactly what it prints
  // unspecialized, on the CEK machine and both VM tiers. The residuals of
  // collect, quicksort and sort are trees only thanks to the specializer
  // copying residual code it places twice.
  const char *Files[] = {"ackermann.lam", "church.lam",    "collect.lam",
                         "fac.lam",       "fib.lam",       "mergesort.lam",
                         "primes.lam",    "quicksort.lam", "sort.lam"};
  for (const char *File : Files) {
    std::string Args = sample(File);
    if (std::string(File) == "quicksort.lam")
      Args += " --prelude";
    for (const char *Backend : {"cek", "vm", "vm-reg"}) {
      std::string Run = Args + " --backend=" + Backend;
      CliResult Plain = runCli(Run);
      CliResult PE = runCli(Run + " --pe");
      EXPECT_EQ(Plain.ExitCode, 0) << File << " " << Backend << "\n"
                                   << Plain.Output;
      EXPECT_EQ(PE.ExitCode, Plain.ExitCode) << File << " " << Backend;
      EXPECT_EQ(PE.Output, Plain.Output) << File << " " << Backend;
    }
  }
}

TEST(CliTest, DirectBackendRunsEveryStrategy) {
  for (const char *S : {"strict", "name", "need"}) {
    CliResult R = runCli(sample("church.lam") + " --backend=direct" +
                         " --strategy=" + S);
    EXPECT_EQ(R.ExitCode, 0) << S << ": " << R.Output;
    EXPECT_EQ(R.Output, "12\n") << S;
  }
}

TEST(CliTest, DirectBackendStopsInsteadOfOverflowingTheStack) {
  // Profiling fib 18 nests more CPS calls than a default 8 MB stack holds:
  // the stack guard ends the run with a depth stop (exit 7). On a bigger
  // stack the call budget may stop it first (exit 3). Either way it is a
  // structured stop with a partial profile, never a signal.
  CliResult R = runCli(sample("fib.lam") + " --backend=direct --profile");
  EXPECT_TRUE(R.ExitCode == 7 || R.ExitCode == 3) << R.Output;
  EXPECT_NE(R.Output.find(R.ExitCode == 7 ? "stopped: depth-exceeded"
                                          : "stopped: fuel-exhausted"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("profile (partial): [fib -> "), std::string::npos)
      << R.Output;
}

TEST(CliTest, LazyStrategy) {
  CliResult R = runCli(sample("church.lam") + " --strategy=need");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("12"), std::string::npos);
}

TEST(CliTest, ImperativeWatch) {
  CliResult R = runCli(sample("gcd.imp") + " --imp --imp-watch=a");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("step: a 252 -> 147"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("store: a = 21; b = 21;"), std::string::npos);
}

TEST(CliTest, MaxStepsFuel) {
  CliResult R = runShell(
      std::string("printf 'letrec loop = lambda x. loop x in loop 1' | ") +
      MONSEM_CLI_PATH + " - --max-steps=100");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("fuel-exhausted"), std::string::npos) << R.Output;
}

TEST(CliTest, VmHonorsGovernorFlags) {
  // Flags and backend selection funnel through the same EvalMode, so the
  // fuel limit must bite on the VM exactly as it does on the CEK machine.
  CliResult R = runShell(
      std::string("printf 'letrec loop = lambda x. loop x in loop 1' | ") +
      MONSEM_CLI_PATH + " - --backend=vm --max-steps=100");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("fuel-exhausted"), std::string::npos) << R.Output;
}

TEST(CliTest, VmFlagIsUnknown) {
  // The old --vm shorthand is gone; --backend=vm is the only spelling, and
  // --vm is rejected like any other unknown option.
  CliResult Old = runCli(sample("church.lam") + " --vm");
  EXPECT_EQ(Old.ExitCode, 2) << Old.Output;
  EXPECT_NE(Old.Output.find("usage:"), std::string::npos) << Old.Output;
}

TEST(CliTest, ParseErrorsExitNonzero) {
  CliResult R = runShell(std::string("printf 'lambda . oops' | ") +
                         MONSEM_CLI_PATH + " -");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("error"), std::string::npos);
}

TEST(CliTest, StdinImperative) {
  CliResult R = runShell(std::string("printf 'print 1+2' | ") +
                         MONSEM_CLI_PATH + " - --imp");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("3"), std::string::npos);
}

TEST(CliTest, UsageOnBadFlag) {
  CliResult R = runCli(sample("fac.lam") + " --no-such-flag");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(CliTest, CoverageReport) {
  CliResult R = runCli(sample("ackermann.lam") + " --coverage");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("cover: 8/8 points hit"), std::string::npos)
      << R.Output;
}

TEST(CliTest, ReplSession) {
  CliResult R = runShell(
      std::string("printf ':let sq = lambda x. x * x\\n:monitor profile\\n"
                  "sq 7\\n:quit\\n' | ") +
      MONSEM_CLI_PATH + " --repl");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("49"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("profile: [sq -> 1]"), std::string::npos)
      << R.Output;
}

TEST(CliTest, ReplRejectsBadDefinitions) {
  CliResult R = runShell(std::string("printf ':let broken = lambda .\\n"
                                     "1 + 1\\n:quit\\n' | ") +
                         MONSEM_CLI_PATH + " --repl");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("error"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("2"), std::string::npos)
      << "later evaluations must still work";
}

TEST(CliTest, PreludeQuicksort) {
  CliResult R = runCli(sample("quicksort.lam") + " --prelude");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("[1, 2, 3, 3, 5, 7, 8, 9]"), std::string::npos)
      << R.Output;
}

TEST(CliTest, ImperativeReadInput) {
  CliResult R =
      runCli(sample("average.imp") + " --imp --input=3,10,20,12");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("14"), std::string::npos) << R.Output;
}

//===----------------------------------------------------------------------===//
// Exit-code contract: one code per Outcome (see exitCodeFor in the CLI).
//===----------------------------------------------------------------------===//

namespace {

CliResult runStdin(const std::string &Program, const std::string &Args) {
  return runShell("printf '" + Program + "' | " + MONSEM_CLI_PATH + " - " +
                  Args);
}

const char *kDivergingProgram = "letrec loop = lambda x. loop x in loop 1";
const char *kDeepProgram =
    "letrec f = lambda n. 1 + f (n + 1) in f 0"; // Non-tail: depth grows.

} // namespace

TEST(CliExitCodes, OkIsZero) {
  EXPECT_EQ(runStdin("40 + 2", "").ExitCode, 0);
}

TEST(CliExitCodes, RuntimeErrorIsTwo) {
  CliResult R = runStdin("1 2", ""); // Applying a non-function.
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(CliExitCodes, FuelExhaustedIsThree) {
  CliResult R = runStdin(kDivergingProgram, "--max-steps=100");
  EXPECT_EQ(R.ExitCode, 3) << R.Output;
  EXPECT_NE(R.Output.find("fuel-exhausted"), std::string::npos) << R.Output;
}

TEST(CliExitCodes, DeadlineIsFour) {
  CliResult R = runStdin(kDivergingProgram, "--deadline-ms=20");
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
}

TEST(CliExitCodes, MemoryExceededIsFive) {
  CliResult R = runStdin(kDeepProgram, "--max-bytes=20000");
  EXPECT_EQ(R.ExitCode, 5) << R.Output;
}

TEST(CliExitCodes, DepthExceededIsSeven) {
  CliResult R = runStdin(kDeepProgram, "--max-depth=10");
  EXPECT_EQ(R.ExitCode, 7) << R.Output;
}

TEST(CliExitCodes, UnreadableInputIsOne) {
  CliResult R = runCli("/nonexistent/program.lam");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume and the run journal.
//===----------------------------------------------------------------------===//

TEST(CliCheckpoint, InterruptAndResumeMatchesUninterrupted) {
  std::string Ck = ::testing::TempDir() + "cli_fac.ck";
  std::remove(Ck.c_str());
  CliResult Stop = runCli(sample("fac.lam") +
                          " --profile --max-steps=200 --checkpoint-out=" + Ck);
  EXPECT_EQ(Stop.ExitCode, 3) << Stop.Output;
  EXPECT_NE(Stop.Output.find("checkpoint written to"), std::string::npos)
      << Stop.Output;

  CliResult Resumed =
      runCli(sample("fac.lam") + " --profile --resume=" + Ck);
  EXPECT_EQ(Resumed.ExitCode, 0) << Resumed.Output;

  CliResult Straight = runCli(sample("fac.lam") + " --profile");
  // The answer and the monitor's final state must be exactly what the
  // uninterrupted run produces.
  EXPECT_EQ(Resumed.Output, Straight.Output);
  std::remove(Ck.c_str());
}

TEST(CliCheckpoint, PartialEvaluationResidualResumes) {
  // sort.lam's residual is a tree only thanks to the specializer copying
  // residual code it places twice. It checkpoints on flat frames like any
  // program, and resuming the last periodic checkpoint ends exactly like
  // the uninterrupted run.
  std::string Ck = ::testing::TempDir() + "cli_pe_sort.ck";
  std::remove(Ck.c_str());
  std::string Args = sample("sort.lam") + " --pe --profile";
  CliResult Straight = runCli(Args);
  EXPECT_EQ(Straight.ExitCode, 0) << Straight.Output;
  CliResult Periodic = runCli(Args + " --checkpoint-every-n-steps=40" +
                              " --checkpoint-out=" + Ck);
  EXPECT_EQ(Periodic.ExitCode, 0) << Periodic.Output;
  EXPECT_EQ(Periodic.Output, Straight.Output);
  CliResult Resumed = runCli(Args + " --resume=" + Ck);
  EXPECT_EQ(Resumed.ExitCode, 0) << Resumed.Output;
  EXPECT_EQ(Resumed.Output, Straight.Output);
  std::remove(Ck.c_str());
}

TEST(CliCheckpoint, VmCheckpointResumesOnEitherBytecodeTier) {
  // A VM checkpoint spills register windows to the canonical stack form,
  // so a run interrupted on vm-reg resumes under `--backend=vm` by
  // default, and on vm-reg when asked to.
  std::string Ck = ::testing::TempDir() + "cli_reg.ck";
  std::remove(Ck.c_str());
  CliResult Stop =
      runCli(sample("fac.lam") + " --backend=vm-reg --profile" +
             " --max-steps=50 --checkpoint-out=" + Ck);
  EXPECT_EQ(Stop.ExitCode, 3) << Stop.Output;

  CliResult Straight = runCli(sample("fac.lam") + " --profile --backend=vm");
  CliResult OnStack =
      runCli(sample("fac.lam") + " --profile --resume=" + Ck);
  EXPECT_EQ(OnStack.ExitCode, 0) << OnStack.Output;
  EXPECT_EQ(OnStack.Output, Straight.Output);
  CliResult OnReg = runCli(sample("fac.lam") +
                           " --backend=vm-reg --profile --resume=" + Ck);
  EXPECT_EQ(OnReg.ExitCode, 0) << OnReg.Output;
  EXPECT_EQ(OnReg.Output, Straight.Output);
  std::remove(Ck.c_str());
}

TEST(CliCheckpoint, ResumeRejectsADifferentProgram) {
  std::string Ck = ::testing::TempDir() + "cli_mismatch.ck";
  std::remove(Ck.c_str());
  CliResult Stop = runCli(sample("fac.lam") +
                          " --max-steps=200 --checkpoint-out=" + Ck);
  ASSERT_EQ(Stop.ExitCode, 3) << Stop.Output;
  CliResult R = runCli(sample("fib.lam") + " --resume=" + Ck);
  EXPECT_NE(R.ExitCode, 0);
  std::remove(Ck.c_str());
}

TEST(CliCheckpoint, JournalRecoveryResumesAndPrintsTail) {
  std::string Journal = ::testing::TempDir() + "cli_run.journal";
  std::remove(Journal.c_str());
  std::string Program = "letrec loop = lambda k. {loop}: if k < 1 then 42 "
                        "else loop (k - 1) in loop 3000";
  CliResult Crash = runStdin(
      Program, "--profile --journal=" + Journal +
                   " --checkpoint-every-n-steps=1000 --max-steps=5000");
  EXPECT_EQ(Crash.ExitCode, 3) << Crash.Output;

  CliResult Recovered =
      runStdin(Program, "--profile --resume-journal=" + Journal);
  EXPECT_EQ(Recovered.ExitCode, 0) << Recovered.Output;
  // FlightRecorder-style tail of the last probe events, then the resume.
  EXPECT_NE(Recovered.Output.find("last events:"), std::string::npos)
      << Recovered.Output;
  EXPECT_NE(Recovered.Output.find("pre {loop}"), std::string::npos)
      << Recovered.Output;
  EXPECT_NE(Recovered.Output.find("resuming from step"), std::string::npos)
      << Recovered.Output;
  EXPECT_NE(Recovered.Output.find("42"), std::string::npos) << Recovered.Output;

  CliResult Straight = runStdin(Program, "--profile");
  ASSERT_EQ(Straight.ExitCode, 0);
  // The resumed profile must equal the uninterrupted one.
  std::string Profile = Straight.Output.substr(Straight.Output.find("profile:"));
  EXPECT_NE(Recovered.Output.find(Profile), std::string::npos)
      << Recovered.Output;
  std::remove(Journal.c_str());
}

TEST(CliCheckpoint, MissingJournalIsAnIoError) {
  CliResult R = runStdin("1", "--resume-journal=/nonexistent/run.journal");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
}

TEST(CliCheckpoint, RecordCapacityZeroRejected) {
  CliResult R = runCli(sample("fac.lam") + " --record --record-capacity=0");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("--record-capacity must be positive"),
            std::string::npos)
      << R.Output;
}

TEST(CliCheckpoint, RecordCapacityBoundsTheRing) {
  CliResult R = runCli(sample("fac.lam") + " --record --record-capacity=3");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // Ring of 3: exactly the last three events survive.
  size_t Events = 0;
  for (size_t Pos = 0; (Pos = R.Output.find("exit fac", Pos)) !=
                       std::string::npos;
       ++Pos)
    ++Events;
  EXPECT_EQ(Events, 3u) << R.Output;
  EXPECT_NE(R.Output.find("exit fac = 3628800"), std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// SIGINT escalation: first ^C cancels cooperatively, a second within the
// grace window hard-exits 130.
//===----------------------------------------------------------------------===//

namespace {

std::string writeProgram(const char *Name, const std::string &Src) {
  std::string Path = ::testing::TempDir() + Name;
  FILE *F = fopen(Path.c_str(), "w");
  EXPECT_NE(F, nullptr);
  fwrite(Src.data(), 1, Src.size(), F);
  fclose(F);
  return Path;
}

} // namespace

TEST(CliSigint, FirstInterruptCancelsCooperatively) {
  std::string Prog = writeProgram("cli_sigint_loop.lam", kDivergingProgram);
  CliResult R = runShell(std::string(MONSEM_CLI_PATH) + " " + Prog +
                         " >/dev/null 2>&1 & pid=$!; sleep 0.5; "
                         "kill -INT $pid; wait $pid");
  EXPECT_EQ(R.ExitCode, 6) << R.Output; // Outcome::Cancelled.
  std::remove(Prog.c_str());
}

TEST(CliSigint, FirstInterruptWritesAFinalCheckpoint) {
  std::string Prog = writeProgram("cli_sigint_ck.lam", kDivergingProgram);
  std::string Ck = ::testing::TempDir() + "cli_sigint.ck";
  std::remove(Ck.c_str());
  CliResult R = runShell(std::string(MONSEM_CLI_PATH) + " " + Prog +
                         " --checkpoint-out=" + Ck +
                         " >/dev/null 2>&1 & pid=$!; sleep 0.5; "
                         "kill -INT $pid; wait $pid");
  EXPECT_EQ(R.ExitCode, 6) << R.Output;
  FILE *F = fopen(Ck.c_str(), "rb");
  EXPECT_NE(F, nullptr) << "cancelled run should leave a resumable checkpoint";
  if (F)
    fclose(F);
  std::remove(Ck.c_str());
  std::remove(Prog.c_str());
}

TEST(CliSigint, SecondInterruptWithinGraceHardExits) {
  // --debug blocks reading commands from stdin (held open by `sleep`), so
  // the cooperative flag is never polled — exactly the stuck run the
  // escalation exists for.
  std::string Prog = writeProgram(
      "cli_sigint_dbg.lam",
      "letrec f = lambda x. {f(x)}: if x = 0 then 0 else f (x - 1) in f 5");
  // `sleep 6` (not longer): popen() reads until every pipeline member
  // exits, so the sleep bounds the test's runtime after the CLI dies.
  CliResult R = runShell("sleep 6 | " + std::string(MONSEM_CLI_PATH) + " " +
                         Prog +
                         " --debug >/dev/null 2>&1 & pid=$!; sleep 0.5; "
                         "kill -INT $pid; sleep 0.3; kill -INT $pid; "
                         "wait $pid");
  EXPECT_EQ(R.ExitCode, 130) << R.Output;
  std::remove(Prog.c_str());
}

//===----------------------------------------------------------------------===//
// Durability: crash injection at every checkpoint failpoint site must never
// leave a torn checkpoint at the destination, and the supervisor must
// reproduce the uninterrupted run exactly.
//===----------------------------------------------------------------------===//

namespace {

bool fileExists(const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "rb");
  if (F)
    fclose(F);
  return F != nullptr;
}

const char *kLoop3000 =
    "letrec loop = lambda k. {loop}: if k < 1 then 42 "
    "else loop (k - 1) in loop 3000";

} // namespace

TEST(CliDurability, CrashAtEveryCheckpointSiteLeavesNoTornDestination) {
  const char *Sites[] = {"open",  "write",  "flush",  "sync",
                         "close", "rename", "dirsync"};
  CliResult Straight = runCli(sample("fac.lam") + " --profile");
  ASSERT_EQ(Straight.ExitCode, 0) << Straight.Output;
  for (const char *Site : Sites) {
    std::string Ck = ::testing::TempDir() + "cli_crash_" + Site + ".ck";
    std::remove(Ck.c_str());
    std::remove((Ck + ".tmp").c_str());
    CliResult R = runShell(
        "MONSEM_FAILPOINTS='checkpoint." + std::string(Site) + "=crash' " +
        MONSEM_CLI_PATH + " " + sample("fac.lam") +
        " --profile --max-steps=200 --checkpoint-out=" + Ck);
    // The injected crash _exit()s with the sentinel code, mid-save.
    EXPECT_EQ(R.ExitCode, 86) << Site << ": " << R.Output;
    // Atomic replace: the destination is either absent (the crash hit
    // before the rename landed) or a complete, resumable checkpoint.
    if (fileExists(Ck)) {
      CliResult Resumed =
          runCli(sample("fac.lam") + " --profile --resume=" + Ck);
      EXPECT_EQ(Resumed.ExitCode, 0) << Site << ": " << Resumed.Output;
      EXPECT_EQ(Resumed.Output, Straight.Output) << Site;
    }
    std::remove(Ck.c_str());
    std::remove((Ck + ".tmp").c_str());
  }
}

TEST(CliDurability, AbortPolicyFailsTheRunAndLeavesNoPartialFiles) {
  std::string Ck = ::testing::TempDir() + "cli_abort.ck";
  std::remove(Ck.c_str());
  std::string Prog = writeProgram("cli_abort.lam", kLoop3000);
  CliResult R = runCli(Prog + " --checkpoint-out=" + Ck +
                       " --checkpoint-every-n-steps=1000" +
                       " --on-durability-failure=abort" +
                       " --failpoints=checkpoint.sync=err\\(ENOSPC\\)");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("durability fault at checkpoint"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("No space left on device"), std::string::npos)
      << R.Output;
  EXPECT_FALSE(fileExists(Ck));
  EXPECT_FALSE(fileExists(Ck + ".tmp"));
  std::remove(Prog.c_str());
}

TEST(CliDurability, DegradePolicyKeepsTheAnswerAndWarns) {
  std::string Ck = ::testing::TempDir() + "cli_degrade.ck";
  std::remove(Ck.c_str());
  std::string Prog = writeProgram("cli_degrade.lam", kLoop3000);
  CliResult R = runCli(Prog + " --checkpoint-out=" + Ck +
                       " --checkpoint-every-n-steps=1000" +
                       " --on-durability-failure=degrade" +
                       " --failpoints=checkpoint.sync=err\\(ENOSPC\\)");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("42"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("degraded to best-effort"), std::string::npos)
      << R.Output;
  std::remove(Ck.c_str());
  std::remove(Prog.c_str());
}

TEST(CliDurability, MalformedFailpointSpecIsAUsageError) {
  CliResult R = runCli(sample("fac.lam") + " --failpoints=nonsense");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("bad --failpoints spec"), std::string::npos)
      << R.Output;
}

TEST(CliSupervise, SupervisedCrashesConvergeToTheUninterruptedAnswer) {
  std::string Journal = ::testing::TempDir() + "cli_supervise.journal";
  std::remove(Journal.c_str());
  std::string Prog = writeProgram("cli_supervise.lam", kLoop3000);
  // Supervisor chatter goes to stderr; drop it so stdout can be compared
  // byte-for-byte against the uninterrupted run.
  CliResult Straight = runShell("( " + std::string(MONSEM_CLI_PATH) + " " +
                                Prog + " --profile 2>/dev/null )");
  ASSERT_EQ(Straight.ExitCode, 0) << Straight.Output;
  // journal.sync fires once per checkpoint append, so every fresh attempt
  // lands more checkpoints before it crashes: the supervisor converges.
  // (@8 rather than a tighter selector keeps the exponential backoff from
  // dominating the test's runtime.)
  CliResult R = runShell(
      "( " + std::string(MONSEM_CLI_PATH) + " " + Prog +
      " --profile --journal=" + Journal +
      " --checkpoint-every-n-steps=1000 --supervise --max-restarts=60" +
      " --restart-backoff-ms=1 --failpoints='journal.sync=crash@8'" +
      " 2>/dev/null )");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, Straight.Output);
  std::remove(Journal.c_str());
  std::remove(Prog.c_str());
}

TEST(CliSupervise, GivesUpWhenTheCrashRecursEveryAttempt) {
  std::string Journal = ::testing::TempDir() + "cli_giveup.journal";
  std::remove(Journal.c_str());
  std::string Prog = writeProgram("cli_giveup.lam", kLoop3000);
  // journal.write re-fires early in every fresh attempt, before any
  // checkpoint can land: no restart makes progress.
  CliResult R = runCli(Prog + " --profile --journal=" + Journal +
                       " --checkpoint-every-n-steps=1000 --supervise" +
                       " --max-restarts=2 --restart-backoff-ms=1" +
                       " --failpoints='journal.write=crash@5'");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("giving up after 2 restarts"), std::string::npos)
      << R.Output;
  std::remove(Journal.c_str());
  std::remove(Prog.c_str());
}

TEST(CliSupervise, SuperviseWithoutJournalIsAUsageError) {
  CliResult R = runCli(sample("fac.lam") + " --supervise");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("--supervise requires --journal"),
            std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// Nesting bounds end to end: at the bound every backend runs the program,
// one past it the CLI exits 2 with the parser's diagnostic. Never a signal.
//===----------------------------------------------------------------------===//

namespace {

std::string writeProgram(const std::string &Name, const std::string &Src) {
  std::string Path = ::testing::TempDir() + "cli_nesting_" + Name + ".lam";
  std::ofstream(Path) << Src;
  return Path;
}

} // namespace

TEST(CliNestingLimit, AtTheBoundEveryBackendRuns) {
  for (const monsem::testing::DeepShape &S : monsem::testing::deepShapes()) {
    std::string Path = writeProgram(std::string(S.Name) + "_at",
                                    S.program(S.Bound));
    CliResult Ref = runCli(Path);
    EXPECT_EQ(Ref.ExitCode, 0) << S.Name << ": " << Ref.Output.substr(0, 200);
    for (const char *B : {"vm", "vm-reg", "vm-aot"}) {
      CliResult R = runCli(Path + " --backend=" + B);
      EXPECT_EQ(R.ExitCode, 0) << S.Name << " " << B;
      // vm-aot may add a note on stderr when no C compiler exists.
      EXPECT_NE(R.Output.find(Ref.Output), std::string::npos)
          << S.Name << " " << B;
    }
    // Direct's stack guard or call budget may stop it (exit 7 or 3).
    CliResult D = runCli(Path + " --backend=direct");
    EXPECT_TRUE(D.ExitCode == 0 || D.ExitCode == 3 || D.ExitCode == 7)
        << S.Name << ": exit " << D.ExitCode;
    for (const char *Flags : {"--pe", "--profile", "--coverage",
                              "--print-ast --backend=vm-reg"}) {
      CliResult F = runCli(Path + " " + Flags);
      EXPECT_EQ(F.ExitCode, 0) << S.Name << " " << Flags;
    }
    std::remove(Path.c_str());
  }
}

TEST(CliNestingLimit, DeepestAcceptedTreeRunsOnEveryBackend) {
  std::string Path =
      writeProgram("deepest", monsem::testing::deepestAcceptedProgram());
  for (const char *B : {"cek", "vm", "vm-reg", "vm-aot"}) {
    CliResult R = runCli(Path + " --backend=" + B);
    EXPECT_EQ(R.ExitCode, 0) << B << ": " << R.Output.substr(0, 200);
  }
  CliResult D = runCli(Path + " --backend=direct");
  EXPECT_TRUE(D.ExitCode == 0 || D.ExitCode == 3 || D.ExitCode == 7)
      << "exit " << D.ExitCode;
  std::remove(Path.c_str());
}

TEST(CliNestingLimit, PastTheBoundEveryBackendExitsTwo) {
  for (const monsem::testing::DeepShape &S : monsem::testing::deepShapes()) {
    std::string Path = writeProgram(std::string(S.Name) + "_past",
                                    S.program(S.Bound + 1));
    for (const char *B : {"cek", "vm", "vm-reg", "vm-aot", "direct"}) {
      CliResult R = runCli(Path + " --backend=" + B);
      EXPECT_EQ(R.ExitCode, 2) << S.Name << " " << B;
      EXPECT_NE(R.Output.find(std::to_string(S.Bound)), std::string::npos)
          << S.Name << " " << B << ": " << R.Output.substr(0, 200);
    }
    std::remove(Path.c_str());
  }
}

TEST(CliNestingLimit, ImpAtTheBoundRunsUnderEveryImpMonitor) {
  std::string Path = ::testing::TempDir() + "cli_nesting_imp_at.imp";
  std::ofstream(Path) << monsem::testing::deepImpProgram(monsem::kMaxNestingDepth);
  for (const char *Flags :
       {"", "--imp-profile", "--imp-trace", "--imp-watch=x", "--print-ast"}) {
    CliResult R = runCli(Path + " --imp " + Flags);
    EXPECT_EQ(R.ExitCode, 0) << Flags << ": " << R.Output.substr(0, 200);
  }
  std::remove(Path.c_str());
}

TEST(CliNestingLimit, ImpLongSequenceRunsUnderEveryImpMonitor) {
  std::string Path = ::testing::TempDir() + "cli_nesting_imp_long.imp";
  std::ofstream(Path) << monsem::testing::longImpSequence(100000);
  CliResult Plain = runCliStdout(Path + " --imp");
  EXPECT_EQ(Plain.ExitCode, 0) << Plain.Output.substr(0, 200);
  for (const char *Flags :
       {"--imp-profile", "--imp-trace", "--imp-watch=x", "--print-ast"}) {
    CliResult R = runCliStdout(Path + " --imp " + Flags);
    EXPECT_EQ(R.ExitCode, 0) << Flags << ": " << R.Output.substr(0, 200);
    // The program's output lines come first, then the monitor report.
    EXPECT_NE(R.Output.find(Plain.Output.substr(0, Plain.Output.find("store:"))),
              std::string::npos)
        << Flags;
  }
  std::remove(Path.c_str());
}

TEST(CliNestingLimit, ImpPastTheBoundExitsTwo) {
  for (unsigned Levels : {monsem::kMaxNestingDepth + 1, 100000u}) {
    std::string Path = ::testing::TempDir() + "cli_nesting_imp_past.imp";
    std::ofstream(Path) << monsem::testing::deepImpProgram(Levels);
    CliResult R = runCli(Path + " --imp");
    EXPECT_EQ(R.ExitCode, 2) << Levels;
    EXPECT_NE(R.Output.find("nests deeper than " +
                            std::to_string(monsem::kMaxNestingDepth)),
              std::string::npos)
        << Levels << ": " << R.Output.substr(0, 200);
    std::remove(Path.c_str());
  }
}

TEST(CliTest, WorkerStackDoesNotDependOnTheStackLimit) {
  // Programs run on Session worker threads. glibc would size them from
  // RLIMIT_STACK and fall back to 2 MB when it is unlimited, so Direct,
  // which recurses on the C stack, stopped far earlier under
  // `ulimit -s unlimited` than under 8 MB. Workers now get the finite
  // limit, or 64 MiB when it is unlimited: the run ends the same way.
  struct rlimit RL;
  ASSERT_EQ(getrlimit(RLIMIT_STACK, &RL), 0);
  std::string First;
  int FirstCode = -1;
  for (const char *Limit : {"8192", "65536", "unlimited"}) {
    bool Raisable =
        RL.rlim_max == RLIM_INFINITY ||
        (std::string(Limit) != "unlimited" &&
         std::stoull(Limit) * 1024 <= static_cast<uint64_t>(RL.rlim_max));
    if (!Raisable)
      continue;
    CliResult R = runShell(std::string("ulimit -s ") + Limit + " && " +
                           MONSEM_CLI_PATH + " " + sample("fib.lam") +
                           " --backend=direct");
    EXPECT_TRUE(R.ExitCode == 0 || R.ExitCode == 3 || R.ExitCode == 7)
        << Limit << ": " << R.Output;
    if (FirstCode < 0) {
      First = R.Output;
      FirstCode = R.ExitCode;
      continue;
    }
    EXPECT_EQ(R.ExitCode, FirstCode) << Limit;
    EXPECT_EQ(R.Output, First) << Limit;
  }
}

TEST(CliTest, ImpRefusesOptionsItWouldIgnore) {
  for (const char *Opt :
       {"--backend=vm", "--checkpoint-out=/nonexistent/ck", "--resume=ck",
        "--journal=j", "--pe", "--strategy=need", "--profile"}) {
    CliResult R = runCli(sample("gcd.imp") + " --imp " + Opt);
    EXPECT_EQ(R.ExitCode, 2) << Opt << ": " << R.Output;
    std::string Name = std::string(Opt).substr(0, std::string(Opt).find('='));
    EXPECT_NE(R.Output.find("error: " + Name), std::string::npos)
        << Opt << ": " << R.Output;
  }
  // What the imperative module does use keeps working.
  CliResult R = runCli(sample("gcd.imp") + " --imp --imp-profile");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}
