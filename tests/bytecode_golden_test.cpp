//===- tests/bytecode_golden_test.cpp - Pinned compiled-code digests ------===//
//
// The compiler's output is pinned by digest for every shipped functional
// program, plain and under `--prelude`, without and with `--profile`
// annotations: the stack-spelling listing (`--disasm --backend=vm`, whose
// hash is the checkpoint fingerprint), the register listing (`--backend=
// vm-reg`), the C the native tier emits (`--backend=vm-aot`, which names
// the cached shared objects), the structural hash of the fused and unfused
// register code, and the per-pc stack heights checkpoints spill by. Any
// change to what compileProgram emits shows up here as a digest mismatch;
// the failure message prints the new row.
//
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "interp/Eval.h"
#include "support/Checkpoint.h"
#include "syntax/Annotator.h"
#include "syntax/Prelude.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef MONSEM_SOURCE_DIR
#error "MONSEM_SOURCE_DIR must be defined by the build"
#endif

using namespace monsem;

namespace {

struct Golden {
  const char *Program;
  bool Prelude;
  bool Profile;
  const char *StackListing;
  const char *RegListing;
  const char *AotSource;
  const char *FusedStruct;
  const char *UnfusedStruct;
  const char *Heights;
};

// clang-format off
const std::vector<Golden> kGoldens = {
    {"ackermann.lam", false, false,
     "c23e11063a888c11", "49f9022f278bb4d4", "7b261099266a1291",
     "a4c5735925bb0f49", "370fa51f2bd60ad4", "d0feaf0085fbefb9"},
    {"ackermann.lam", false, true,
     "f2e1a2ee84949aa4", "4417dded97aefd36", "5f922c4ca7b7c143",
     "48f8580e25713585", "4ebfbb96aac0dca7", "566d650d798973f9"},
    {"ackermann.lam", true, false,
     "dbcaad560dec6256", "c53bc3123752a780", "2355ad59b8d0d14d",
     "85be61dee95243da", "719c89cc79d32b7f", "7ce47f3125037947"},
    {"ackermann.lam", true, true,
     "9662458aa06a97a0", "ac1b7db0b36aff3e", "5f922c4ca7b7c143",
     "42fbcaf3204aea84", "45de6e7092470f93", "3fa36c1b3501a235"},
    {"church.lam", false, false,
     "8abf1a74de870c9e", "72f5990e97d29fdf", "7b27c2f6c97f423f",
     "f95f30f7ce9d7bbf", "6031389278a44ad3", "66e039f85d178bac"},
    {"church.lam", false, true,
     "8abf1a74de870c9e", "72f5990e97d29fdf", "7b27c2f6c97f423f",
     "f95f30f7ce9d7bbf", "6031389278a44ad3", "66e039f85d178bac"},
    {"church.lam", true, false,
     "09c2321630c34d67", "6e77793146b41c8f", "86238a899b6f9850",
     "e048f54cab4a9df5", "72ef63dfa1be6a0f", "7b0cc2c166de72b8"},
    {"church.lam", true, true,
     "f6fb589eb3ff2e02", "a32b11bd742bea57", "86238a899b6f9850",
     "2dd2c19e6077de81", "ef157ae9727c846c", "ac993f80e475ef04"},
    {"collect.lam", false, false,
     "accbb85dc4f7964d", "7518671cb5133605", "5f922c4ca7b7c143",
     "a2ad4d2bf136e1f7", "022df0c6541ff1b2", "0a917977fabddc7c"},
    {"collect.lam", false, true,
     "ecc9857dc919f4bf", "0f987d57ade72b31", "5f922c4ca7b7c143",
     "98557bc8385e6a86", "aeb18de3f96e0225", "99b9b31e7ba33844"},
    {"collect.lam", true, false,
     "db878a662df395d8", "0d27c8cd3080de59", "5f922c4ca7b7c143",
     "e1ca50c8765c9edc", "2d856448b4be346f", "346ea8a9a22141ac"},
    {"collect.lam", true, true,
     "09af0005236f5307", "05fa14a5fd6dfd2b", "5f922c4ca7b7c143",
     "731c0aa849535639", "0af267a14549b523", "a02e67aa9c3f1370"},
    {"fac.lam", false, false,
     "4fe22560c31a83ff", "ea2e7fa096912a46", "b2aacbf5774b6600",
     "c3326474a0d08763", "3d824ef57b6db664", "b77466c62fe21f2c"},
    {"fac.lam", false, true,
     "e51f758ccacd1a32", "685276f873cc037c", "5f922c4ca7b7c143",
     "35d0e2a6be22fa20", "4480c212ee331c27", "74400b632c69a57c"},
    {"fac.lam", true, false,
     "555cced543a29d98", "2dc707c91e7ba59c", "843e7ae3a9145b6a",
     "762ecec7fa24df84", "3c853da80614cdf9", "7cbdd449b13e223c"},
    {"fac.lam", true, true,
     "e8bf234c0533d7d4", "2a7005bd525ffb34", "5f922c4ca7b7c143",
     "c066118a53d0857f", "521fa0190bdaec35", "bbd71e6dda40b3a8"},
    {"fib.lam", false, false,
     "bc2e75cb732ebc16", "92768285821bac0a", "ad91b65402d51585",
     "6cac6fa8b89ad9a3", "f5bcf9ee66a898cf", "501a0b0b58684d0b"},
    {"fib.lam", false, true,
     "73ddcc07313c4887", "8d708de6e7ee7a55", "5f922c4ca7b7c143",
     "69a697cf179e1ded", "69d1ceb2bb2ce637", "c3228fddb5b4d6f3"},
    {"fib.lam", true, false,
     "d8845735c3330ac7", "e8fb8c78342a24a0", "040160050fddd33d",
     "4f3d67a0f20475a8", "6b7eb871f89db062", "8ea403fd56562d37"},
    {"fib.lam", true, true,
     "e39602f128362c5d", "9d772f4899aef7bd", "5f922c4ca7b7c143",
     "f4c2572d947cb282", "3d316e17b0ae6a11", "d2eb1f8045de0a17"},
    {"mergesort.lam", false, false,
     "6052aff7ec62564a", "1b7cec8faf7859ce", "135ef494bd7e7658",
     "e31e7ec156c7be5b", "06357fa209ba56cd", "27fb499dd750c1b3"},
    {"mergesort.lam", false, true,
     "a5778cfb5ab0572f", "96450cfba94342bb", "5f922c4ca7b7c143",
     "0b128a32f2e00e19", "2db1cb746aeeed02", "87557a4d3a9837a5"},
    {"mergesort.lam", true, false,
     "3a1916810aed73ad", "609251ce2db2efc9", "f9da922af27efbd2",
     "70bcbb1b00f1938c", "3a1f56ce63bcf6e6", "7f6c8fd873f02009"},
    {"mergesort.lam", true, true,
     "06678b7a8ccb04c1", "14d9b4ec19a986ab", "5f922c4ca7b7c143",
     "95359836afcc8be0", "dcc88e9ba988612e", "17c9f301c38836ad"},
    {"primes.lam", false, false,
     "232c414a718feb5d", "c35ee90d23bededa", "f77063c9ec79d72d",
     "ec75eb59b4187e45", "fa8730fa42ad6bdd", "fdc26ecccdfe48a7"},
    {"primes.lam", false, true,
     "31df7034111d4fde", "756d371f8ed2ee55", "5f922c4ca7b7c143",
     "2680fe6c4bf1cad7", "39ea321e456ba802", "ebc82afe7573150b"},
    {"primes.lam", true, false,
     "a96be8bd0e596fc6", "d176bea54c3e4b65", "f0370a910eb9e47b",
     "f91784350143a200", "a513cbdd4f05d2ba", "c305164b711f9dd1"},
    {"primes.lam", true, true,
     "f76097025415161e", "be02daac32cf3ec1", "5f922c4ca7b7c143",
     "ed0460ed135fbbfa", "23f72c2e184c1706", "da07fcf47aeaeebf"},
    {"quicksort.lam", false, false,
     "", "", "",
     "", "", ""},
    {"quicksort.lam", false, true,
     "", "", "",
     "", "", ""},
    {"quicksort.lam", true, false,
     "de90e2cc4d47a3be", "76834443b831bf38", "2875382263c44d73",
     "3f3c3a862f7dd69c", "248d20f414bb2746", "d9464a34c4258de8"},
    {"quicksort.lam", true, true,
     "19ebd6cc88d3fc3f", "fe3cc9a7238fb78e", "33f9033f73bb5e29",
     "5ddb7f5c97a5305b", "97267e112671dc0b", "298203542a374f8c"},
    {"sort.lam", false, false,
     "6d6967d37116fe04", "bf9c4ebc958b6077", "074754f8503aedf6",
     "cbf6770d2bd9515a", "33a06626f37257ee", "44b27603d435e4c0"},
    {"sort.lam", false, true,
     "82112480336c7147", "62403073edbcf229", "5f922c4ca7b7c143",
     "5ace11d11c3dd96f", "4888776309950cd2", "9a238eb29b4b7274"},
    {"sort.lam", true, false,
     "1aba306b29714035", "c86dd9c345cbe6bd", "5470544ad96729d2",
     "4124721d4345a2b7", "606ebca7c0d923c6", "98113463dab0804c"},
    {"sort.lam", true, true,
     "724a5eaa880f8f79", "447087b88f487be3", "5f922c4ca7b7c143",
     "5fda2c12ec135e1d", "3b0ed4efb134feb5", "6119fdb06d62bd48"},
};
// clang-format on

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The digests of one program the way the CLI builds it for `--disasm`:
/// parse, optionally wrap in the prelude, optionally annotate every
/// function body for the profiler, then compile with instrumentation.
struct Digests {
  std::string StackListing, RegListing, AotSource, FusedStruct,
      UnfusedStruct, Heights;
};

Digests digestsOf(const std::string &File, bool Prelude, bool Profile) {
  Digests Out;
  auto P = ParsedProgram::parse(
      readFile(std::string(MONSEM_SOURCE_DIR) + "/examples/programs/" + File));
  EXPECT_TRUE(P->ok()) << File << ": " << P->diags().str();
  if (!P->ok())
    return Out;
  const Expr *Root = P->root();
  DiagnosticSink D;
  if (Prelude)
    Root = wrapWithPrelude(P->context(), Root, D);
  EXPECT_NE(Root, nullptr) << D.str();
  if (!Root)
    return Out;
  if (Profile) {
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    Root = annotateFunctionBodies(P->context(), Root, {}, AO);
  }
  CompileOptions Unfused;
  Unfused.Fuse = false;
  auto CP = compileProgram(Root, D);
  auto UP = compileProgram(Root, D, Unfused);
  // A program that names a prelude function compiles only with the
  // prelude; like the CLI's `--disasm`, it then has nothing to digest.
  EXPECT_EQ(CP == nullptr, UP == nullptr);
  if (!CP || !UP)
    return Out;
  auto RP = lowerToRegisters(*CP);
  auto URP = lowerToRegisters(*UP);
  EXPECT_TRUE(RP && URP);
  if (!RP || !URP)
    return Out;
  Out.StackListing = hex(fnv1aHash(CP->disassemble()));
  Out.RegListing = hex(fnv1aHash(RP->disassemble()));
  Out.AotSource = hex(fnv1aHash(aotEmitSource(*RP)));
  Out.FusedStruct = hex(structHash(*RP));
  Out.UnfusedStruct = hex(structHash(*URP));
  // Checkpoints spill by the source blocks' heights: a k-parameter leaf
  // copy is serialized as the block it copies, whose heights it shares.
  std::string Heights;
  for (const auto *Prog : {RP.get(), URP.get()})
    for (const auto &B : Prog->Blocks) {
      if (B.CopyOf != kNoBlock) {
        EXPECT_EQ(B.Height, Prog->Blocks[B.CopyOf].Height) << File;
        continue;
      }
      for (uint16_t H : B.Height)
        Heights += std::to_string(H) + ",";
      Heights += ";";
    }
  Out.Heights = hex(fnv1aHash(Heights));
  return Out;
}

TEST(BytecodeGoldenTest, CorpusDigestsAreStable) {
  const char *Programs[] = {"ackermann.lam", "church.lam", "collect.lam",
                            "fac.lam",       "fib.lam",    "mergesort.lam",
                            "primes.lam",    "quicksort.lam", "sort.lam"};
  size_t Row = 0;
  std::string NewRows;
  bool AllMatch = true;
  for (const char *File : Programs)
    for (bool Prelude : {false, true})
      for (bool Profile : {false, true}) {
        Digests G = digestsOf(File, Prelude, Profile);
        NewRows += std::string("    {\"") + File + "\", " +
                   (Prelude ? "true" : "false") + ", " +
                   (Profile ? "true" : "false") + ",\n     \"" +
                   G.StackListing + "\", \"" + G.RegListing + "\", \"" +
                   G.AotSource + "\",\n     \"" + G.FusedStruct + "\", \"" +
                   G.UnfusedStruct + "\", \"" + G.Heights + "\"},\n";
        if (Row >= kGoldens.size()) {
          AllMatch = false;
          ++Row;
          continue;
        }
        const Golden &W = kGoldens[Row++];
        SCOPED_TRACE(std::string(File) + (Prelude ? " --prelude" : "") +
                     (Profile ? " --profile" : ""));
        EXPECT_STREQ(W.Program, File);
        EXPECT_EQ(W.Prelude, Prelude);
        EXPECT_EQ(W.Profile, Profile);
        bool Match = G.StackListing == W.StackListing &&
                     G.RegListing == W.RegListing &&
                     G.AotSource == W.AotSource &&
                     G.FusedStruct == W.FusedStruct &&
                     G.UnfusedStruct == W.UnfusedStruct &&
                     G.Heights == W.Heights;
        EXPECT_EQ(G.StackListing, W.StackListing) << "--backend=vm listing";
        EXPECT_EQ(G.RegListing, W.RegListing) << "--backend=vm-reg listing";
        EXPECT_EQ(G.AotSource, W.AotSource) << "vm-aot C source";
        EXPECT_EQ(G.FusedStruct, W.FusedStruct) << "fused structHash";
        EXPECT_EQ(G.UnfusedStruct, W.UnfusedStruct) << "unfused structHash";
        EXPECT_EQ(G.Heights, W.Heights) << "per-pc heights";
        AllMatch &= Match;
      }
  EXPECT_EQ(Row, kGoldens.size());
  EXPECT_TRUE(AllMatch) << "current rows:\n" << NewRows;
}

} // namespace
