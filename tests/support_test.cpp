//===- tests/support_test.cpp - Support-library unit tests ----------------===//

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/OutChan.h"
#include "support/StrUtils.h"
#include "support/Symbol.h"
#include "support/Thread.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include <pthread.h>
#include <sys/resource.h>

using namespace monsem;

TEST(SymbolTest, InternIsIdempotent) {
  Symbol A = Symbol::intern("foo");
  Symbol B = Symbol::intern("foo");
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.id(), B.id());
  EXPECT_EQ(A.str(), "foo");
}

TEST(SymbolTest, DistinctSpellingsDiffer) {
  EXPECT_NE(Symbol::intern("foo"), Symbol::intern("bar"));
  EXPECT_NE(Symbol::intern("foo"), Symbol::intern("fooo"));
}

TEST(SymbolTest, SentinelIsEmpty) {
  Symbol S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S);
  EXPECT_NE(S, Symbol::intern("x"));
}

TEST(SymbolTest, ManySymbolsKeepStableSpellings) {
  std::vector<Symbol> Syms;
  for (int I = 0; I < 1000; ++I)
    Syms.push_back(Symbol::intern("sym" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(Syms[I].str(), "sym" + std::to_string(I));
}

TEST(SymbolTest, ConcurrentInternAndLockFreeReads) {
  // Writers intern fresh spellings while readers call str() on symbols
  // published before the run and on each writer's latest one, handed over
  // through an atomic. The spelling table's chunks double from 256
  // entries; 9000 fresh spellings, starting below id 7000 (this binary
  // interns far fewer before), publish several new chunks mid-run.
  constexpr int Writers = 3, Readers = 3, PerWriter = 3000;
  std::vector<std::string> OldNames;
  std::vector<Symbol> Old;
  for (int I = 0; I < 200; ++I) {
    OldNames.push_back("symtest.old." + std::to_string(I));
    Old.push_back(Symbol::intern(OldNames.back()));
  }

  std::atomic<Symbol> Latest[Writers];
  std::atomic<int> WritersLeft{Writers};
  std::atomic<bool> ReadsOk{true};
  std::vector<std::vector<Symbol>> Fresh(Writers);

  std::vector<std::thread> Threads;
  for (int W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      std::string Prefix = "symtest.w" + std::to_string(W) + ".";
      for (int I = 0; I < PerWriter; ++I) {
        Symbol S = Symbol::intern(Prefix + std::to_string(I));
        Fresh[W].push_back(S);
        Latest[W].store(S, std::memory_order_release);
      }
      --WritersLeft;
    });
  for (int R = 0; R < Readers; ++R)
    Threads.emplace_back([&, R] {
      size_t I = R;
      while (WritersLeft.load() > 0) {
        size_t K = I++ % Old.size();
        if (Old[K].str() != OldNames[K])
          ReadsOk = false;
        for (int W = 0; W < Writers; ++W) {
          Symbol L = Latest[W].load(std::memory_order_acquire);
          std::string Prefix = "symtest.w" + std::to_string(W) + ".";
          if (L && L.str().substr(0, Prefix.size()) != Prefix)
            ReadsOk = false;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_TRUE(ReadsOk);

  unsigned MinId = ~0u, MaxId = 0;
  for (int W = 0; W < Writers; ++W)
    for (int I = 0; I < PerWriter; ++I) {
      Symbol S = Fresh[W][I];
      EXPECT_EQ(S.str(), "symtest.w" + std::to_string(W) + "." +
                             std::to_string(I));
      EXPECT_EQ(Symbol::intern(S.str()), S);
      MinId = std::min(MinId, S.id());
      MaxId = std::max(MaxId, S.id());
    }
  EXPECT_LT(MinId, 7000u);
  EXPECT_EQ(MaxId - MinId + 1, unsigned(Writers * PerWriter))
      << "only the writers interned during the run, each id once";
  for (size_t I = 0; I < Old.size(); ++I)
    EXPECT_EQ(Old[I].str(), OldNames[I]);
}

TEST(ArenaTest, AllocatesAligned) {
  Arena A;
  for (int I = 0; I < 100; ++I) {
    void *P = A.allocate(I + 1, 8);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
  }
}

TEST(ArenaTest, CreateConstructsObjects) {
  Arena A;
  struct Pair {
    int X;
    int Y;
  };
  Pair *P = A.create<Pair>(1, 2);
  EXPECT_EQ(P->X, 1);
  EXPECT_EQ(P->Y, 2);
}

TEST(ArenaTest, GrowsAcrossChunks) {
  Arena A;
  // Force multiple chunk allocations.
  char *First = static_cast<char *>(A.allocate(8, 8));
  *First = 42;
  for (int I = 0; I < 100; ++I)
    A.allocate(4096, 16);
  EXPECT_EQ(*First, 42) << "early allocations must stay valid";
  EXPECT_GT(A.bytesAllocated(), 100u * 4096u);
}

TEST(ArenaTest, ResetReleasesEverything) {
  Arena A;
  A.allocate(1024, 8);
  EXPECT_GT(A.bytesAllocated(), 0u);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(ArenaTest, ResetRetainsAndReusesFirstChunk) {
  Arena A;
  void *First = A.allocate(64, 8);
  A.reset();
  // The retained first chunk is rewound, so the next allocation lands at
  // its start again.
  EXPECT_EQ(A.allocate(64, 8), First);
  EXPECT_EQ(A.bytesAllocated(), 64u);
}

TEST(ArenaTest, ResetAfterGrowthKeepsOnlyFirstChunk) {
  Arena A;
  void *First = A.allocate(64, 8);
  for (int I = 0; I < 100; ++I)
    A.allocate(4096, 16); // Forces additional chunks.
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.allocate(64, 8), First);
  // A reset-and-refill cycle still works past the first chunk.
  for (int I = 0; I < 100; ++I)
    A.allocate(4096, 16);
  EXPECT_GT(A.bytesAllocated(), 100u * 4096u);
}

TEST(DiagnosticsTest, CollectsAndRenders) {
  DiagnosticSink D;
  EXPECT_FALSE(D.hasErrors());
  D.warning({1, 2}, "watch out");
  EXPECT_FALSE(D.hasErrors());
  D.error({3, 4}, "boom");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_NE(D.str().find("error at 3:4: boom"), std::string::npos);
  EXPECT_NE(D.str().find("warning at 1:2: watch out"), std::string::npos);
}

TEST(OutChanTest, LinesAndPending) {
  OutChan C;
  EXPECT_TRUE(C.empty());
  C.addLine("one");
  C.addText("tw");
  C.addText("o");
  C.endLine();
  EXPECT_EQ(C.numLines(), 2u);
  EXPECT_EQ(C.str(), "one\ntwo\n");
  EXPECT_EQ(C.lines()[1], "two");
}

TEST(OutChanTest, PendingPrefixesNextLine) {
  OutChan C;
  C.addText("a");
  C.addLine("b");
  EXPECT_EQ(C.lines()[0], "ab");
}

TEST(StrUtilsTest, SplitTrimJoin) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(trimString("  hi \n"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
}

TEST(WorkerStackTest, ProgramThreadsGetTheRlimitOrAFixedStack) {
  struct rlimit RL;
  ASSERT_EQ(getrlimit(RLIMIT_STACK, &RL), 0);
  size_t Want = RL.rlim_cur == RLIM_INFINITY
                    ? kUnlimitedStackBytes
                    : static_cast<size_t>(RL.rlim_cur);
  EXPECT_EQ(programThreadStackBytes(), Want);

  // The thread really runs on a stack of the requested size.
  size_t Got = 0;
  StackThread T(size_t(48) << 20, [&] {
    pthread_attr_t Attr;
    if (pthread_getattr_np(pthread_self(), &Attr) == 0) {
      pthread_attr_getstacksize(&Attr, &Got);
      pthread_attr_destroy(&Attr);
    }
  });
  T.join();
  EXPECT_GE(Got, size_t(48) << 20);
  EXPECT_LT(Got, size_t(49) << 20);
}
