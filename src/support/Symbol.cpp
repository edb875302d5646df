//===- support/Symbol.cpp - Interned identifiers --------------------------===//

#include "support/Symbol.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

using namespace monsem;

namespace {

/// Spellings by id, in chunks reached through a fixed directory, so a
/// published spelling never moves and str() reads it without a lock: one
/// acquire load of the chunk pointer, then the slot. Chunk K holds
/// FirstChunk << K spellings, so a small program touches only the first
/// few kilobytes and the directory still covers FirstChunk * (2^NumChunks -
/// 1) ids. Id 0 (the sentinel) is never stored; str() answers it without
/// touching the table.
///
/// The directory is constant-initialized, so str() needs no guard for
/// first use either.
constexpr unsigned FirstChunkBits = 8;
constexpr unsigned FirstChunk = 1u << FirstChunkBits;
constexpr unsigned NumChunks = 20; ///< About 268M spellings in all.
constexpr unsigned Capacity = FirstChunk * ((1u << NumChunks) - 1);

constinit std::atomic<std::string *> Chunks[NumChunks] = {};

/// Chunk K covers ids [FirstChunk * (2^K - 1), FirstChunk * (2^(K+1) - 1)).
struct Slot {
  unsigned Chunk, Index;
};
Slot locate(unsigned Id) {
  unsigned Biased = Id + FirstChunk;
  unsigned Chunk = std::bit_width(Biased) - 1 - FirstChunkBits;
  return {Chunk, Biased - (FirstChunk << Chunk)};
}

/// The writer side. Interning takes a reader-writer lock — shared for the
/// already-interned fast path, exclusive only when a new spelling is
/// inserted. A new spelling is written into its slot (and its chunk
/// allocated and published, release) under the exclusive lock before its
/// id is handed out, so any thread holding a Symbol can read its spelling.
struct InternTable {
  std::shared_mutex M;
  std::unordered_map<std::string_view, unsigned> Index;
  unsigned Next = 1;

  unsigned intern(std::string_view Spelling) {
    {
      std::shared_lock<std::shared_mutex> Lock(M);
      auto It = Index.find(Spelling);
      if (It != Index.end())
        return It->second;
    }
    std::unique_lock<std::shared_mutex> Lock(M);
    // Re-check: another thread may have interned it between the locks.
    auto It = Index.find(Spelling);
    if (It != Index.end())
      return It->second;
    unsigned Id = Next;
    if (Id >= Capacity) {
      std::fprintf(stderr,
                   "monsem: symbol table full (%u spellings interned)\n",
                   Id - 1);
      std::abort();
    }
    Slot At = locate(Id);
    std::string *Slots = Chunks[At.Chunk].load(std::memory_order_relaxed);
    if (!Slots) {
      // Never freed: a Symbol stays readable for the life of the process.
      Slots = new std::string[FirstChunk << At.Chunk];
      Chunks[At.Chunk].store(Slots, std::memory_order_release);
    }
    std::string &S = Slots[At.Index];
    S = Spelling;
    Index.emplace(std::string_view(S), Id);
    ++Next;
    return Id;
  }
};

InternTable &table() {
  static InternTable Table;
  return Table;
}

} // namespace

Symbol Symbol::intern(std::string_view Spelling) {
  assert(!Spelling.empty() && "cannot intern an empty spelling");
  return Symbol(table().intern(Spelling));
}

std::string_view Symbol::str() const {
  if (Id == 0)
    return {};
  Slot At = locate(Id);
  return Chunks[At.Chunk].load(std::memory_order_acquire)[At.Index];
}
