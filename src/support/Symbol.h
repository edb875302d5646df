//===- support/Symbol.h - Interned identifiers ------------------*- C++ -*-===//
//
// Part of the monitoring-semantics reproduction of Kishon, Hudak & Consel,
// "Monitoring Semantics" (PLDI 1991).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers (the paper's syntactic domain Ide). A Symbol is a
/// cheap, copyable handle; two Symbols compare equal iff their spellings are
/// identical. Interning makes environment lookup and annotation matching a
/// pointer comparison.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_SYMBOL_H
#define MONSEM_SUPPORT_SYMBOL_H

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace monsem {

/// An interned identifier. The empty Symbol (default constructed) is a valid
/// sentinel that compares unequal to every interned spelling.
///
/// The intern table is process-wide and shared by every thread (server
/// workers parse programs and render probe events concurrently): intern()
/// takes a reader-writer lock, exclusive only to insert a new spelling;
/// str() takes no lock at all.
class Symbol {
public:
  Symbol() = default;

  /// Interns \p Spelling and returns its unique handle. Calling intern twice
  /// with the same spelling yields the same handle.
  static Symbol intern(std::string_view Spelling);

  /// The spelling this symbol was interned with; empty for the sentinel.
  std::string_view str() const;

  bool empty() const { return Id == 0; }
  explicit operator bool() const { return Id != 0; }

  /// Stable, dense id (0 is the sentinel). Useful as a vector index.
  unsigned id() const { return Id; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  explicit Symbol(unsigned Id) : Id(Id) {}
  unsigned Id = 0;
};

} // namespace monsem

namespace std {
template <> struct hash<monsem::Symbol> {
  size_t operator()(monsem::Symbol S) const noexcept { return S.id(); }
};
} // namespace std

#endif // MONSEM_SUPPORT_SYMBOL_H
