//===- support/Thread.h - Threads with an explicit stack size ---*- C++ -*-===//
///
/// \file
/// Program-running threads with a stack size that does not depend on how
/// the host happens to be configured. glibc sizes a default thread's stack
/// from RLIMIT_STACK and falls back to a small fixed size when that limit
/// is unlimited, so a recursive phase (the compiler, the Direct
/// interpreter) that fits under `ulimit -s 8192` could run out of stack
/// under `ulimit -s unlimited`. std::thread cannot choose its stack, so
/// this wrapper creates the pthread itself.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_THREAD_H
#define MONSEM_SUPPORT_THREAD_H

#include <cstddef>
#include <functional>

#include <pthread.h>

namespace monsem {

/// The stack a program-running thread gets when RLIMIT_STACK is
/// unlimited.
inline constexpr size_t kUnlimitedStackBytes = size_t(64) << 20;

/// The finite RLIMIT_STACK soft limit (the main thread's stack), or
/// kUnlimitedStackBytes when the limit is unlimited or unreadable.
size_t programThreadStackBytes();

/// A joinable thread running \p Fn on a stack of \p StackBytes (rounded
/// up to the platform minimum). Movable, not copyable; a thread still
/// joinable at destruction is joined.
class StackThread {
public:
  StackThread() = default;
  StackThread(size_t StackBytes, std::function<void()> Fn);
  StackThread(StackThread &&O) noexcept;
  StackThread &operator=(StackThread &&O) noexcept;
  StackThread(const StackThread &) = delete;
  StackThread &operator=(const StackThread &) = delete;
  ~StackThread();

  bool joinable() const { return Started; }
  void join();

private:
  pthread_t Tid{};
  bool Started = false;
};

} // namespace monsem

#endif // MONSEM_SUPPORT_THREAD_H
