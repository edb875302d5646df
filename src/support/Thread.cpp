//===- support/Thread.cpp --------------------------------------------------===//

#include "support/Thread.h"

#include <climits>
#include <exception>
#include <memory>
#include <system_error>
#include <utility>

#include <sys/resource.h>

using namespace monsem;

size_t monsem::programThreadStackBytes() {
  struct rlimit RL;
  if (getrlimit(RLIMIT_STACK, &RL) != 0 || RL.rlim_cur == RLIM_INFINITY)
    return kUnlimitedStackBytes;
  return static_cast<size_t>(RL.rlim_cur);
}

static void *threadEntry(void *Arg) {
  std::unique_ptr<std::function<void()>> Fn(
      static_cast<std::function<void()> *>(Arg));
  try {
    (*Fn)();
  } catch (...) {
    // What std::thread does: an exception may not unwind through the C
    // frames of the thread's start.
    std::terminate();
  }
  return nullptr;
}

StackThread::StackThread(size_t StackBytes, std::function<void()> Fn) {
  if (StackBytes < static_cast<size_t>(PTHREAD_STACK_MIN))
    StackBytes = PTHREAD_STACK_MIN;
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  int Err = pthread_attr_setstacksize(&Attr, StackBytes);
  auto *Heap = new std::function<void()>(std::move(Fn));
  if (Err == 0)
    Err = pthread_create(&Tid, &Attr, threadEntry, Heap);
  pthread_attr_destroy(&Attr);
  if (Err != 0) {
    delete Heap;
    throw std::system_error(Err, std::generic_category(),
                            "cannot start a thread");
  }
  Started = true;
}

StackThread::StackThread(StackThread &&O) noexcept
    : Tid(O.Tid), Started(std::exchange(O.Started, false)) {}

StackThread &StackThread::operator=(StackThread &&O) noexcept {
  if (this != &O) {
    if (Started)
      join();
    Tid = O.Tid;
    Started = std::exchange(O.Started, false);
  }
  return *this;
}

StackThread::~StackThread() {
  if (Started)
    join();
}

void StackThread::join() {
  if (!Started)
    return;
  pthread_join(Tid, nullptr);
  Started = false;
}
