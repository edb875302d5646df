//===- compile/AotEmit.h - AOT-to-C native tier over RegProgram -*- C++ -*-===//
///
/// \file
/// The third level of specialization: the register tier's three-address
/// blocks, translated to C functions over the *same* register-window frame
/// layout, compiled by the system C compiler into a shared object, and
/// executed by the trampoline driver in AotRun.cpp (`--backend=vm-aot`).
///
/// Only *live* leaf blocks are emitted: leaf means no MkClosure, no
/// PushRecEnv, no probes — the blocks that already run without an
/// environment allocation per call; live means not inside the bound
/// expression of a letrec whose binder no live code refers to
/// (CodeBlock::Live), so the `--prelude` functions a program never names
/// cost the C compiler nothing. Dead and non-leaf blocks, every
/// MonPre/MonPost probe window, and any governor pause execute in the shared register interpreter at the same
/// (block, pc) coordinates, so probe event streams, step counts,
/// ResourceLimits outcomes, and checkpoint coordinates are byte-identical
/// to `vm-reg`, and checkpoints stay tier-portable in both directions.
///
/// Shared objects are cached on disk keyed by the emitted C (which names
/// the emitter version) and the compiler identification line; a
/// per-process registry memoizes loaded libraries so repeated runs of the
/// same program dlopen once. The identification line is cached in the same
/// directory, keyed by the compiler file's path, size and mtime, so a warm
/// run starts no `cc --version` process. When no C compiler is available,
/// `aotLoad` reports why and the caller falls back to `vm-reg`.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_COMPILE_AOTEMIT_H
#define MONSEM_COMPILE_AOTEMIT_H

#include "compile/VM.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace monsem {

/// The C ABI boundary between the trampoline driver and emitted code. One
/// instance lives on the driver's stack per run; the emitted functions
/// read machine state from it, run as far as they safely can, sync state
/// back, and return an AotStatus. Helper callbacks re-enter the C++ VM
/// for everything that allocates frames, builds error messages, or takes
/// the slow primitive paths — each helper leaves the VM in exactly the
/// state the interpreter would after the same instruction.
///
/// The struct is mirrored textually in the emitted C; AotRun.cpp
/// static_asserts the layout it depends on.
struct AotCtx {
  uint64_t *Regs;        ///< Register file (tagged Value words).
  uint64_t Base;         ///< Current window base index.
  uint64_t Steps;        ///< Source-machine step counter.
  uint64_t NextPause;    ///< Governor's next pause step (pure snapshot).
  uint64_t Env;          ///< Current EnvNode* (leaf: the closure's chain).
  uint32_t Block;        ///< Sync slot: current block.
  uint32_t PC;           ///< Sync slot: current pc (post-fetch convention).
  const uint64_t *Consts; ///< Constant pool (tagged Value words).
  void *VM;              ///< The driving AotVM instance.
  int (*Apply)(AotCtx *, uint64_t Fn, uint64_t Arg, int Tail, uint32_t Dst);
  int (*Prim1)(AotCtx *, uint32_t Op, uint64_t V, uint32_t Dst);
  int (*Prim2)(AotCtx *, uint32_t Op, uint64_t L, uint64_t R, uint32_t Dst);
  /// Fused compare-and-branch slow path; *Taken reports the branch.
  int (*Prim2Branch)(AotCtx *, uint32_t Op, uint64_t L, uint64_t R,
                     int *Taken);
  uint64_t (*BoxInt)(AotCtx *, int64_t V); ///< mkInt outside inline range.
  int (*DoRet)(AotCtx *, uint64_t V);      ///< Pop frame, deliver result.
  void (*FailUninit)(AotCtx *, uint64_t EnvNodePtr); ///< letrec-before-init.
  void (*FailNonBool)(AotCtx *, uint64_t V); ///< Conditional scrutinee.
};

/// Status codes returned by emitted block functions (mirrored in the C).
enum : uint64_t {
  kAotTransfer = 0, ///< Control moved (call/ret); state synced in ctx.
  kAotYield = 1,    ///< Governor pause near; interpret from (Block, PC).
  kAotFail = 2,     ///< A helper recorded a failure; unwind to errorResult.
  kAotBail = 3,     ///< Entry pc not compiled; interpret (defensive).
};

using AotBlockFn = uint64_t (*)(AotCtx *);

/// A loaded native library for one RegProgram: per-block function pointers
/// (null where the block is interpreted), the per-block conservative cost
/// bound the trampoline checks against the governor, and the enterable-pc
/// bitmap (pc 0 plus every call-return pc).
class AotLibrary {
public:
  ~AotLibrary();

  const std::vector<AotBlockFn> &fns() const { return Fns; }
  const std::vector<uint64_t> &blockCost() const { return BlockCost; }
  bool enterable(uint32_t Block, uint32_t PC) const {
    const std::vector<uint8_t> &E = Enterable[Block];
    return PC < E.size() && E[PC];
  }
  const std::string &source() const { return Source; }
  const std::string &path() const { return SoPath; }

private:
  friend std::shared_ptr<const AotLibrary>
  aotLoad(const RegProgram &RP, const std::string &CacheDir,
          std::string *WhyNot);
  void *Handle = nullptr;
  std::vector<AotBlockFn> Fns;
  std::vector<uint64_t> BlockCost;
  std::vector<std::vector<uint8_t>> Enterable;
  std::string Source;
  std::string SoPath;
};

/// True when the native tier can work in this process: a working C
/// compiler (`MONSEM_AOT_CC`, else `cc` on PATH). The compiler probe
/// (`--version`) runs once per process; unlike `aotLoad`, it never trusts
/// the on-disk identification cache.
bool aotAvailable();

/// The compiler identification line used in cache keys ("" when
/// unavailable).
const std::string &aotCompilerId();

/// Emits the C translation unit for \p RP (also shown by the CLI's
/// `--disasm` under `--backend=vm-aot`).
std::string aotEmitSource(const RegProgram &RP);

/// Structural fingerprint over every block of \p RP, emitted or not: block
/// and instruction counts, window sizes, the leaf and live flags, and the
/// raw bytes of every register instruction. Part of the loaded-library
/// registry key (see AotEmit.cpp).
uint64_t structHash(const RegProgram &RP);

/// Emits, compiles (or reuses the fingerprint-keyed cached shared object
/// under \p CacheDir — defaulting to a per-user directory under TMPDIR),
/// loads, and resolves the native library for \p RP. Returns null with a
/// one-line reason in \p WhyNot when the native tier cannot be used; the
/// caller falls back to the register interpreter.
std::shared_ptr<const AotLibrary> aotLoad(const RegProgram &RP,
                                          const std::string &CacheDir,
                                          std::string *WhyNot);

/// Executes \p RP with native leaf blocks from \p Lib, interpreting
/// everything else — the `vm-aot` driver (AotRun.cpp).
RunResult runAotProgram(const RegProgram &RP, const AotLibrary &Lib,
                        MonitorHooks *Hooks, RunOptions Opts);

} // namespace monsem

#endif // MONSEM_COMPILE_AOTEMIT_H
