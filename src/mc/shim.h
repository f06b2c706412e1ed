#pragma once

/// Atomic shim for model-checkable production code. Concurrency
/// primitives that the model checker exercises (sim/spsc.h) declare
/// their atomics as netseer::mc_shim::atomic<T> and mark the non-atomic
/// cells those atomics publish with NETSEER_MC_READ/NETSEER_MC_WRITE.
/// In normal builds this header aliases std::atomic and the macros
/// compile to nothing — zero cost, zero behavior change. Under
/// -DNETSEER_MC (the netseer_mc_core library) the same source compiles
/// against the instrumented mc::Atomic, so the code the checker explores
/// is the code that ships.
#if defined(NETSEER_MC)

#include "mc/runtime.h"

namespace netseer::mc_shim {
template <typename T>
using atomic = ::netseer::mc::Atomic<T>;
}  // namespace netseer::mc_shim

#define NETSEER_MC_READ(addr, what) ::netseer::mc::race_read((addr), (what))
#define NETSEER_MC_WRITE(addr, what) ::netseer::mc::race_write((addr), (what))

#else

#include <atomic>

namespace netseer::mc_shim {
template <typename T>
using atomic = ::std::atomic<T>;
}  // namespace netseer::mc_shim

#define NETSEER_MC_READ(addr, what) ((void)0)
#define NETSEER_MC_WRITE(addr, what) ((void)0)

#endif
