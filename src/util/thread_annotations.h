#pragma once

#include <mutex>

/// Clang thread-safety analysis annotations (-Wthread-safety). They
/// compile to nothing on other compilers, so the GCC builds this repo
/// develops against are unaffected; the clang CI legs enforce them.
#if defined(__clang__)
#define NETSEER_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NETSEER_THREAD_ANNOTATION_(x)
#endif

#define NETSEER_CAPABILITY(x) NETSEER_THREAD_ANNOTATION_(capability(x))
#define NETSEER_SCOPED_CAPABILITY NETSEER_THREAD_ANNOTATION_(scoped_lockable)
#define NETSEER_GUARDED_BY(x) NETSEER_THREAD_ANNOTATION_(guarded_by(x))
#define NETSEER_PT_GUARDED_BY(x) NETSEER_THREAD_ANNOTATION_(pt_guarded_by(x))
#define NETSEER_REQUIRES(...) NETSEER_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define NETSEER_ACQUIRE(...) NETSEER_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define NETSEER_RELEASE(...) NETSEER_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define NETSEER_EXCLUDES(...) NETSEER_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define NETSEER_NO_THREAD_SAFETY_ANALYSIS \
  NETSEER_THREAD_ANNOTATION_(no_thread_safety_analysis)

#if defined(NETSEER_MC)

// In model-checked builds, destructors that reach scheduling points
// (unlocks) must be able to propagate the checker's internal unwind
// exception; see mc/runtime.h.
#define NETSEER_MC_NOEXCEPT_FALSE noexcept(false)

// Model-checked builds: util::Mutex routes through the mc runtime so
// every mutex in code compiled into netseer_mc_core (the telemetry
// Registry) is a scheduling point the checker explores.
// Declared here (defined in mc/runtime.cpp) to avoid an include cycle
// with mc/runtime.h, which needs the macros above.
namespace netseer::mc::detail {
void* instrumented_mutex_make();
void instrumented_mutex_drop(void* real, const void* self);
void instrumented_mutex_lock(void* real, const void* self);
void instrumented_mutex_unlock(void* real, const void* self);
}  // namespace netseer::mc::detail

namespace netseer::util {

class NETSEER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : real_(mc::detail::instrumented_mutex_make()) {}
  ~Mutex() { mc::detail::instrumented_mutex_drop(real_, this); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NETSEER_ACQUIRE() { mc::detail::instrumented_mutex_lock(real_, this); }
  void unlock() NETSEER_RELEASE() { mc::detail::instrumented_mutex_unlock(real_, this); }

 private:
  void* real_;  // fallback std::mutex for use outside a model run
};

#else

#define NETSEER_MC_NOEXCEPT_FALSE

namespace netseer::util {

/// std::mutex annotated as a capability so the analysis can track it.
/// (The standard library's mutex carries no annotations under libstdc++,
/// which would make GUARDED_BY members unverifiable.)
class NETSEER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NETSEER_ACQUIRE() { mu_.lock(); }
  void unlock() NETSEER_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

#endif

/// RAII lock for Mutex, annotated so the analysis sees the critical
/// section's extent (std::lock_guard would be opaque to it).
class NETSEER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NETSEER_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NETSEER_MC_NOEXCEPT_FALSE NETSEER_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace netseer::util
