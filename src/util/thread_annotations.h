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

/// RAII lock for Mutex, annotated so the analysis sees the critical
/// section's extent (std::lock_guard would be opaque to it).
class NETSEER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NETSEER_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NETSEER_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace netseer::util
