#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace netseer::util {

/// Mutex + condition-variable pair usable under the clang thread-safety
/// analysis. util::Mutex (thread_annotations.h) deliberately hides its
/// std::mutex — fine for plain critical sections, but a condition
/// variable must unlock/relock the native mutex inside wait(). CondMutex
/// is the annotated capability whose native handle CondVar can reach;
/// the store's group-commit writer thread blocks on it.
///
/// The model checker never sees these: code using CondMutex runs real
/// threads (exercised under TSan), while the interleaving-level protocol
/// is model-checked through the src/mc miniatures.
class NETSEER_CAPABILITY("mutex") CondMutex {
 public:
  CondMutex() = default;
  CondMutex(const CondMutex&) = delete;
  CondMutex& operator=(const CondMutex&) = delete;

  void lock() NETSEER_ACQUIRE() { mu_.lock(); }
  void unlock() NETSEER_RELEASE() { mu_.unlock(); }

 private:
  friend class CondMutexLock;
  std::mutex mu_;
};

/// Scoped lock over CondMutex that CondVar::wait can suspend. Annotated
/// as a scoped capability so guarded members are verifiably accessed
/// only inside the critical section. (The analysis cannot see that
/// wait() unlocks and relocks internally — the standard blind spot —
/// which is safe because every waiter re-checks its predicate.)
class NETSEER_SCOPED_CAPABILITY CondMutexLock {
 public:
  explicit CondMutexLock(CondMutex& mu) NETSEER_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~CondMutexLock() NETSEER_RELEASE() = default;
  CondMutexLock(const CondMutexLock&) = delete;
  CondMutexLock& operator=(const CondMutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over CondMutex. No predicate overloads on purpose:
/// a `while (!pred) cv.wait(lock);` loop keeps the guarded reads inside
/// the annotated critical section, where the analysis can check them (a
/// predicate lambda would not inherit the capability).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(CondMutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace netseer::util
