#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

/// netseer::mc — a loom-style exhaustive-interleaving model checker for
/// the engine's concurrency primitives.
///
/// A test ("harness") hands explore() a body that builds fresh state and
/// spawns a small fixed number of model threads. The runtime runs the
/// body under a virtual scheduler: exactly one model thread executes at
/// any instant, and every *visible operation* — an mc::Atomic access, an
/// mc::Mutex lock/unlock, an await, a spawn/join — is a scheduling point
/// where the runtime picks which thread runs next. A depth-first search
/// over those choices re-executes the body once per schedule until every
/// interleaving (up to the configured bounds) has been explored,
/// DPOR-style sleep sets pruning schedules that only reorder independent
/// operations.
///
/// The memory model, precisely: values are sequentially consistent (a
/// load observes the latest store in the explored schedule), and
/// release/acquire synchronization is tracked with vector clocks so
/// every non-atomic access instrumented via race_read()/race_write() is
/// checked for happens-before data races — the same race relation TSan
/// checks, but over EVERY schedule instead of the ones the OS happens to
/// produce. Relaxed stores publish no view, release stores publish the
/// writer's clock; the model has no read-modify-writes. What this model
/// deliberately does not cover: stale-value reads of atomics
/// (a relaxed load here still returns the newest value; the missing
/// synchronization is caught as a race on the data it was meant to
/// publish, not as a stale read) and fences (unused in this codebase).
///
/// Determinism contract: a harness body must be deterministic apart from
/// scheduling — no wall clocks, no OS randomness, no iteration over
/// pointer-keyed containers feeding visible ops. The runtime verifies
/// this by fingerprinting each replayed operation and failing loudly on
/// divergence.
namespace netseer::mc {

inline constexpr int kMaxModelThreads = 8;

struct Options {
  /// Per-schedule visible-op budget. Exceeding it means a livelock (an
  /// unbounded spin reached the checker; model waits with mc::await).
  std::uint64_t max_steps = 20000;
  /// Exploration budget. Exceeding it stops the search with
  /// Result::exhausted == false; harnesses are sized to stay well under.
  std::uint64_t max_schedules = 1000000;
};

struct Result {
  std::uint64_t schedules = 0;  // complete schedules executed
  std::uint64_t pruned = 0;     // runs cut short by sleep-set closure
  std::uint64_t steps = 0;      // visible ops executed, all schedules
  std::uint64_t max_depth = 0;  // longest schedule, in visible ops
  bool exhausted = false;       // the DFS completed within max_schedules
  bool failed = false;
  std::string failure;              // first failure, human-readable
  std::vector<std::string> trace;   // schedule that produced the failure

  [[nodiscard]] bool ok() const { return exhausted && !failed; }
};

namespace detail {

enum class OpKind : std::uint8_t {
  kAtomicLoad,
  kAtomicStore,
  kMutexLock,
  kMutexUnlock,
  kAwait,
  kJoin,
  kSpawn,
  kYield,
};

/// Run one visible operation: the calling model thread parks at the
/// scheduling point and applies `effect` (under the runtime lock) once
/// granted. `pred` and `target` ride along for kAwait / kJoin
/// enabledness. Only code running inside explore() may call it.
void perform(const void* obj, OpKind kind, std::memory_order mo, void* ctx, void (*effect)(void*),
             const std::function<bool()>* pred = nullptr, int target = -1);

/// Drop per-run state for a destroyed Atomic/Mutex.
void forget_object(const void* obj);

int spawn_thread(std::function<void()> fn);

[[noreturn]] void fail(std::string message);
[[nodiscard]] bool failing();

}  // namespace detail

/// Explore every interleaving of the threads `body` spawns. `body` runs
/// as model thread 0; it typically builds fresh state on its stack,
/// spawns workers, joins them, and asserts the final state.
Result explore(const Options& options, const std::function<void()>& body);

/// Handle to a spawned model thread (join-once, movable).
class Thread {
 public:
  Thread() = default;
  Thread(Thread&& other) noexcept : id_(other.id_) { other.id_ = -1; }
  Thread& operator=(Thread&& other) noexcept {
    id_ = other.id_;
    other.id_ = -1;
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  /// Block (in model time) until the thread's body has returned.
  /// Establishes happens-before from everything the thread did.
  void join();

 private:
  friend Thread spawn(std::function<void()> fn);
  explicit Thread(int id) : id_(id) {}
  int id_ = -1;
};

/// Spawn a model thread running `fn`. At most kMaxModelThreads per run.
Thread spawn(std::function<void()> fn);

/// Explicit scheduling point with no effect (models sched_yield).
void yield();

/// Block until `pred` returns true. This is how a harness models a spin
/// loop ("wait until the ring drains", "wait for the barrier round to
/// advance") without the checker exploring unbounded spin iterations:
/// the thread is simply not runnable while the predicate is false. The
/// predicate must be a lock-free read of mc::Atomic state (it is
/// re-evaluated by the scheduler, side-effect free); when the wait is
/// granted it is re-run on the waiting thread so its acquire loads
/// establish the usual happens-before edges.
void await(const std::function<bool()>& pred);

/// Non-atomic-access instrumentation: declare a read/write of the cell
/// at `addr` so the checker can verify every conflicting pair is ordered
/// by happens-before in every schedule.
void race_read(const void* addr, const char* what);
void race_write(const void* addr, const char* what);

/// Sequentially-consistent-valued atomic with release/acquire
/// happens-before tracking, for use inside explore() only. API mirrors
/// the std::atomic subset the harnesses use; every call is a scheduling
/// point.
template <typename T>
class Atomic {
 public:
  Atomic() = default;
  explicit Atomic(T v) : value_(v) {}
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;
  ~Atomic() { detail::forget_object(this); }

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    T out{};
    Ctx ctx{const_cast<Atomic*>(this), &out, T{}};
    detail::perform(this, detail::OpKind::kAtomicLoad, mo, &ctx,
                    [](void* p) { *static_cast<Ctx*>(p)->out = static_cast<Ctx*>(p)->self->value_; });
    return out;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    Ctx ctx{this, nullptr, v};
    detail::perform(this, detail::OpKind::kAtomicStore, mo, &ctx,
                    [](void* p) { static_cast<Ctx*>(p)->self->value_ = static_cast<Ctx*>(p)->arg; });
  }

 private:
  struct Ctx {
    Atomic* self;
    T* out;
    T arg;
  };

  T value_{};
};

/// Instrumented mutex, annotated as a capability so the clang
/// thread-safety analysis sees straight through model-checked builds;
/// for use inside explore() only. lock() is a scheduling point that is
/// simply not runnable while another thread holds the mutex (the
/// scheduler reports a deadlock when no thread is runnable).
class NETSEER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() { detail::forget_object(this); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NETSEER_ACQUIRE();
  void unlock() NETSEER_RELEASE();
};

/// RAII lock for mc::Mutex, mirroring util::MutexLock. The destructor
/// is noexcept(false): unlock is a scheduling point, and a run being
/// torn down unwinds parked threads with an internal exception. (During
/// active unwinding the runtime applies ops immediately instead, so a
/// double-exception terminate cannot happen.)
class NETSEER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NETSEER_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() noexcept(false) NETSEER_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

namespace detail {
void assert_fail(const char* expr, const char* file, int line);
}  // namespace detail

/// Model-level assertion: inside a run, a violation records the failing
/// schedule and aborts the search; outside, it aborts the process.
#define MC_ASSERT(expr) \
  ((expr) ? (void)0 : ::netseer::mc::detail::assert_fail(#expr, __FILE__, __LINE__))

}  // namespace netseer::mc
