#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/task.h"
#include "util/time.h"

namespace netseer::sim {

using util::SimDuration;
using util::SimTime;

class Simulator;

/// Cancellation token for a scheduled callback. Destroying the handle does
/// NOT cancel (fire-and-forget is the common case); call cancel().
/// A one-shot task's handle reports active() == false once it has fired;
/// a periodic task stays active until cancelled.
///
/// Handles are generation-counted references into the simulator's slab:
/// copying is trivial, and a stale handle (task fired / cancelled / slot
/// recycled) degrades to an inactive no-op. Handles must not outlive the
/// Simulator that issued them.
class TaskHandle {
 public:
  TaskHandle() = default;

  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class Simulator;
  TaskHandle(Simulator* owner, std::uint32_t slot, std::uint64_t gen)
      : owner_(owner), slot_(slot), gen_(gen) {}

  Simulator* owner_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

/// Single-threaded discrete-event simulator with integer-nanosecond
/// virtual time. Events scheduled for the same instant run in scheduling
/// order, so runs are bit-reproducible for a fixed seed.
///
/// The hot path is allocation-free: callbacks are sim::Task values whose
/// captures live inline in a recycled slot slab (≤ Task::kInlineBytes, no
/// per-event heap cell), cancellation state is a generation counter in the
/// same slot instead of a shared_ptr per event, and the pending set is a
/// two-level calendar queue — a ring of one-nanosecond buckets for the
/// near-monotonic bulk of link/queue events, plus a binary-heap overflow
/// for far-out timers (RTOs, pollers) that migrate into the ring as time
/// advances. Each bucket is an intrusive FIFO threaded through the slab
/// slots themselves (an 8-byte head/tail pair per bucket, a next link in
/// each slot), so scheduling never allocates and the Task never moves
/// while queued. Two rules keep every bucket in seq (scheduling) order by
/// construction: the cursor moves only to the instant about to fire, and
/// each move first migrates every overflow entry its new horizon covers.
/// An overflow entry was scheduled while its instant lay past the horizon,
/// so it reaches its bucket before any direct push to that instant, and
/// heap pops append in (when, seq) order. The cursor's bucket then drains
/// front to back, same-instant schedules append to its tail, and pops are
/// bit-identical to a global (when, seq) priority queue.
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Tasks whose capture spilled to the heap (see Task::on_heap). Zero on
  /// the intended hot paths; the sim.alloc_per_event gauge watches it.
  [[nodiscard]] std::uint64_t task_heap_allocs() const { return task_heap_allocs_; }
  /// Entries queued so far (schedule_* calls and periodic requeues), the
  /// denominator for spill ratios.
  [[nodiscard]] std::uint64_t tasks_scheduled() const { return next_seq_; }

  /// Schedule `fn` at absolute time `when` (clamped to now for past times).
  /// `fn` is any void() callable; it is stored as a sim::Task built in
  /// place in the slab cell (deduced so the capture never moves twice).
  template <typename F>
  [[nodiscard]] TaskHandle schedule_at(SimTime when, F&& fn) {
    return schedule_task(when, std::forward<F>(fn), 0);
  }

  /// Schedule `fn` `delay` after now.
  template <typename F>
  [[nodiscard]] TaskHandle schedule_after(SimDuration delay, F&& fn) {
    return schedule_task(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn), 0);
  }

  /// Schedule `fn` every `interval`, first firing at now + interval.
  /// Cancel via the returned handle. Non-positive intervals are clamped
  /// to 1 ns (a zero-interval periodic used to leak a forever-active
  /// handle that never fired again).
  template <typename F>
  [[nodiscard]] TaskHandle schedule_every(SimDuration interval, F&& fn) {
    if (interval < 1) interval = 1;
    return schedule_task(now_ + interval, std::forward<F>(fn), interval);
  }

  /// Run until the queue drains or stop() is called. Must not be called
  /// re-entrantly from inside a callback.
  void run() { drain(kNever); }

  /// Run all events with time <= `limit`; afterwards now() == limit (if
  /// the simulation reached it) and later events remain queued.
  void run_until(SimTime limit);

  /// Stop the current run() / run_until() after the in-flight event.
  /// A pending stop is consumed (reset) when the next run starts, so
  /// calling stop() while idle does not suppress a future run.
  void stop() { stopped_ = true; }

 private:
  friend class TaskHandle;

  /// Overflow-heap key: trivially copyable so heap sifts are memcpys.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Slab cell holding the callback and its control state. `gen`
  /// increments on release, invalidating every outstanding handle to the
  /// old incarnation. The slab is chunked so cells never move: a callback
  /// that schedules new tasks may append a chunk, but the cell being
  /// invoked stays put, so fire() runs the Task in place with no move.
  /// `when`/`seq`/`next` double as the queue entry while the slot is
  /// queued in a ring bucket; `next` is also the free-list link (the two
  /// lifetimes never overlap).
  struct Slot {
    Task fn;
    SimTime when = 0;
    std::uint64_t seq = 0;
    SimDuration interval = 0;  // > 0: periodic, requeued after firing
    std::uint64_t gen = 0;
    std::uint32_t next = kNoSlot;  // bucket chain when queued, free list when free
    bool cancelled = false;
    bool in_use = false;
  };

  /// Intrusive FIFO of slab slots chained by Slot::next.
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  /// One-nanosecond buckets make a bucket exactly one instant, so it
  /// drains as a plain FIFO (see the class comment); the occupancy bitmap
  /// makes skipping the empty buckets in between nearly free. Sized so
  /// store-and-forward hop delays (tens of ns to ~8 us of serialization)
  /// stay in-ring; RTO/poller timers beyond the horizon take the overflow
  /// heap, which is exactly what it is for.
  static constexpr std::size_t kBucketCount = 8192;  // ring horizon ≈ 8.2 us

  [[nodiscard]] static std::size_t bucket_of(SimTime t) {
    return static_cast<std::size_t>(t) % kBucketCount;
  }
  /// Heap comparator as a stateless functor so std::*_heap inlines the
  /// compare (a function pointer would cost an indirect call per sift).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  [[nodiscard]] Slot& slot_ref(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_ref(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  template <typename F>
  [[nodiscard]] TaskHandle schedule_task(SimTime when, F&& fn, SimDuration interval) {
    const std::uint32_t slot = acquire_slot();
    Slot& cell = slot_ref(slot);
    cell.fn = std::forward<F>(fn);  // in-place Task construction
    if (cell.fn.on_heap()) ++task_heap_allocs_;
    cell.interval = interval;
    return enqueue_slot(when, slot);
  }

  [[nodiscard]] TaskHandle enqueue_slot(SimTime when, std::uint32_t slot);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Append a slot to the ring bucket of its instant (FIFO tail).
  void append(std::uint32_t slot);
  void push_slot(std::uint32_t slot);
  void migrate_overflow();
  /// Move the cursor to the earliest pending instant if it is at most
  /// `limit` (migrating what the new horizon covers); false otherwise.
  bool advance(SimTime limit);
  /// Fire every event with time <= `limit` until the queue drains or
  /// stop() is called; run() and run_until() share it.
  void drain(SimTime limit);
  void fire(std::uint32_t slot);

  static constexpr std::size_t kWords = kBucketCount / 64;

  void mark(std::size_t index) { occupied_[index >> 6] |= 1ull << (index & 63); }
  void unmark(std::size_t index) { occupied_[index >> 6] &= ~(1ull << (index & 63)); }
  /// Circular distance from ring index `base` to the first occupied
  /// bucket (0 if `base` itself is occupied). Requires a non-empty ring.
  [[nodiscard]] std::size_t next_occupied(std::size_t base) const;

  // Two-level calendar queue. Every overflow entry lies at or past the
  // horizon, cursor_ + kBucketCount; cursor_ is the instant firing (or
  // last fired) and never passes now_.
  std::array<Bucket, kBucketCount> ring_;
  std::array<std::uint64_t, kWords> occupied_{};  // bitmap of non-empty buckets
  std::vector<Entry> overflow_;                   // min-heap by (when, seq) via Later{}
  SimTime cursor_ = 0;
  std::size_t size_ = 0;  // all pending entries

  // Task + cancellation slab (chunked; cells have stable addresses).
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out so far (high-water)
  std::uint32_t free_slot_ = kNoSlot;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t task_heap_allocs_ = 0;
  bool stopped_ = false;
};

inline void TaskHandle::cancel() {
  if (owner_ == nullptr) return;
  Simulator::Slot& slot = owner_->slot_ref(slot_);
  if (slot.in_use && slot.gen == gen_) slot.cancelled = true;
}

inline bool TaskHandle::active() const {
  if (owner_ == nullptr) return false;
  const Simulator::Slot& slot = owner_->slot_ref(slot_);
  return slot.in_use && slot.gen == gen_ && !slot.cancelled;
}

}  // namespace netseer::sim
