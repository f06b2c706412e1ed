#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mc/shim.h"
#include "util/annotations.h"

namespace netseer::sim {

/// Bounded single-producer single-consumer ring, the batch hand-off
/// between the store's ingest thread and its group-commit writer.
/// Exactly one thread may push and one may pop; the indices carry
/// acquire/release ordering so the payload write in try_push
/// happens-before the payload read in try_pop without any lock on the
/// message path.
///
/// Capacity is rounded up to a power of two. A full ring rejects the
/// push (try_push returns false WITHOUT consuming the value) — the
/// caller owns the backpressure policy.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Producer-side fullness probe: pure loads, so a producer can poll
  /// (or an mc::await predicate can watch) without attempting a push.
  /// Only the producer may act on a false result — space never shrinks
  /// under it, so !full() guarantees its next try_push succeeds.
  [[nodiscard]] bool full() const {
    return tail_.load(std::memory_order_relaxed) - head_.load(std::memory_order_acquire) ==
           slots_.size();
  }

  /// Consumer-side emptiness probe, same contract mirrored: !empty()
  /// guarantees the consumer's next try_pop succeeds.
  [[nodiscard]] bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_relaxed);
  }

  /// Producer side. Returns false (value untouched) when the ring is full.
  [[nodiscard]] NETSEER_HOT bool try_push(T& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) return false;
    NETSEER_MC_WRITE(&slots_[tail & mask_], "SpscRing::slots_[tail]");
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty. The drained
  /// slot is reset so pooled captures are not pinned by the ring.
  [[nodiscard]] NETSEER_HOT bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    NETSEER_MC_WRITE(&slots_[head & mask_], "SpscRing::slots_[head]");
    out = std::move(slots_[head & mask_]);
    slots_[head & mask_] = T{};
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) mc_shim::atomic<std::size_t> head_{0};  // consumer cursor
  alignas(64) mc_shim::atomic<std::size_t> tail_{0};  // producer cursor
};

}  // namespace netseer::sim
