#pragma once

#include <cstdint>
#include <functional>

#include "store/store.h"

namespace netseer::store {

/// Pull-model tail over a store's durable watermark, created by
/// FlowEventStore::subscribe(). Each poll() delivers every row with
/// cursor < LSN <= durable watermark that matches the query, in LSN
/// order, then parks until the watermark advances — so a subscriber
/// sees each event exactly once, no matter how rows migrate between
/// memtable, sealed segments, and compacted segments (LSNs are stable
/// across all of those).
///
/// Backpressure is structural: the store never waits on a subscriber.
/// A subscriber too slow for the retention budget skips the evicted
/// rows and counts them as lag instead of blocking ingest.
///
/// Single-threaded like the rest of the query surface: poll() must not
/// race store mutation, and the subscription must not outlive the
/// store. Unlike a QueryCursor it tolerates mutation *between* polls —
/// it re-derives its view from the store each time by LSN.
class Subscription {
 public:
  /// Deliver matching rows after the cursor, up to `max_rows` of them,
  /// and advance. Returns rows delivered (0 = caught up with the
  /// watermark). `fn` receives the row and its LSN.
  std::size_t poll(const std::function<void(const backend::StoredEvent&, std::uint64_t)>& fn,
                   std::size_t max_rows = SIZE_MAX);

  /// Last LSN this subscription has consumed (delivered or skipped): the
  /// LSN to persist as a resume point — `store.subscribe(query,
  /// last_lsn())` after a close/reopen delivers exactly the rows this
  /// subscription never saw.
  [[nodiscard]] std::uint64_t last_lsn() const { return cursor_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  /// Rows evicted by retention before this subscriber polled them.
  [[nodiscard]] std::uint64_t lagged() const { return lagged_; }

 private:
  friend class FlowEventStore;
  Subscription(const FlowEventStore& store, backend::EventQuery query, std::uint64_t from_lsn)
      : store_(&store), query_(std::move(query)), cursor_(from_lsn) {}

  const FlowEventStore* store_ = nullptr;
  backend::EventQuery query_;
  std::uint64_t cursor_ = 0;  // last consumed LSN
  std::uint64_t delivered_ = 0;
  std::uint64_t lagged_ = 0;
};

}  // namespace netseer::store
