#pragma once

#include <cstdint>
#include <span>

#include "core/event.h"
#include "util/time.h"

namespace netseer::backend {

/// Where the collector puts the events it accepts. store::FlowEventStore
/// implements it, in memory or on disk; the interface keeps the reliable
/// report path free of the store's headers, and lets a benchmark wrap
/// the store in a timing shim.
///
/// The interface is batch-first: collectors receive whole report
/// batches off the wire, and handing the batch down in one call lets a
/// durable backend amortize WAL framing and group-commit fsyncs across
/// it. `add` remains as a one-element convenience wrapper.
///
/// Durability is asynchronous: `add_batch` returning does NOT mean the
/// events survived a crash. `durable_watermark()` reports the highest
/// sequence number the sink guarantees is recoverable; callers that
/// need an acknowledgement wait for the watermark to pass the sequence
/// assigned to their batch (store::FlowEventStore::sync() does exactly
/// that). An in-memory store reports every row it has flushed.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Accept a batch of events observed at `now`. Events are applied in
  /// span order; ordering across calls follows call order.
  virtual void add_batch(std::span<const core::FlowEvent> events, util::SimTime now) = 0;

  /// One-element convenience wrapper over add_batch.
  virtual void add(const core::FlowEvent& event, util::SimTime now) {
    add_batch({&event, 1}, now);
  }

  /// Highest sequence number guaranteed recoverable after a crash: the
  /// group-commit durable-LSN watermark for a durable sink, the last
  /// flushed LSN for an in-memory one.
  [[nodiscard]] virtual std::uint64_t durable_watermark() const { return 0; }
};

}  // namespace netseer::backend
