#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/spsc.h"
#include "store/format.h"
#include "store/wal.h"
#include "util/annotations.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace netseer::store {

/// Group-commit WAL writer: a background thread that drains whole shard
/// batches off an SPSC ring, appends them to the WAL, and amortizes one
/// fsync over everything drained in a round. Acknowledgements are the
/// durable-LSN watermark it publishes after each successful fsync — the
/// ingest thread never fsyncs inline; it blocks in sync_to() only when
/// the caller explicitly asks for durability.
///
/// Threading contract (model-checked as the group_commit_watermark
/// miniature in src/mc):
///   - exactly ONE producer (the store's ingest thread) calls submit(),
///     take_buffer(), drain(), sync_to();
///   - the internal thread is the only WAL appender while alive (the
///     WalWriter itself is mutex-serialized, so maintenance-side calls
///     like remove_obsolete stay safe);
///   - watermark() is release-published after fsync and may be read from
///     any thread.
///
/// Batches ride the data ring producer->writer; their emptied vectors
/// ride the recycle ring back, so steady-state ingest allocates nothing
/// per batch. A full data ring blocks submit() (bounded memory), which
/// is the only backpressure ingest ever sees — and only when the disk
/// cannot keep up with the event rate at all.
class GroupCommitWriter {
 public:
  /// `initial_watermark` seeds the durable LSN from recovery (rows
  /// replayed out of the WAL are on disk already). With
  /// `sync_every_batch`, every batch is its own commit group.
  GroupCommitWriter(WalWriter& wal, bool sync_every_batch, std::uint64_t initial_watermark,
                    std::size_t queue_depth = 64);
  ~GroupCommitWriter();

  GroupCommitWriter(const GroupCommitWriter&) = delete;
  GroupCommitWriter& operator=(const GroupCommitWriter&) = delete;

  /// Hand one shard batch (consecutive pre-assigned LSNs, ascending
  /// across calls) to the writer thread. Blocks only when the ring is
  /// full. Producer thread only.
  void submit(std::vector<Row> batch);

  /// A recycled batch vector (capacity retained) or a fresh one.
  /// Producer thread only.
  [[nodiscard]] std::vector<Row> take_buffer();

  /// Wait until every batch submitted so far has been appended to the
  /// WAL (not necessarily fsynced) — the async equivalent of the old
  /// inline append, used by flush(). Producer thread only.
  void drain();

  /// Block until the durable watermark covers `lsn` (requesting an
  /// immediate commit of anything still buffered) or the WAL dies.
  /// Returns whether the watermark got there. Producer thread only.
  [[nodiscard]] bool sync_to(std::uint64_t lsn);

  /// Highest LSN guaranteed on stable storage. Any thread.
  [[nodiscard]] std::uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  // Counters for StoreStats (any thread; relaxed).
  [[nodiscard]] std::uint64_t groups_committed() const {
    return groups_committed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t batches_appended() const {
    return appended_batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t append_failures() const {
    return append_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_group_batches() const {
    return max_group_batches_.load(std::memory_order_relaxed);
  }
  /// Times submit() found the ring full and had to wait (producer-side
  /// counter, but exposed with the rest for telemetry).
  [[nodiscard]] std::uint64_t queue_full_waits() const {
    return queue_full_waits_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  /// Drain everything currently in the ring; returns batches processed.
  std::size_t drain_available();
  /// fsync and publish the watermark; false once the WAL is dead.
  [[nodiscard]] NETSEER_BLOCKING bool commit_group(std::size_t group_batches);
  [[nodiscard]] bool sync_pending() const {
    return sync_goal_.load(std::memory_order_acquire) >
           watermark_.load(std::memory_order_relaxed);
  }

  WalWriter& wal_;
  const bool sync_every_batch_;

  sim::SpscRing<std::vector<Row>> ring_;     // producer -> writer
  sim::SpscRing<std::vector<Row>> recycle_;  // writer -> producer

  util::CondMutex mu_;
  util::CondVar work_cv_;   // writer sleeps; producer signals work/stop
  util::CondVar state_cv_;  // producer sleeps; writer signals progress
  bool stop_ NETSEER_GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> watermark_;
  std::atomic<std::uint64_t> sync_goal_{0};
  std::atomic<std::uint64_t> submitted_batches_{0};
  std::atomic<std::uint64_t> appended_batches_{0};

  std::atomic<std::uint64_t> groups_committed_{0};
  std::atomic<std::uint64_t> append_failures_{0};
  std::atomic<std::uint64_t> max_group_batches_{0};
  std::atomic<std::uint64_t> queue_full_waits_{0};

  /// Highest LSN successfully appended; writer thread only.
  std::uint64_t appended_lsn_;

  std::thread thread_;  // last member: joins before anything else dies
};

}  // namespace netseer::store
