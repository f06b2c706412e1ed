#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "store/format.h"
#include "store/wal.h"
#include "util/annotations.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace netseer::store {

/// Group-commit WAL writer: a background thread that takes every shard
/// batch submitted since its last round, appends them to the WAL, and
/// amortizes one fsync over the round. Acknowledgements are the
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
///   - every field both threads touch is guarded by mu_, except the
///     watermark, which is release-published after fsync and may be read
///     from any thread without the lock.
///
/// Batches go to the writer in pending_ and their emptied vectors come
/// back in free_, both reserved to the queue depth, so steady-state
/// ingest allocates nothing per batch. A full pending_ blocks submit()
/// (bounded memory), which is the only backpressure ingest ever sees —
/// and only when the disk cannot keep up with the event rate at all.
class GroupCommitWriter {
 public:
  /// `initial_watermark` seeds the durable LSN from recovery (rows
  /// replayed out of the WAL are on disk already). With
  /// `sync_every_batch`, every batch is its own commit group. At most
  /// `queue_depth` submitted batches wait for the writer thread.
  GroupCommitWriter(WalWriter& wal, bool sync_every_batch, std::uint64_t initial_watermark,
                    std::size_t queue_depth);
  ~GroupCommitWriter();

  GroupCommitWriter(const GroupCommitWriter&) = delete;
  GroupCommitWriter& operator=(const GroupCommitWriter&) = delete;

  /// Hand one shard batch (consecutive pre-assigned LSNs, ascending
  /// across calls) to the writer thread. Blocks only while `queue_depth`
  /// batches are pending. Producer thread only.
  void submit(std::vector<Row> batch) NETSEER_EXCLUDES(mu_);

  /// A recycled batch vector (capacity retained) or a fresh one.
  /// Producer thread only.
  [[nodiscard]] std::vector<Row> take_buffer() NETSEER_EXCLUDES(mu_);

  /// Wait until every batch submitted so far has been appended to the
  /// WAL (not necessarily fsynced) — the async equivalent of the old
  /// inline append, used by flush(). Producer thread only.
  void drain() NETSEER_EXCLUDES(mu_);

  /// Block until the durable watermark covers `lsn` (requesting an
  /// immediate commit of anything still buffered) or the WAL dies.
  /// Returns whether the watermark got there. Producer thread only.
  [[nodiscard]] bool sync_to(std::uint64_t lsn) NETSEER_EXCLUDES(mu_);

  /// Highest LSN guaranteed on stable storage. Any thread.
  [[nodiscard]] std::uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  // Counters for StoreStats (any thread).
  [[nodiscard]] std::uint64_t groups_committed() const NETSEER_EXCLUDES(mu_) {
    util::CondMutexLock lock(mu_);
    return groups_committed_;
  }
  [[nodiscard]] std::uint64_t batches_appended() const NETSEER_EXCLUDES(mu_) {
    util::CondMutexLock lock(mu_);
    return appended_batches_;
  }
  [[nodiscard]] std::uint64_t append_failures() const NETSEER_EXCLUDES(mu_) {
    util::CondMutexLock lock(mu_);
    return append_failures_;
  }
  [[nodiscard]] std::uint64_t max_group_batches() const NETSEER_EXCLUDES(mu_) {
    util::CondMutexLock lock(mu_);
    return max_group_batches_;
  }
  /// Times submit() found `queue_depth` batches pending and had to wait.
  [[nodiscard]] std::uint64_t queue_full_waits() const NETSEER_EXCLUDES(mu_) {
    util::CondMutexLock lock(mu_);
    return queue_full_waits_;
  }

 private:
  void run() NETSEER_EXCLUDES(mu_);
  /// fsync and publish the watermark; false once the WAL is dead.
  [[nodiscard]] NETSEER_BLOCKING bool commit_group(std::size_t group_batches)
      NETSEER_EXCLUDES(mu_);
  [[nodiscard]] bool sync_pending() const NETSEER_REQUIRES(mu_) {
    return sync_goal_ > watermark_.load(std::memory_order_relaxed);
  }

  WalWriter& wal_;
  const bool sync_every_batch_;
  const std::size_t queue_depth_;

  mutable util::CondMutex mu_;
  util::CondVar work_cv_;   // writer sleeps; producer signals work/stop
  util::CondVar state_cv_;  // producer sleeps; writer signals progress

  std::vector<std::vector<Row>> pending_ NETSEER_GUARDED_BY(mu_);  // submitted, not yet taken
  std::vector<std::vector<Row>> free_ NETSEER_GUARDED_BY(mu_);     // emptied batch vectors
  bool stop_ NETSEER_GUARDED_BY(mu_) = false;
  std::uint64_t sync_goal_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t submitted_batches_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t appended_batches_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t groups_committed_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t append_failures_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t max_group_batches_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t queue_full_waits_ NETSEER_GUARDED_BY(mu_) = 0;

  std::atomic<std::uint64_t> watermark_;

  /// Highest LSN successfully appended; writer thread only.
  std::uint64_t appended_lsn_;

  std::thread thread_;  // last member: joins before anything else dies
};

}  // namespace netseer::store
