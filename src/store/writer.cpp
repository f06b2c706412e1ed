#include "store/writer.h"

#include <algorithm>

namespace netseer::store {

GroupCommitWriter::GroupCommitWriter(WalWriter& wal, bool sync_every_batch,
                                     std::uint64_t initial_watermark, std::size_t queue_depth)
    : wal_(wal),
      sync_every_batch_(sync_every_batch),
      queue_depth_(queue_depth),
      watermark_(initial_watermark),
      appended_lsn_(initial_watermark) {
  pending_.reserve(queue_depth_);
  free_.reserve(queue_depth_);
  thread_ = std::thread([this] { run(); });
}

GroupCommitWriter::~GroupCommitWriter() {
  {
    util::CondMutexLock lock(mu_);
    stop_ = true;
    work_cv_.notify_one();
  }
  thread_.join();
}

void GroupCommitWriter::submit(std::vector<Row> batch) {
  if (batch.empty()) return;
  util::CondMutexLock lock(mu_);
  if (pending_.size() >= queue_depth_) {
    ++queue_full_waits_;
    while (pending_.size() >= queue_depth_) state_cv_.wait(lock);
  }
  pending_.push_back(std::move(batch));
  ++submitted_batches_;
  work_cv_.notify_one();
}

std::vector<Row> GroupCommitWriter::take_buffer() {
  util::CondMutexLock lock(mu_);
  if (free_.empty()) return {};
  std::vector<Row> buffer = std::move(free_.back());
  free_.pop_back();
  return buffer;
}

void GroupCommitWriter::drain() {
  util::CondMutexLock lock(mu_);
  while (appended_batches_ < submitted_batches_) state_cv_.wait(lock);
}

bool GroupCommitWriter::sync_to(std::uint64_t lsn) {
  // The one lock-free read: acquire pairs with commit_group's release
  // store, so the rows the watermark covers are on disk.
  if (watermark_.load(std::memory_order_acquire) >= lsn) return true;
  util::CondMutexLock lock(mu_);
  sync_goal_ = std::max(sync_goal_, lsn);
  work_cv_.notify_one();
  while (watermark_.load(std::memory_order_acquire) < lsn) {
    if (wal_.dead()) return false;
    state_cv_.wait(lock);
  }
  return true;
}

bool GroupCommitWriter::commit_group(std::size_t group_batches) {
  const bool fresh = appended_lsn_ > watermark_.load(std::memory_order_relaxed);
  const bool ok = !wal_.dead() && (!fresh || wal_.sync());
  util::CondMutexLock lock(mu_);
  if (ok && fresh) {
    watermark_.store(appended_lsn_, std::memory_order_release);
    ++groups_committed_;
    max_group_batches_ = std::max<std::uint64_t>(max_group_batches_, group_batches);
  }
  // A dead WAL can never meet an outstanding durability goal: abandon
  // it so the loop can sleep instead of spinning. sync_to waiters wake
  // and observe dead() themselves.
  if (!ok) sync_goal_ = watermark_.load(std::memory_order_relaxed);
  state_cv_.notify_all();
  return ok;
}

void GroupCommitWriter::run() {
  std::vector<std::vector<Row>> group;
  group.reserve(queue_depth_);
  for (;;) {
    bool sync_wanted = false;
    {
      util::CondMutexLock lock(mu_);
      while (pending_.empty() && !stop_ && !sync_pending()) work_cv_.wait(lock);
      if (pending_.empty() && stop_) return;
      group.swap(pending_);
      sync_wanted = sync_pending();
    }
    // Append and fsync outside the mutex: batches submitted meanwhile
    // collect in pending_ and become the next commit group — that is
    // the whole amortization.
    std::uint64_t failures = 0;
    for (std::vector<Row>& batch : group) {
      if (!wal_.dead() && wal_.append(batch)) {
        appended_lsn_ = batch.back().lsn;
      } else {
        ++failures;
      }
      if (sync_every_batch_) (void)commit_group(1);
      batch.clear();
    }
    {
      util::CondMutexLock lock(mu_);
      appended_batches_ += group.size();
      append_failures_ += failures;
      for (std::vector<Row>& batch : group) {
        if (free_.size() < queue_depth_) free_.push_back(std::move(batch));
      }
      state_cv_.notify_all();
    }
    // A round with nothing taken was woken by a sync goal alone.
    if (!sync_every_batch_ || sync_wanted) (void)commit_group(group.size());
    group.clear();
  }
}

}  // namespace netseer::store
