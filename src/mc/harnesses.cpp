#include "mc/harnesses.h"

#include <array>

namespace netseer::mc {
namespace {

// ---------------------------------------------------------------------------
// Group-commit writer / subscription miniatures
// ---------------------------------------------------------------------------

/// Miniature of store::GroupCommitWriter's hand-off and acknowledgement
/// protocol. The ingest thread appends LSN'd batches to a pending list
/// under the writer's mutex and bumps a relaxed counter that stands in
/// for the condition-variable wake-up (a notify orders nothing; the
/// mutex does). Each round the writer takes the whole list under the
/// mutex, appends it to a WAL image (plain cells, race-instrumented)
/// outside the lock, then publishes the durable watermark under the
/// lock — one commit group per round. The ingest thread then waits for
/// the watermark WITHOUT the lock, as sync_to()'s fast path does, and
/// reads every row the watermark covers.
///
/// With `release_watermark` the publish is a release store, and every
/// schedule must leave those reads race-free, complete, and in LSN
/// order. With it relaxed (the seeded bug) nothing orders the writer's
/// last WAL append before the syncing reader — the checker must catch
/// the data race on a WAL cell. (Had the reader taken the mutex, the
/// unlock after the publish would order the cells and hide the bug.)
Result group_commit_run(const Options& options, bool release_watermark) {
  return explore(options, [&] {
    constexpr int kBatches = 3;  // rounds taking one batch and several both occur
    Mutex mu;
    std::array<int, kBatches> pending{};  // guarded by mu
    int pending_count = 0;                // guarded by mu
    Atomic<int> submitted{0};             // the work_cv_ wake-up
    std::array<int, kBatches + 1> wal{};
    Atomic<int> watermark{0};
    Thread writer = spawn([&] {
      int taken = 0;
      while (taken < kBatches) {
        await([&] { return submitted.load(std::memory_order_relaxed) > taken; });
        std::array<int, kBatches> group{};
        int n = 0;
        {
          MutexLock lock(mu);
          race_read(&pending_count, "group_commit::pending_count");
          n = pending_count;
          for (int i = 0; i < n; ++i) {
            race_read(&pending[i], "group_commit::pending[i]");
            group[i] = pending[i];
          }
          race_write(&pending_count, "group_commit::pending_count");
          pending_count = 0;
        }
        for (int i = 0; i < n; ++i) {  // appends outside the lock
          race_write(&wal[group[i]], "group_commit::wal[lsn]");
          wal[group[i]] = group[i] * 10;
        }
        taken += n;
        MutexLock lock(mu);  // the group "fsync" succeeded: publish
        watermark.store(group[n - 1], release_watermark ? std::memory_order_release
                                                        : std::memory_order_relaxed);
      }
    });
    Thread ingest = spawn([&] {
      for (int lsn = 1; lsn <= kBatches; ++lsn) {
        MutexLock lock(mu);
        race_read(&pending_count, "group_commit::pending_count");
        race_write(&pending[pending_count], "group_commit::pending[i]");
        pending[pending_count] = lsn;
        race_write(&pending_count, "group_commit::pending_count");
        ++pending_count;
        submitted.store(lsn, std::memory_order_relaxed);
      }
      // sync_to(kBatches): the watermark is the only acknowledgement.
      await([&] { return watermark.load(std::memory_order_acquire) >= kBatches; });
      for (int lsn = 1; lsn <= kBatches; ++lsn) {
        race_read(&wal[lsn], "group_commit::wal[lsn]");
        MC_ASSERT(wal[lsn] == lsn * 10);  // acked rows are readable, in order
      }
    });
    writer.join();
    ingest.join();
    MC_ASSERT(pending_count == 0);
  });
}

/// Miniature of store::Subscription tailing the durable watermark: the
/// store thread appends rows and release-publishes the watermark in two
/// commit groups; the subscriber polls, delivering every row with
/// cursor < LSN <= watermark. Every schedule must deliver each row
/// exactly once, in LSN order, with the row contents visible (the
/// acquire load of the watermark is the only synchronization).
Result subscription_tail(const Options& options) {
  return explore(options, [] {
    constexpr int kRows = 3;
    std::array<int, kRows + 1> rows{};
    Atomic<int> watermark{0};
    Thread store = spawn([&] {
      for (int lsn = 1; lsn <= kRows; ++lsn) {
        race_write(&rows[lsn], "subscription::rows[lsn]");
        rows[lsn] = lsn * 10;
        // Two groups: rows 1-2 commit together, row 3 alone.
        if (lsn == 2 || lsn == kRows) watermark.store(lsn, std::memory_order_release);
      }
    });
    Thread subscriber = spawn([&] {
      int cursor = 0;
      std::array<bool, kRows + 1> seen{};
      while (cursor < kRows) {
        const int durable = watermark.load(std::memory_order_acquire);
        while (cursor < durable) {
          ++cursor;
          race_read(&rows[cursor], "subscription::rows[lsn]");
          MC_ASSERT(rows[cursor] == cursor * 10);
          MC_ASSERT(!seen[cursor]);  // exactly once
          seen[cursor] = true;
        }
        if (cursor < kRows) {
          await([&] { return watermark.load(std::memory_order_acquire) > cursor; });
        }
      }
      for (int lsn = 1; lsn <= kRows; ++lsn) MC_ASSERT(seen[lsn]);
    });
    store.join();
    subscriber.join();
  });
}

}  // namespace

const std::vector<Harness>& all_harnesses() {
  static const std::vector<Harness> harnesses = [] {
    std::vector<Harness> all;
    all.push_back(Harness{
        "group_commit_watermark",
        "group-commit hand-off under the writer's mutex: a release-published durable "
        "watermark makes synced WAL rows readable in every schedule",
        /*expect_failure=*/false, Options{},
        [](const Options& o) { return group_commit_run(o, /*release_watermark=*/true); }});
    all.push_back(Harness{
        "group_commit_seeded_relaxed",
        "seeded bug: a relaxed watermark publish must be caught as a WAL-cell data race",
        /*expect_failure=*/true, Options{},
        [](const Options& o) { return group_commit_run(o, /*release_watermark=*/false); }});
    all.push_back(Harness{"subscription_tail",
                          "subscription tailing the watermark: exactly-once, in-order, "
                          "race-free delivery in every schedule",
                          /*expect_failure=*/false, Options{}, subscription_tail});
    return all;
  }();
  return harnesses;
}

}  // namespace netseer::mc
