// Crash-recovery property test: tear the WAL at arbitrary byte offsets
// via the store's fault-injection hook, reopen the directory, and check
// the recovery invariants against an identical in-memory control run:
//
//   1. recovered rows are exactly a prefix of the control's flushed
//      sequence (no holes, no duplicates, no reordering, no torn rows),
//   2. every event acknowledged by a successful sync() before the crash
//      is present (durability of the fsync point),
//   3. ingest keeps working in memory after the WAL dies.
#include <gtest/gtest.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "scan_rows.h"
#include "store/store.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kEvents = 400;
constexpr std::size_t kSyncEvery = 50;

// Deterministic mixed workload: several switches (so shard batching
// reorders relative to add order), a few hundred flows, two types.
core::FlowEvent workload_event(std::uint64_t i) {
  std::uint64_t r = (i + 1) * 6364136223846793005ull;
  r ^= r >> 29;
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, (r >> 8) & 255, 1),
                       packet::Ipv4Addr::from_octets(10, 1, 2, 3), 17,
                       static_cast<std::uint16_t>(1024 + (r & 255)), 53};
  auto ev = core::make_event(
      r % 3 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
      static_cast<util::NodeId>(r % 6), static_cast<util::SimTime>(i * 10));
  ev.counter = static_cast<std::uint16_t>(1 + (r % 9));
  return ev;
}

StoreOptions small_options(const std::string& dir) {
  StoreOptions options;
  options.dir = dir;
  options.shard_batch = 8;
  options.segment_events = 64;
  options.wal_segment_bytes = 4096;  // several WAL files per run
  return options;
}

// Run the workload against `store`, syncing every kSyncEvery adds.
// Returns how many events had been added at the last successful sync —
// the acknowledged set the crash must not lose.
std::uint64_t run_workload(FlowEventStore& store) {
  std::uint64_t acked = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto ev = workload_event(i);
    store.add(ev, ev.detected_at + 3);
    if ((i + 1) % kSyncEvery == 0 && store.sync()) acked = i + 1;
  }
  store.flush();
  return acked;
}

TEST(WalCrashProperty, RecoveredRowsArePrefixOfAcknowledgedStream) {
  const auto dir = (fs::temp_directory_path() / "netseer_wal_crash_test").string();

  // Control: the same workload fully in memory. Its full-scan order is the
  // canonical LSN order — flush points depend only on the add sequence
  // and shard_batch, which the crashed runs share.
  StoreOptions mem = small_options("");
  mem.dir.clear();
  FlowEventStore control(mem);
  run_workload(control);
  const auto reference = scan_rows(control);
  ASSERT_EQ(reference.size(), kEvents);

  // Measure a clean durable run to size the crash sweep.
  fs::remove_all(dir);
  std::uint64_t total_wal_bytes = 0;
  {
    FlowEventStore clean(small_options(dir));
    run_workload(clean);
    total_wal_bytes = clean.stats().wal_bytes;
  }
  fs::remove_all(dir);
  ASSERT_GT(total_wal_bytes, 0u);

  // Sweep tears across the whole log, plus awkward offsets: before any
  // bytes, inside the file header, and inside the first record header.
  std::vector<std::uint64_t> budgets{0, 3, 8, 15, 20, 27};
  for (int i = 1; i <= 24; ++i) {
    budgets.push_back(total_wal_bytes * static_cast<std::uint64_t>(i) / 25);
  }
  budgets.push_back(total_wal_bytes + 1000);  // no tear: clean shutdown path

  for (const std::uint64_t budget : budgets) {
    SCOPED_TRACE("wal byte budget " + std::to_string(budget));
    fs::remove_all(dir);
    std::uint64_t acked = 0;
    {
      FlowEventStore store(small_options(dir));
      store.crash_after_wal_bytes(budget);
      acked = run_workload(store);
      // Whatever happens to the disk, the in-memory view stays whole.
      EXPECT_EQ(store.size(), kEvents);
    }

    FlowEventStore recovered(small_options(dir));
    EXPECT_TRUE(recovered.recovery().ran);
    const auto rows = scan_rows(recovered);

    // (2) Nothing acknowledged before the crash may be missing.
    EXPECT_GE(rows.size(), acked);
    // (1) Exactly a prefix of the control sequence: same events, same
    // stored_at, same order — which also rules out duplicates and any
    // row materialised from a torn record.
    ASSERT_LE(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].event, reference[i].event) << "row " << i;
      ASSERT_EQ(rows[i].stored_at, reference[i].stored_at) << "row " << i;
    }

    // (3) The recovered store ingests and serves new events.
    const auto extra = workload_event(kEvents);
    recovered.add(extra, extra.detected_at);
    recovered.flush();
    EXPECT_EQ(recovered.size(), rows.size() + 1);
  }
  fs::remove_all(dir);
}

// Regression for the crash→recover→write+sync→reopen cycle: the torn
// wal-N left behind by the first crash must neither shadow the rows a
// recovered writer acknowledged into wal-N+1, nor cause the next
// incarnation to truncate wal-N+1 by reusing its index.
TEST(WalCrashProperty, AcknowledgedRowsSurviveRepeatedCrashRecoverCycles) {
  const auto dir = (fs::temp_directory_path() / "netseer_wal_crash_cycles_test").string();
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{27}, std::uint64_t{900},
                                     std::uint64_t{4000}, std::uint64_t{9000}}) {
    SCOPED_TRACE("cycle-1 wal byte budget " + std::to_string(budget));
    fs::remove_all(dir);

    // Cycle 1: tear the WAL partway through the workload.
    {
      FlowEventStore store(small_options(dir));
      store.crash_after_wal_bytes(budget);
      run_workload(store);
    }

    // Cycle 2: recover, ingest more, sync, and shut down cleanly —
    // everything this store holds is acknowledged durable.
    std::vector<backend::StoredEvent> expected;
    {
      FlowEventStore store(small_options(dir));
      EXPECT_TRUE(store.recovery().ran);
      for (std::uint64_t i = 0; i < 100; ++i) {
        const auto ev = workload_event(kEvents + i);
        store.add(ev, ev.detected_at + 3);
      }
      store.flush();
      ASSERT_TRUE(store.sync());
      expected = scan_rows(store);
    }

    // Cycle 3: every acknowledged row comes back, exactly once, in order.
    FlowEventStore recovered(small_options(dir));
    EXPECT_FALSE(recovered.recovery().torn_tail) << "cycle-2 repair did not stick";
    const auto rows = scan_rows(recovered);
    ASSERT_EQ(rows.size(), expected.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].event, expected[i].event) << "row " << i;
      ASSERT_EQ(rows[i].stored_at, expected[i].stored_at) << "row " << i;
    }
  }
  fs::remove_all(dir);
}

// Same shape, but the second incarnation crashes too: recovery after a
// double tear must still hold the second cycle's fsync point.
TEST(WalCrashProperty, SecondCrashStillKeepsItsOwnFsyncPoint) {
  const auto dir = (fs::temp_directory_path() / "netseer_wal_crash_double_test").string();
  fs::remove_all(dir);
  {
    FlowEventStore store(small_options(dir));
    store.crash_after_wal_bytes(5000);
    run_workload(store);
  }
  std::uint64_t baseline = 0;   // rows recovered from cycle 1
  std::uint64_t acked = 0;      // rows acknowledged before cycle 2's tear
  {
    FlowEventStore store(small_options(dir));
    baseline = store.size();
    store.crash_after_wal_bytes(3000);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto ev = workload_event(kEvents + i);
      store.add(ev, ev.detected_at + 3);
      if ((i + 1) % kSyncEvery == 0 && store.sync()) acked = i + 1;
    }
    store.flush();
  }
  FlowEventStore recovered(small_options(dir));
  // No row recovered the first time may vanish, and nothing cycle 2
  // acknowledged before its own tear may be lost either.
  EXPECT_GE(recovered.size(), baseline + acked);
  fs::remove_all(dir);
}

// Group-commit sweep: ingest through the batch-first API with
// watermark-only acks — no inline fsync at all, sync() only every few
// chunks — and tear the WAL at offsets across the whole log, so tears
// land inside open fsync groups spanning several shard batches. The
// recovery invariants are the same as the inline sweep's: recovered
// rows are exactly a prefix of the control stream, and nothing inside
// the watermark observed at the last successful sync() may be lost.
TEST(WalCrashProperty, GroupCommitTearsKeepEveryWatermarkedRow) {
  const auto dir = (fs::temp_directory_path() / "netseer_wal_crash_gc_test").string();
  constexpr std::size_t kChunk = 32;

  const auto run_batched = [&](FlowEventStore& store, std::uint64_t* acked) {
    std::vector<core::FlowEvent> chunk;
    std::uint64_t synced = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      chunk.push_back(workload_event(i));
      if (chunk.size() == kChunk) {
        store.add_batch(std::span<const core::FlowEvent>{chunk.data(), chunk.size()},
                        chunk.back().detected_at + 3);
        chunk.clear();
        if (++synced % 4 == 0 && store.sync()) *acked = store.durable_watermark();
      }
    }
    if (!chunk.empty()) {
      store.add_batch(std::span<const core::FlowEvent>{chunk.data(), chunk.size()},
                      chunk.back().detected_at + 3);
    }
    store.flush();
  };

  // Control: identical batched stream fully in memory — its full-scan order
  // is the canonical LSN order for every crashed run below.
  StoreOptions mem = small_options("");
  mem.dir.clear();
  FlowEventStore control(mem);
  std::uint64_t ignored = 0;
  run_batched(control, &ignored);
  const auto reference = scan_rows(control);
  ASSERT_EQ(reference.size(), kEvents);

  fs::remove_all(dir);
  std::uint64_t total_wal_bytes = 0;
  {
    FlowEventStore clean(small_options(dir));
    std::uint64_t acked = 0;
    run_batched(clean, &acked);
    ASSERT_TRUE(clean.sync());
    total_wal_bytes = clean.stats().wal_bytes;
  }
  fs::remove_all(dir);
  ASSERT_GT(total_wal_bytes, 0u);

  std::vector<std::uint64_t> budgets{0, 3, 8, 15, 20, 27};
  for (int i = 1; i <= 16; ++i) {
    budgets.push_back(total_wal_bytes * static_cast<std::uint64_t>(i) / 17);
  }
  budgets.push_back(total_wal_bytes + 1000);  // no tear: clean shutdown path

  for (const std::uint64_t budget : budgets) {
    SCOPED_TRACE("wal byte budget " + std::to_string(budget));
    fs::remove_all(dir);
    std::uint64_t acked = 0;
    {
      FlowEventStore store(small_options(dir));
      store.crash_after_wal_bytes(budget);
      run_batched(store, &acked);
      EXPECT_EQ(store.size(), kEvents);  // in-memory view survives the dead WAL
    }

    FlowEventStore recovered(small_options(dir));
    EXPECT_TRUE(recovered.recovery().ran);
    const auto rows = scan_rows(recovered);

    // Durability of the watermark: every row sync() acknowledged exists.
    EXPECT_GE(rows.size(), acked);
    // Prefix property: no holes, duplicates, reordering, or torn rows.
    ASSERT_LE(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].event, reference[i].event) << "row " << i;
      ASSERT_EQ(rows[i].stored_at, reference[i].stored_at) << "row " << i;
    }
  }
  fs::remove_all(dir);
}

TEST(WalCrashProperty, SyncEveryBatchShrinksTheLossWindowToZero) {
  const auto dir = (fs::temp_directory_path() / "netseer_wal_crash_sync_test").string();
  fs::remove_all(dir);
  auto options = small_options(dir);
  options.sync_every_batch = true;
  std::uint64_t flushed = 0;
  {
    FlowEventStore store(options);
    // Tear mid-log; with per-batch fsync every *flushed* batch is
    // already acknowledged, so recovery must keep every complete record.
    store.crash_after_wal_bytes(6000);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto ev = workload_event(i);
      store.add(ev, ev.detected_at);
      if (!store.wal_dead()) flushed = store.durable_lsn();
    }
  }
  FlowEventStore recovered(small_options(dir));
  EXPECT_GE(recovered.size(), flushed);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace netseer::store
