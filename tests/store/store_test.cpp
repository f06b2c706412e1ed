#include "store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/event.h"
#include "scan_rows.h"
#include "sim/simulator.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

core::FlowEvent event_at(std::uint64_t i, util::NodeId node = 1,
                         core::EventType type = core::EventType::kDrop) {
  auto ev = core::make_event(type,
                             packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                             packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                                             static_cast<std::uint16_t>(1024 + i % 512), 80},
                             node, static_cast<util::SimTime>(i * 10));
  return ev;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the case name: ctest runs each case as its own process,
    // possibly in parallel with siblings.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("netseer_store_test.") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(StoreTest, QueryAnswersAcrossShardsMemtableAndSegments) {
  StoreOptions options;
  options.shard_batch = 4;
  options.segment_events = 16;
  FlowEventStore store(options);
  // 100 events spread over 5 switches: some sealed, some in the
  // memtable, some still sitting in shard buffers.
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto ev = event_at(i, static_cast<util::NodeId>(i % 5));
    store.add(ev, ev.detected_at + 1);
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_GT(store.segment_count(), 0u);

  backend::EventQuery by_switch;
  by_switch.switch_id = 2;
  EXPECT_EQ(scan_rows(store, by_switch).size(), 20u);

  backend::EventQuery window;
  window.from = 100;
  window.to = 300;  // detected_at 100..290 -> i in [10, 30)
  EXPECT_EQ(scan_rows(store, window).size(), 20u);

  // A full scan returns rows in LSN order — shard batching interleaves
  // detection times — but every ingested event appears exactly once.
  auto all = scan_rows(store);
  ASSERT_EQ(all.size(), 100u);
  std::vector<util::SimTime> times;
  times.reserve(all.size());
  for (const auto& stored : all) times.push_back(stored.event.detected_at);
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], static_cast<util::SimTime>(i * 10));
  }
}

TEST_F(StoreTest, SealAndCompactPreserveQueryResults) {
  StoreOptions options;
  options.segment_events = 8;
  options.compact_min_segments = 2;
  options.compact_fanin = 4;
  FlowEventStore store(options);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto ev = event_at(i, static_cast<util::NodeId>(i % 3),
                             i % 4 == 0 ? core::EventType::kCongestion
                                        : core::EventType::kDrop);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();

  backend::EventQuery congestion;
  congestion.type = core::EventType::kCongestion;
  const auto before = scan_rows(store, congestion);
  const auto segments_before = store.segment_count();

  EXPECT_GT(store.compact(), 0u);
  EXPECT_LT(store.segment_count(), segments_before);
  EXPECT_GT(store.stats().compactions, 0u);

  const auto after = scan_rows(store, congestion);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].event, before[i].event);
  }
  EXPECT_EQ(store.size(), 200u);
}

TEST_F(StoreTest, RetentionEvictsOldestSegmentsAndCounts) {
  StoreOptions options;
  options.shard_batch = 10;  // seal per batch: ten 10-row segments
  options.segment_events = 10;
  options.retain_events = 30;
  FlowEventStore store(options);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();
  EXPECT_GT(store.enforce_retention(), 0u);
  EXPECT_GT(store.stats().segments_evicted, 0u);
  EXPECT_GT(store.stats().events_evicted, 0u);
  // Only recent rows survive; the oldest event is gone.
  backend::EventQuery oldest;
  oldest.to = 10;  // the first event only (detected_at 0)
  EXPECT_EQ(scan_rows(store, oldest).size(), 0u);
  const auto all = scan_rows(store);
  ASSERT_FALSE(all.empty());
  EXPECT_LE(all.size(), 30u + options.segment_events);
  // Survivors are the newest suffix.
  EXPECT_EQ(all.back().event.detected_at, 990);
}

TEST_F(StoreTest, MaintenanceRunsOnSimulatorClock) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 8;
  options.compact_min_segments = 2;
  FlowEventStore store(options);
  sim::Simulator sim;
  auto handle = store.start_maintenance(sim, util::microseconds(10));
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  const auto segments_before = store.segment_count();
  sim.run_until(util::microseconds(50));
  handle.cancel();
  sim.run();
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_LT(store.segment_count(), segments_before);
}

TEST_F(StoreTest, CheckpointReopenRoundTrip) {
  backend::EventQuery congestion;
  congestion.type = core::EventType::kCongestion;
  std::vector<backend::StoredEvent> expected;
  {
    StoreOptions options;
    options.dir = dir_;
    options.segment_events = 32;
    FlowEventStore store(options);
    for (std::uint64_t i = 0; i < 500; ++i) {
      const auto ev = event_at(i, static_cast<util::NodeId>(i % 7),
                               i % 3 == 0 ? core::EventType::kCongestion
                                          : core::EventType::kPause);
      store.add(ev, ev.detected_at + 2);
    }
    store.checkpoint();
    expected = scan_rows(store, congestion);
    EXPECT_EQ(store.size(), 500u);
    // Checkpoint sealed everything into durable segments and reclaimed
    // the WAL files they made obsolete.
    EXPECT_GT(store.stats().wal_files_deleted, 0u);
  }
  {
    StoreOptions options;
    options.dir = dir_;
    FlowEventStore store(options);
    EXPECT_TRUE(store.recovery().ran);
    EXPECT_FALSE(store.recovery().torn_tail);
    EXPECT_EQ(store.size(), 500u);
    EXPECT_EQ(store.recovery().segment_rows, 500u);
    EXPECT_EQ(store.recovery().wal_rows_replayed, 0u);
    const auto got = scan_rows(store, congestion);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].event, expected[i].event);
      EXPECT_EQ(got[i].stored_at, expected[i].stored_at);
    }
  }
}

TEST_F(StoreTest, ReopenWithoutCheckpointReplaysWal) {
  {
    StoreOptions options;
    options.dir = dir_;
    options.segment_events = 1u << 20u;  // nothing seals: rows live in the WAL
    FlowEventStore store(options);
    for (std::uint64_t i = 0; i < 50; ++i) {
      const auto ev = event_at(i);
      store.add(ev, ev.detected_at);
    }
    store.flush();
    ASSERT_TRUE(store.sync());
    EXPECT_EQ(store.durable_lsn(), 50u);
    // No checkpoint: destructor closes the WAL, segments were never
    // written, so reopen must recover everything from the log.
  }
  {
    StoreOptions options;
    options.dir = dir_;
    FlowEventStore store(options);
    EXPECT_EQ(store.recovery().wal_rows_replayed, 50u);
    EXPECT_EQ(store.recovery().segments_loaded, 0u);
    EXPECT_EQ(store.size(), 50u);
  }
}

TEST_F(StoreTest, OpeningACheckpointedStoreLeavesItsFilesAsTheyWere) {
  StoreOptions options;
  options.dir = dir_;
  options.segment_events = 64;
  {
    FlowEventStore store(options);
    for (std::uint64_t i = 0; i < 300; ++i) {
      const auto ev = event_at(i);
      store.add(ev, ev.detected_at);
    }
    store.checkpoint();
  }
  const auto listing = [&] {
    std::vector<std::pair<std::string, std::uint64_t>> files;
    for (const auto& ref : list_wal_files(dir_)) files.emplace_back(ref.path, ref.bytes);
    for (const auto& ref : list_segment_files(dir_)) {
      files.emplace_back(ref.path, fs::file_size(ref.path));
    }
    return files;
  };
  const auto before = listing();
  ASSERT_FALSE(before.empty());
  // What inspect, query and tail do: open, read, close without appending.
  for (int open = 0; open < 3; ++open) {
    FlowEventStore store(options);
    EXPECT_EQ(scan_rows(store).size(), 300u);
  }
  EXPECT_EQ(listing(), before);
}

TEST_F(StoreTest, RecoveryDropsSegmentsSupersededByCompactionOutput) {
  // Simulate a crash between compact()'s rename and its input deletes:
  // the merged output and both of its inputs are all on disk.
  fs::create_directories(dir_);
  std::vector<Row> first, second, merged;
  for (std::uint64_t lsn = 1; lsn <= 8; ++lsn) {
    const Row r{backend::StoredEvent{event_at(lsn), static_cast<util::SimTime>(lsn * 10 + 1)},
                lsn};
    (lsn <= 4 ? first : second).push_back(r);
    merged.push_back(r);
  }
  ASSERT_TRUE(Segment::build(first).save(segment_path(dir_, 1)));
  ASSERT_TRUE(Segment::build(second).save(segment_path(dir_, 2)));
  ASSERT_TRUE(Segment::build(merged).save(segment_path(dir_, 3)));

  StoreOptions options;
  options.dir = dir_;
  FlowEventStore store(options);
  EXPECT_EQ(store.recovery().segments_superseded, 2u);
  EXPECT_EQ(store.recovery().segments_loaded, 1u);
  EXPECT_EQ(store.recovery().segment_rows, 8u);

  // No duplicated rows, and the stale input files are gone from disk.
  const auto rows = scan_rows(store);
  ASSERT_EQ(rows.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rows[i].event, merged[i].stored.event) << "row " << i;
  }
  const auto files = list_segment_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].index, 3u);
}

TEST_F(StoreTest, RecoveryKeepsNewerOfIdenticalRangeSegments) {
  // A compaction whose output covers exactly the same LSN range as a
  // single surviving input (fanin collapsed by earlier eviction): the
  // newer file id is the output and wins; exactly one copy survives.
  fs::create_directories(dir_);
  std::vector<Row> rows;
  for (std::uint64_t lsn = 1; lsn <= 4; ++lsn) {
    rows.push_back(
        Row{backend::StoredEvent{event_at(lsn), static_cast<util::SimTime>(lsn * 10 + 1)}, lsn});
  }
  ASSERT_TRUE(Segment::build(rows).save(segment_path(dir_, 1)));
  ASSERT_TRUE(Segment::build(rows).save(segment_path(dir_, 2)));

  StoreOptions options;
  options.dir = dir_;
  FlowEventStore store(options);
  EXPECT_EQ(store.recovery().segments_superseded, 1u);
  EXPECT_EQ(store.size(), 4u);
  const auto files = list_segment_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].index, 2u);
}

TEST_F(StoreTest, CursorStreamsInOrderAndCountsPruning) {
  StoreOptions options;
  options.shard_batch = 16;
  options.segment_events = 16;
  FlowEventStore store(options);
  for (std::uint64_t i = 0; i < 160; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();
  ASSERT_GE(store.segment_count(), 10u);

  backend::EventQuery window;
  window.from = 200;
  window.to = 400;  // covers ~2 of 10 segments
  const auto pruned_before = store.stats().segments_pruned;
  auto cursor = store.scan(window);
  std::size_t n = 0;
  util::SimTime last = -1;
  for (const auto* stored = cursor.next(); stored != nullptr; stored = cursor.next()) {
    EXPECT_GE(stored->event.detected_at, 200);
    EXPECT_LT(stored->event.detected_at, 400);
    EXPECT_GT(stored->event.detected_at, last);
    last = stored->event.detected_at;
    ++n;
  }
  EXPECT_EQ(n, 20u);
  EXPECT_GT(store.stats().segments_pruned, pruned_before);
}

TEST_F(StoreTest, TypeCountPrunesSegmentsWithoutThatType) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 8;
  FlowEventStore store(options);
  // First 80 events are drops, last 8 are pauses: only the last segment
  // can contain pauses, the rest prune on the per-type count.
  for (std::uint64_t i = 0; i < 88; ++i) {
    const auto ev =
        event_at(i, 1, i < 80 ? core::EventType::kDrop : core::EventType::kPause);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();
  const auto pruned_before = store.stats().segments_pruned;
  backend::EventQuery pauses;
  pauses.type = core::EventType::kPause;
  EXPECT_EQ(scan_rows(store, pauses).size(), 8u);
  EXPECT_GE(store.stats().segments_pruned - pruned_before, 9u);
}

TEST_F(StoreTest, ParseQueryAcceptsFullSpecAndRejectsGarbage) {
  std::string error;
  const auto query =
      parse_query("type=congestion,switch=7,from=100,to=2000", &error);
  ASSERT_TRUE(query.has_value()) << error;
  EXPECT_EQ(query->type, core::EventType::kCongestion);
  EXPECT_EQ(query->switch_id, 7u);
  EXPECT_EQ(query->from, 100);
  EXPECT_EQ(query->to, 2000);

  const auto flow = parse_query("flow=10.0.0.1:1234>10.0.0.2:80/6", &error);
  ASSERT_TRUE(flow.has_value()) << error;
  ASSERT_TRUE(flow->flow.has_value());
  EXPECT_EQ(flow->flow->sport, 1234);
  EXPECT_EQ(flow->flow->dport, 80);
  EXPECT_EQ(flow->flow->proto, 6);

  EXPECT_FALSE(parse_query("type=banana", &error).has_value());
  EXPECT_FALSE(parse_query("nonsense", &error).has_value());
  EXPECT_FALSE(parse_query("from=abc", &error).has_value());
}

// A number must be the whole term and fit its field: a switch id past 32
// bits is an error, not the switch it wraps around to.
TEST_F(StoreTest, ParseQueryRejectsNumbersThatDoNotFit) {
  std::string error;
  EXPECT_FALSE(parse_query("switch=4294967297", &error).has_value());
  EXPECT_EQ(error, "bad switch id");
  EXPECT_FALSE(parse_query("switch=-1", &error).has_value());
  EXPECT_FALSE(parse_query("switch=7x", &error).has_value());
  EXPECT_FALSE(parse_query("to=9223372036854775808", &error).has_value());
  EXPECT_FALSE(parse_query("flow=10.0.0.1:65536>10.0.0.2:80/6", &error).has_value());
  EXPECT_FALSE(parse_query("flow=10.0.0.1:1234>10.0.0.2:80/256", &error).has_value());

  const auto widest = parse_query("switch=4294967295,from=-5", &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_EQ(widest->switch_id, 4294967295u);
  EXPECT_EQ(widest->from, -5);
}

TEST_F(StoreTest, WalDeathKeepsStoreServingFromMemory) {
  StoreOptions options;
  options.dir = dir_;
  options.shard_batch = 4;
  FlowEventStore store(options);
  store.crash_after_wal_bytes(64);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  EXPECT_TRUE(store.wal_dead());
  EXPECT_GT(store.stats().wal_append_failures, 0u);
  // Ingest and queries keep working in memory.
  EXPECT_EQ(store.size(), 40u);
  backend::EventQuery any;
  EXPECT_EQ(scan_rows(store, any).size(), 40u);
}

}  // namespace
}  // namespace netseer::store
