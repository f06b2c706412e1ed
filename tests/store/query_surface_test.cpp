// The unified query surface: EventQuery's fluent builder, the
// range-for QueryCursor, the generation counter that turns
// use-after-mutation into an abort instead of a read of freed rows, and
// the scatter-gather parallel path (which must emit exactly what the
// serial cursor emits, in the same order, because the merge is by
// segment LSN either way). QueryPool gets its own unit coverage at the
// bottom — every task runs exactly once per run(), across reuse and
// uneven task counts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "backend/event_store.h"
#include "core/event.h"
#include "store/executor.h"
#include "store/store.h"

namespace netseer::store {
namespace {

core::FlowEvent sample_event(std::uint64_t i) {
  std::uint64_t r = (i + 1) * 0x9E3779B97F4A7C15ull;
  r ^= r >> 31;
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, (r >> 8) & 7, 1),
                       packet::Ipv4Addr::from_octets(10, 1, 0, 2), 6,
                       static_cast<std::uint16_t>(1024 + (r & 63)), 443};
  auto ev = core::make_event(
      r % 4 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
      static_cast<util::NodeId>(r % 5), static_cast<util::SimTime>(i * 100));
  ev.counter = static_cast<std::uint16_t>(1 + (r % 7));
  return ev;
}

StoreOptions seeded_options(std::size_t segment_events = 128) {
  StoreOptions options;
  options.shard_batch = 16;
  options.segment_events = segment_events;
  return options;
}

void seed(FlowEventStore& fs, std::size_t events) {
  for (std::size_t i = 0; i < events; ++i) {
    const auto ev = sample_event(i);
    fs.add(ev, ev.detected_at + 10);
  }
  fs.flush();
}

TEST(QuerySurfaceTest, FluentBuilderComposesFilters) {
  FlowEventStore fs(seeded_options());
  seed(fs, 1000);
  // Builder and aggregate forms of the same query agree.
  backend::EventQuery aggregate;
  aggregate.type = core::EventType::kDrop;
  aggregate.switch_id = 2;
  aggregate.from = 10'000;
  aggregate.to = 70'000;
  const auto fluent = backend::EventQuery{}
                          .of_type(core::EventType::kDrop)
                          .for_switch(2)
                          .between(10'000, 70'000);
  EXPECT_EQ(fs.count(fluent), fs.count(aggregate));
  EXPECT_GT(fs.count(fluent), 0u);
  // between() is since()+until().
  const auto split = backend::EventQuery{}
                         .of_type(core::EventType::kDrop)
                         .for_switch(2)
                         .since(10'000)
                         .until(70'000);
  EXPECT_EQ(fs.count(split), fs.count(fluent));
}

TEST(QuerySurfaceTest, RangeForCursorVisitsEveryMatchInStoreOrder) {
  FlowEventStore fs(seeded_options());
  seed(fs, 600);
  const auto query = backend::EventQuery{}.of_type(core::EventType::kCongestion);
  const auto expected = fs.query(query);
  ASSERT_GT(expected.size(), 0u);

  std::vector<backend::StoredEvent> seen;
  auto cursor = fs.scan(query);
  for (const auto& stored : cursor) {
    seen.push_back(stored);
  }
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].event, expected[i].event) << "row " << i;
    EXPECT_EQ(seen[i].stored_at, expected[i].stored_at) << "row " << i;
  }
}

TEST(QuerySurfaceTest, CursorSeesUnflushedShardRows) {
  StoreOptions options;
  options.shard_batch = 64;  // larger than the adds below: rows stay in shards
  FlowEventStore fs(options);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto ev = sample_event(i);
    fs.add(ev, ev.detected_at);
  }
  auto cursor = fs.scan(backend::EventQuery{});
  std::size_t rows = 0;
  while (cursor.next() != nullptr) ++rows;
  EXPECT_EQ(rows, 10u);
}

TEST(QuerySurfaceDeathTest, MutationUnderACursorAbortsInsteadOfReadingFreedRows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlowEventStore fs(seeded_options());
  seed(fs, 300);
  EXPECT_DEATH(
      {
        auto cursor = fs.scan(backend::EventQuery{});
        (void)cursor.next();
        const auto ev = sample_event(9999);
        for (int i = 0; i < 64; ++i) fs.add(ev, ev.detected_at);  // forces a flush
        (void)cursor.next();
      },
      "used after store mutation");
}

TEST(QuerySurfaceTest, ParallelCursorMatchesSerialExactly) {
  FlowEventStore fs(seeded_options(64));  // small segments: many to scatter over
  seed(fs, 2000);
  fs.seal_active();
  const std::vector<backend::EventQuery> queries{
      backend::EventQuery{},
      backend::EventQuery{}.of_type(core::EventType::kDrop),
      backend::EventQuery{}.for_switch(3).between(5'000, 150'000),
      backend::EventQuery{}.for_flow(sample_event(7).flow),
      backend::EventQuery{}.between(190'000, 200'000),
  };
  for (const auto& query : queries) {
    const auto serial = fs.query(query);
    fs.set_query_threads(4);
    auto cursor = fs.scan(query);
    std::vector<backend::StoredEvent> parallel;
    while (const auto* stored = cursor.next()) parallel.push_back(*stored);
    fs.set_query_threads(1);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].event, serial[i].event) << "row " << i;
      EXPECT_EQ(parallel[i].stored_at, serial[i].stored_at) << "row " << i;
    }
  }
  // And the pool actually ran: cursors fanned out, tasks were dispatched.
  EXPECT_EQ(fs.stats().parallel_queries, queries.size());
  EXPECT_GT(fs.stats().parallel_tasks, 0u);
}

TEST(QuerySurfaceTest, DeprecatedWrappersAgreeWithScan) {
  FlowEventStore fs(seeded_options());
  seed(fs, 500);
  const auto query = backend::EventQuery{}.of_type(core::EventType::kDrop).since(1'000);
  auto cursor = fs.scan(query);
  std::size_t rows = 0;
  std::uint64_t counter_sum = 0;
  while (const auto* stored = cursor.next()) {
    ++rows;
    counter_sum += stored->event.counter;
  }
  EXPECT_EQ(fs.count(query), rows);
  EXPECT_EQ(fs.query(query).size(), rows);
  EXPECT_EQ(fs.total_counter(query), counter_sum);
}

TEST(QuerySurfaceTest, KeysSharingAChainBucketGetOnlyTheirOwnRows) {
  // Find a second flow and a second switch that land in the first ones'
  // buckets, probing an index sized like the memtable of the store below.
  constexpr std::size_t kRun = 64;
  const packet::FlowKey flow_a = sample_event(0).flow;
  const util::NodeId switch_a = 1;
  std::vector<Row> probe_rows;
  probe_rows.reserve(kRun);
  probe_rows.push_back(
      Row{backend::StoredEvent{core::make_event(core::EventType::kDrop, flow_a, switch_a, 0), 0},
          1});
  RowChains probe;
  probe.extend(probe_rows);
  packet::FlowKey flow_b = flow_a;
  do {
    ++flow_b.sport;
  } while (probe.flow_chain(flow_b).count == 0 && flow_b.sport != flow_a.sport);
  ASSERT_NE(flow_b, flow_a);
  util::NodeId switch_b = switch_a + 1;
  while (probe.switch_chain(switch_b).count == 0 && switch_b < 1u << 20u) ++switch_b;
  ASSERT_EQ(probe.switch_chain(switch_b).count, 1u);

  StoreOptions options;
  options.shard_batch = 1;  // LSN order = insertion order
  options.segment_events = kRun;
  FlowEventStore fs(options);
  std::vector<backend::StoredEvent> stored;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto ev = core::make_event(core::EventType::kDrop, i % 2 == 0 ? flow_a : flow_b,
                                     i % 3 == 0 ? switch_a : switch_b,
                                     static_cast<util::SimTime>(i * 10));
    fs.add(ev, ev.detected_at + 1);
    stored.push_back(backend::StoredEvent{ev, ev.detected_at + 1});
  }
  const std::vector<backend::EventQuery> queries{
      backend::EventQuery{}.for_flow(flow_a),
      backend::EventQuery{}.for_flow(flow_b),
      backend::EventQuery{}.for_switch(switch_a),
      backend::EventQuery{}.for_switch(switch_b),
      backend::EventQuery{}.for_flow(flow_b).for_switch(switch_a),
  };
  const auto expect_own_rows = [&](const std::string& state) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(state + ", query #" + std::to_string(q));
      std::vector<backend::StoredEvent> want;
      for (const auto& row : stored) {
        if (queries[q].matches(row)) want.push_back(row);
      }
      const auto got = fs.query(queries[q]);
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].event, want[i].event) << "row " << i;
      }
    }
  };
  ASSERT_EQ(fs.segment_count(), 0u);
  expect_own_rows("memtable");

  fs.seal_active();
  ASSERT_EQ(fs.segment_count(), 1u);
  // The segment kept the memtable's index, shared buckets and all.
  const RowChains& chains = fs.segments().front()->chains();
  EXPECT_EQ(chains.flow_chain(flow_a).head, chains.flow_chain(flow_b).head);
  EXPECT_EQ(chains.flow_chain(flow_a).count, 40u);
  EXPECT_EQ(chains.switch_chain(switch_a).count, 40u);
  expect_own_rows("segment");
}

TEST(QueryPoolTest, EveryTaskRunsExactlyOnce) {
  QueryPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  for (const std::size_t tasks : {0u, 1u, 3u, 17u, 256u}) {
    std::vector<std::atomic<int>> hits(tasks == 0 ? 1 : tasks);
    for (auto& h : hits) h.store(0);
    pool.run(tasks, [&](std::size_t task) { hits[task].fetch_add(1); });
    for (std::size_t i = 0; i < tasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " of " << tasks;
    }
  }
}

TEST(QueryPoolTest, SerialPoolSpawnsNoWorkers) {
  QueryPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::size_t sum = 0;
  pool.run(10, [&](std::size_t task) { sum += task; });  // caller-only: no data race
  EXPECT_EQ(sum, 45u);
}

TEST(QueryPoolTest, ReusableAcrossManyRuns) {
  QueryPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(8, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 400u);
}

}  // namespace
}  // namespace netseer::store
