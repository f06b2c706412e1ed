// The query surface: EventQuery's fluent builder, the range-for
// QueryCursor, the generation counter that turns use-after-mutation into
// an abort instead of a read of freed rows, and the row-chain walks that
// must return only the rows of the key a query names.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "backend/event_query.h"
#include "core/event.h"
#include "scan_rows.h"
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
  EXPECT_EQ(scan_rows(fs, fluent).size(), scan_rows(fs, aggregate).size());
  EXPECT_GT(scan_rows(fs, fluent).size(), 0u);
  // between() is since()+until().
  const auto split = backend::EventQuery{}
                         .of_type(core::EventType::kDrop)
                         .for_switch(2)
                         .since(10'000)
                         .until(70'000);
  EXPECT_EQ(scan_rows(fs, split).size(), scan_rows(fs, fluent).size());
}

TEST(QuerySurfaceTest, RangeForCursorVisitsEveryMatchInStoreOrder) {
  FlowEventStore fs(seeded_options());
  seed(fs, 600);
  const auto query = backend::EventQuery{}.of_type(core::EventType::kCongestion);
  // The type chain's walk against a full walk filtered by hand.
  std::vector<backend::StoredEvent> expected;
  for (const auto& stored : scan_rows(fs)) {
    if (query.matches(stored)) expected.push_back(stored);
  }
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

std::size_t thread_count() {
  std::size_t threads = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++threads;
  }
  return threads;
}

TEST(QuerySurfaceTest, QueryThreadsOptionStartsNoThreads) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
  const std::size_t before = thread_count();
  StoreOptions options = seeded_options();
  options.query_threads = 8;  // ignored: every scan walks on the caller's thread
  FlowEventStore fs(options);
  seed(fs, 500);
  EXPECT_EQ(scan_rows(fs).size(), 500u);
  EXPECT_EQ(thread_count(), before);
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
      const auto got = scan_rows(fs, queries[q]);
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

}  // namespace
}  // namespace netseer::store
