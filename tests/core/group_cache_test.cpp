#include "core/group_cache.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace netseer::core {
namespace {

packet::FlowKey flow(std::uint16_t sport) {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, sport, 80};
}

FlowEvent drop_event(std::uint16_t sport) {
  return make_event(EventType::kDrop, flow(sport), 1, 0);
}

struct Collector {
  std::vector<FlowEvent> events;
  auto fn() {
    return [this](const FlowEvent& ev) { events.push_back(ev); };
  }
  [[nodiscard]] std::uint64_t total_counter() const {
    std::uint64_t total = 0;
    for (const auto& ev : events) total += ev.counter;
    return total;
  }
};

TEST(GroupCache, FirstPacketAlwaysReported) {
  GroupCache cache(GroupCacheConfig{.entries = 64, .report_interval = 100});
  Collector out;
  cache.offer(drop_event(1), out.fn());
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].counter, 1);
  EXPECT_EQ(out.events[0].flow, flow(1));
}

TEST(GroupCache, RedundantPacketsSuppressed) {
  GroupCache cache(GroupCacheConfig{.entries = 64, .report_interval = 100});
  Collector out;
  for (int i = 0; i < 50; ++i) cache.offer(drop_event(1), out.fn());
  // Only the initial report: 50 < target (100).
  EXPECT_EQ(out.events.size(), 1u);
  EXPECT_EQ(cache.offered(), 50u);
  EXPECT_EQ(cache.reports(), 1u);
}

TEST(GroupCache, CounterReportEveryC) {
  GroupCache cache(GroupCacheConfig{.entries = 64, .report_interval = 10});
  Collector out;
  for (int i = 0; i < 35; ++i) cache.offer(drop_event(1), out.fn());
  // Reports at counts 1 (initial), 10, 20, 30.
  EXPECT_EQ(out.events.size(), 4u);
  // Counters are deltas since the previous report: 1, 9, 10, 10.
  EXPECT_EQ(out.events[0].counter, 1);
  EXPECT_EQ(out.events[1].counter, 9);
  EXPECT_EQ(out.events[2].counter, 10);
  EXPECT_EQ(out.events[3].counter, 10);
}

TEST(GroupCache, FlushRecoversResidualCounts) {
  GroupCache cache(GroupCacheConfig{.entries = 64, .report_interval = 10});
  Collector out;
  for (int i = 0; i < 35; ++i) cache.offer(drop_event(1), out.fn());
  cache.flush(out.fn());
  // Total counters across reports reconcile with offered packets.
  EXPECT_EQ(out.total_counter(), 35u);
}

TEST(GroupCache, ZeroFalseNegativeAcrossManyFlows) {
  // Far more flows than entries: every flow must still be reported at
  // least once (the zero-FN guarantee that motivates group caching over
  // Bloom filters, §3.4).
  GroupCache cache(GroupCacheConfig{.entries = 16, .report_interval = 100});
  Collector out;
  constexpr int kFlows = 500;
  for (int f = 0; f < kFlows; ++f) {
    cache.offer(drop_event(static_cast<std::uint16_t>(f)), out.fn());
  }
  std::unordered_set<packet::FlowKey, packet::FlowKeyHash> reported;
  for (const auto& ev : out.events) reported.insert(ev.flow);
  EXPECT_EQ(reported.size(), kFlows);
}

TEST(GroupCache, EvictionReportsResidual) {
  // Two flows colliding in a 1-entry cache: every eviction must carry the
  // evicted flow's residual count so totals reconcile.
  GroupCache cache(GroupCacheConfig{.entries = 1, .report_interval = 100});
  Collector out;
  for (int i = 0; i < 5; ++i) cache.offer(drop_event(1), out.fn());
  for (int i = 0; i < 3; ++i) cache.offer(drop_event(2), out.fn());
  cache.flush(out.fn());
  std::uint64_t flow1_total = 0, flow2_total = 0;
  for (const auto& ev : out.events) {
    if (ev.flow == flow(1)) flow1_total += ev.counter;
    if (ev.flow == flow(2)) flow2_total += ev.counter;
  }
  EXPECT_EQ(flow1_total, 5u);
  EXPECT_EQ(flow2_total, 3u);
}

TEST(GroupCache, CollisionPingPongProducesFalsePositives) {
  GroupCache cache(GroupCacheConfig{.entries = 1, .report_interval = 1000});
  Collector out;
  // Alternating flows in one slot: each arrival evicts the other.
  for (int i = 0; i < 10; ++i) {
    cache.offer(drop_event(1), out.fn());
    cache.offer(drop_event(2), out.fn());
  }
  // 20 offers, ~20 reports: massive duplication (false positives), but
  // never a miss. This is exactly what the switch CPU cleans up.
  EXPECT_GE(out.events.size(), 19u);
  EXPECT_EQ(cache.evictions(), 19u);
}

TEST(GroupCache, DifferentTypesDoNotAggregate) {
  GroupCache cache(GroupCacheConfig{.entries = 64, .report_interval = 100});
  Collector out;
  cache.offer(drop_event(1), out.fn());
  auto pause = make_event(EventType::kPause, flow(1), 1, 0);
  cache.offer(pause, out.fn());
  // Same flow, different type: second event must also be reported.
  EXPECT_EQ(out.events.size(), 2u);
}

TEST(GroupCache, KeepsFreshestDetail) {
  GroupCache cache(GroupCacheConfig{.entries = 64, .report_interval = 3});
  Collector out;
  auto ev = make_event(EventType::kCongestion, flow(1), 1, 0);
  ev.queue_latency_us = 10;
  cache.offer(ev, out.fn());
  ev.queue_latency_us = 99;
  cache.offer(ev, out.fn());
  cache.offer(ev, out.fn());  // count 3 -> report
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[1].queue_latency_us, 99);
}

TEST(GroupCache, DegenerateZeroEntriesReportsEverything) {
  GroupCache cache(GroupCacheConfig{.entries = 0, .report_interval = 10});
  Collector out;
  for (int i = 0; i < 7; ++i) cache.offer(drop_event(1), out.fn());
  EXPECT_EQ(out.events.size(), 7u);
}

TEST(GroupCache, CounterSaturatesAt16Bits) {
  GroupCache cache(GroupCacheConfig{.entries = 4, .report_interval = 100000});
  Collector out;
  for (int i = 0; i < 70000; ++i) cache.offer(drop_event(1), out.fn());
  cache.flush(out.fn());
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[1].counter, 0xffff);  // saturated residual
}

TEST(GroupCache, ReductionRatioUnderRealisticBurst) {
  // A congestion burst: 20 flows, 1000 packets each. Group caching should
  // eliminate ~95% of reports (the paper's headline dedup number).
  GroupCache cache(GroupCacheConfig{.entries = 1024, .report_interval = 64});
  Collector out;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint16_t f = 0; f < 20; ++f) cache.offer(drop_event(f), out.fn());
  }
  const double reduction = 1.0 - static_cast<double>(out.events.size()) / 20000.0;
  EXPECT_GT(reduction, 0.90);
}

}  // namespace
}  // namespace netseer::core
