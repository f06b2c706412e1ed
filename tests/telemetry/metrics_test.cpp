#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace netseer::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksLevelAndPeakIndependently) {
  Gauge g;
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 10);
  g.add(-5);
  EXPECT_EQ(g.value(), -2);
  EXPECT_EQ(g.peak(), 10);
}

TEST(Gauge, UpdateMaxOnlyRaises) {
  Gauge g;
  g.update_max(7);
  g.update_max(4);  // lower sample: no effect
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.peak(), 7);
  g.update_max(12);
  EXPECT_EQ(g.peak(), 12);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 is the underflow bucket; bucket i covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.99), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_of(1.99), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 11u);
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Beyond 2^63 everything lands in the last bucket.
  EXPECT_EQ(Histogram::bucket_of(1e30), Histogram::kBuckets - 1);
  // bucket_low is the inverse lower edge.
  EXPECT_DOUBLE_EQ(Histogram::bucket_low(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_low(1), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_low(11), 1024.0);
}

TEST(Histogram, RecordsSummaryAndCounts) {
  Histogram h;
  h.record(1.0);
  h.record(3.0);
  h.record(3.0);
  h.record(0.5);
  EXPECT_EQ(h.summary().count(), 4u);
  EXPECT_DOUBLE_EQ(h.summary().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.summary().max(), 3.0);
  EXPECT_EQ(h.buckets()[0], 1u);  // 0.5
  EXPECT_EQ(h.buckets()[1], 1u);  // 1.0
  EXPECT_EQ(h.buckets()[2], 2u);  // 3.0 x2
}

TEST(Histogram, MergeMatchesSingleStream) {
  Histogram a, b, combined;
  for (int i = 0; i < 100; ++i) {
    const double v = i * 0.7;
    (i % 2 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.summary().count(), combined.summary().count());
  EXPECT_DOUBLE_EQ(a.summary().min(), combined.summary().min());
  EXPECT_DOUBLE_EQ(a.summary().max(), combined.summary().max());
  EXPECT_NEAR(a.summary().mean(), combined.summary().mean(), 1e-9);
  EXPECT_NEAR(a.summary().stddev(), combined.summary().stddev(), 1e-9);
  EXPECT_EQ(a.buckets(), combined.buckets());
}

TEST(Registry, LookupCreatesOnceAndReturnsStableReferences) {
  Registry reg;
  Counter& c1 = reg.counter("pdp", "mmu.drops", 3);
  c1.add(5);
  // Registering more series must not invalidate the held reference
  // (std::map is node-based).
  for (int i = 0; i < 100; ++i) reg.counter("pdp", "filler", static_cast<util::NodeId>(i));
  Counter& c2 = reg.counter("pdp", "mmu.drops", 3);
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 5u);
  EXPECT_EQ(reg.counters().size(), 101u);
}

TEST(Registry, SeriesAreKeyedBySubsystemNameAndNode) {
  Registry reg;
  reg.counter("pdp", "drops", 1).add(1);
  reg.counter("pdp", "drops", 2).add(2);
  reg.counter("core", "drops", 1).add(4);
  reg.counter("pdp", "other", 1).add(8);
  EXPECT_EQ(reg.counter("pdp", "drops", 1).value(), 1u);
  EXPECT_EQ(reg.counter("pdp", "drops", 2).value(), 2u);
  EXPECT_EQ(reg.counter("core", "drops", 1).value(), 4u);
  EXPECT_EQ(reg.total("pdp", "drops"), 3u);
  EXPECT_EQ(reg.total("pdp", "missing"), 0u);
}

TEST(Registry, GlobalSeriesUseInvalidNode) {
  Registry reg;
  reg.counter("sim", "events_processed").add(9);
  EXPECT_EQ(reg.counters().begin()->first.node, util::kInvalidNode);
  EXPECT_EQ(reg.total("sim", "events_processed"), 9u);
}

TEST(Registry, SizeClearAndKinds) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a", "b");
  reg.gauge("a", "c").set(1);
  reg.histogram("a", "d").record(2.0);
  EXPECT_EQ(reg.size(), 3u);
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

}  // namespace
}  // namespace netseer::telemetry
