// Windowed-aggregation contracts: tumbling event-time buckets, eager
// rollover within a key, watermark-driven close with empty-window
// emission, idle-key GC with detector recycling, and the per-scope
// grouping (device-flow / device / device-rule).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/event.h"
#include "detect/window.h"

namespace netseer::detect {
namespace {

constexpr util::NodeId kSwitch = 7;

backend::StoredEvent drop_row(util::SimTime at, std::uint16_t counter = 1,
                              util::NodeId node = kSwitch, std::uint16_t src_port = 1000) {
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                       packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, src_port, 80};
  auto ev = core::make_event(core::EventType::kDrop, flow, node, at);
  ev.counter = counter;
  return backend::StoredEvent{ev, at};
}

RuleSet test_set(util::SimDuration window = util::milliseconds(1)) {
  RuleSet set = RuleSet::defaults();
  set.window = window;
  set.lateness = util::microseconds(100);
  set.idle_gc_windows = 4;
  return set;
}

Rule drop_rule() {
  Rule rule;
  rule.name = std::string("t");  // = "t" draws a false -Wrestrict from GCC 12 at -O3
  rule.type = core::EventType::kDrop;
  rule.family = Family::kThreshold;
  rule.feature = Feature::kPackets;
  rule.scope = Scope::kDeviceFlow;
  rule.threshold = 5;
  return rule;
}

TEST(WindowEngineTest, TumblingBucketsAndEagerRollover) {
  const RuleSet set = test_set();
  const Rule rule = drop_rule();
  WindowEngine engine(rule, set);
  std::vector<WindowResult> closed;
  const auto sink = [&](const WindowResult& w) { closed.push_back(w); };

  engine.offer(drop_row(util::microseconds(100), 2), sink);
  engine.offer(drop_row(util::microseconds(900), 3), sink);
  EXPECT_TRUE(closed.empty());  // window [0,1ms) still open

  // A row in the next bucket closes the first window eagerly.
  engine.offer(drop_row(util::microseconds(1100), 1), sink);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].window_start, 0);
  EXPECT_FALSE(closed[0].empty);
  EXPECT_DOUBLE_EQ(closed[0].result.value, 5.0);  // 2 + 3 packets
  EXPECT_TRUE(closed[0].result.firing);           // threshold 5 reached

  EXPECT_EQ(engine.stats().rows, 3u);
  EXPECT_EQ(engine.stats().windows_closed, 1u);
}

TEST(WindowEngineTest, WatermarkClosesAndEmitsEmptyWindows) {
  const RuleSet set = test_set();
  const Rule rule = drop_rule();
  WindowEngine engine(rule, set);
  std::vector<WindowResult> closed;
  const auto sink = [&](const WindowResult& w) { closed.push_back(w); };

  engine.offer(drop_row(util::microseconds(500), 9), sink);
  // Watermark passes windows 0 and 1: window 0 closes non-empty, window
  // 1 closes empty (quiescence signal for the alert pipeline).
  engine.advance(util::milliseconds(2) + set.lateness, sink);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_FALSE(closed[0].empty);
  EXPECT_TRUE(closed[0].result.firing);
  EXPECT_TRUE(closed[1].empty);
  EXPECT_DOUBLE_EQ(closed[1].result.value, 0.0);
  EXPECT_FALSE(closed[1].result.firing);  // 0 fell to the clear level
  EXPECT_EQ(engine.stats().windows_empty, 1u);
}

TEST(WindowEngineTest, LatenessHoldsTheCurrentWindowOpen) {
  const RuleSet set = test_set();
  WindowEngine engine(drop_rule(), set);
  std::vector<WindowResult> closed;
  const auto sink = [&](const WindowResult& w) { closed.push_back(w); };

  engine.offer(drop_row(util::microseconds(500)), sink);
  // Watermark exactly at the window end: lateness keeps it open.
  engine.advance(util::milliseconds(1), sink);
  EXPECT_TRUE(closed.empty());
  engine.advance(util::milliseconds(1) + set.lateness, sink);
  EXPECT_EQ(closed.size(), 1u);
}

TEST(WindowEngineTest, IdleKeysAreGarbageCollectedAndDetectorsRecycled) {
  const RuleSet set = test_set();  // idle_gc_windows = 4
  WindowEngine engine(drop_rule(), set);
  const auto sink = [](const WindowResult&) {};

  engine.offer(drop_row(util::microseconds(100)), sink);
  EXPECT_EQ(engine.active_keys(), 1u);
  // Way past the GC horizon: the key dies after 4 empty windows.
  engine.advance(util::milliseconds(100), sink);
  EXPECT_EQ(engine.active_keys(), 0u);
  EXPECT_EQ(engine.stats().keys_recycled, 1u);
  // 4 empties were still emitted before GC (alerts resolve first).
  EXPECT_GE(engine.stats().windows_empty, 4u);

  // A new key reuses the recycled detector instance.
  engine.offer(drop_row(util::milliseconds(200), 1, kSwitch, 2000), sink);
  EXPECT_EQ(engine.active_keys(), 1u);
  EXPECT_EQ(engine.stats().keys_created, 2u);
}

TEST(WindowEngineTest, LateRowsAreCountedNotCrashed) {
  const RuleSet set = test_set();
  WindowEngine engine(drop_rule(), set);
  const auto sink = [](const WindowResult&) {};

  engine.offer(drop_row(util::milliseconds(5)), sink);
  engine.offer(drop_row(util::microseconds(100)), sink);  // behind closed window
  EXPECT_EQ(engine.stats().late_rows, 1u);
  EXPECT_EQ(engine.stats().rows, 1u);
}

TEST(WindowEngineTest, DeviceScopeMergesFlowsPerSwitch) {
  RuleSet set = test_set();
  Rule rule = drop_rule();
  rule.scope = Scope::kDevice;
  rule.feature = Feature::kEvents;
  WindowEngine engine(rule, set);
  const auto sink = [](const WindowResult&) {};

  engine.offer(drop_row(util::microseconds(100), 1, kSwitch, 1000), sink);
  engine.offer(drop_row(util::microseconds(200), 1, kSwitch, 2000), sink);
  engine.offer(drop_row(util::microseconds(300), 1, 8, 3000), sink);
  EXPECT_EQ(engine.active_keys(), 2u);  // two switches, flows merged
}

TEST(WindowEngineTest, DeviceRuleScopeGroupsByAclRule) {
  RuleSet set = test_set();
  Rule rule = drop_rule();
  rule.type = core::EventType::kAclDrop;
  rule.scope = Scope::kDeviceRule;
  WindowEngine engine(rule, set);
  const auto sink = [](const WindowResult&) {};

  auto mk = [](std::uint16_t rule_id) {
    auto row = drop_row(util::microseconds(100));
    row.event.type = core::EventType::kAclDrop;
    row.event.acl_rule_id = rule_id;
    return row;
  };
  engine.offer(mk(501), sink);
  engine.offer(mk(501), sink);
  engine.offer(mk(502), sink);
  EXPECT_EQ(engine.active_keys(), 2u);
}

TEST(WindowEngineTest, TypeFilterIgnoresOtherEvents) {
  WindowEngine engine(drop_rule(), test_set());
  const auto sink = [](const WindowResult&) {};
  auto row = drop_row(util::microseconds(100));
  row.event.type = core::EventType::kCongestion;
  engine.offer(row, sink);
  EXPECT_EQ(engine.stats().rows, 0u);
  EXPECT_EQ(engine.active_keys(), 0u);
}

TEST(WindowEngineTest, LatencyMeanFeature) {
  RuleSet set = test_set();
  Rule rule;
  rule.name = "lat";
  rule.type = core::EventType::kCongestion;
  rule.family = Family::kThreshold;
  rule.feature = Feature::kLatencyMeanUs;
  rule.scope = Scope::kDevice;
  rule.threshold = 1000;
  WindowEngine engine(rule, set);
  std::vector<WindowResult> closed;
  const auto sink = [&](const WindowResult& w) { closed.push_back(w); };

  auto mk = [](util::SimTime at, std::uint16_t lat) {
    auto row = drop_row(at);
    row.event.type = core::EventType::kCongestion;
    row.event.queue_latency_us = lat;
    return row;
  };
  engine.offer(mk(util::microseconds(100), 10), sink);
  engine.offer(mk(util::microseconds(200), 30), sink);
  engine.advance(util::milliseconds(1) + set.lateness + 1, sink);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_DOUBLE_EQ(closed[0].result.value, 20.0);
}

}  // namespace
}  // namespace netseer::detect
