#include <gtest/gtest.h>

#include "core/acl_agg.h"
#include "core/cpu_runtime.h"
#include "core/detect/path_change.h"
#include "core/switch_cpu.h"

namespace netseer::core {
namespace {

packet::FlowKey flow(std::uint16_t sport) {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, sport, 80};
}

FlowEvent ev(std::uint16_t sport, std::uint16_t counter = 1) {
  auto event = make_event(EventType::kDrop, flow(sport), 1, 0);
  event.counter = counter;
  return event;
}

TEST(FpEliminator, FirstReportAdmitted) {
  FpEliminator fp(FpEliminatorConfig{});
  EXPECT_TRUE(fp.admit(ev(1), 0));
  EXPECT_EQ(fp.processed(), 1u);
  EXPECT_EQ(fp.eliminated(), 0u);
}

TEST(FpEliminator, DuplicateInitialReportEliminated) {
  FpEliminator fp(FpEliminatorConfig{.window = util::milliseconds(50)});
  EXPECT_TRUE(fp.admit(ev(1), 0));
  EXPECT_FALSE(fp.admit(ev(1), util::milliseconds(1)));  // collision ping-pong duplicate
  EXPECT_EQ(fp.eliminated(), 1u);
}

TEST(FpEliminator, CounterReportsPassThrough) {
  FpEliminator fp(FpEliminatorConfig{});
  EXPECT_TRUE(fp.admit(ev(1), 0));
  EXPECT_TRUE(fp.admit(ev(1, /*counter=*/64), util::milliseconds(1)));
}

TEST(FpEliminator, StaleEntryReadmits) {
  FpEliminator fp(FpEliminatorConfig{.window = util::milliseconds(10)});
  EXPECT_TRUE(fp.admit(ev(1), 0));
  // A genuinely new occurrence after the window is a new event.
  EXPECT_TRUE(fp.admit(ev(1), util::milliseconds(20)));
}

TEST(FpEliminator, DistinctFlowsIndependent) {
  FpEliminator fp(FpEliminatorConfig{});
  EXPECT_TRUE(fp.admit(ev(1), 0));
  EXPECT_TRUE(fp.admit(ev(2), 0));
  EXPECT_EQ(fp.map_size(), 2u);
}

TEST(FpEliminator, DistinctTypesIndependent) {
  FpEliminator fp(FpEliminatorConfig{});
  EXPECT_TRUE(fp.admit(ev(1), 0));
  auto pause = make_event(EventType::kPause, flow(1), 1, 0);
  EXPECT_TRUE(fp.admit(pause, 0));
}

TEST(FpEliminator, DistinctDetailsIndependent) {
  // One flow and one type: initial reports that differ only in the
  // type's detail (the ACL rule, the egress port) are different flow
  // events, so neither is taken for the other's duplicate.
  FpEliminator fp(FpEliminatorConfig{});
  auto rule1 = make_event(EventType::kAclDrop, flow(1), 1, 0);
  rule1.acl_rule_id = 1;
  auto rule2 = rule1;
  rule2.acl_rule_id = 2;
  EXPECT_TRUE(fp.admit(rule1, 0));
  EXPECT_TRUE(fp.admit(rule2, util::milliseconds(1)));
  auto port1 = ev(1);
  port1.egress_port = 1;
  auto port2 = port1;
  port2.egress_port = 2;
  EXPECT_TRUE(fp.admit(port1, util::milliseconds(2)));
  EXPECT_TRUE(fp.admit(port2, util::milliseconds(3)));
  EXPECT_EQ(fp.eliminated(), 0u);
  // The counter is not identity: a counter report joins port1's entry.
  auto counted = port1;
  counted.counter = 500;
  EXPECT_TRUE(fp.admit(counted, util::milliseconds(4)));
  EXPECT_EQ(fp.map_size(), 4u);
}

TEST(FpEliminator, OffloadAndRecomputeAgree) {
  FpEliminator offload(FpEliminatorConfig{.use_precomputed_hash = true});
  FpEliminator recompute(FpEliminatorConfig{.use_precomputed_hash = false});
  for (std::uint16_t s = 0; s < 100; ++s) {
    EXPECT_EQ(offload.admit(ev(s), 0), recompute.admit(ev(s), 0));
    EXPECT_EQ(offload.admit(ev(s), 1), recompute.admit(ev(s), 1));
  }
  EXPECT_EQ(offload.eliminated(), recompute.eliminated());
}

TEST(FpEliminator, PruneKeepsMapBounded) {
  FpEliminatorConfig config;
  config.window = util::milliseconds(1);
  config.max_entries = 100;
  FpEliminator fp(config);
  for (std::uint16_t s = 0; s < 1000; ++s) {
    (void)fp.admit(ev(s), util::milliseconds(s * 2));  // all stale by insertion time
  }
  EXPECT_LE(fp.map_size(), 200u);
}

TEST(SwitchCpu, ForwardsAdmittedEventsInReports) {
  sim::Simulator sim;
  std::vector<EventBatch> reports;
  SwitchCpuConfig config;
  config.report_batch = 10;
  SwitchCpu cpu(sim, 42, config, [&](EventBatch&& b) { reports.push_back(std::move(b)); });

  EventBatch in;
  for (std::uint16_t s = 0; s < 25; ++s) in.events.push_back(ev(s));
  cpu.on_batch(std::move(in));
  sim.run();
  cpu.flush();

  std::size_t total = 0;
  for (const auto& r : reports) {
    total += r.events.size();
    EXPECT_EQ(r.switch_id, 42u);
    for (const auto& e : r.events) EXPECT_EQ(e.switch_id, 42u);
  }
  EXPECT_EQ(total, 25u);
  EXPECT_EQ(cpu.events_forwarded(), 25u);
}

TEST(SwitchCpu, EliminatesDuplicates) {
  sim::Simulator sim;
  std::size_t forwarded = 0;
  SwitchCpu cpu(sim, 42, SwitchCpuConfig{}, [&](EventBatch&& b) { forwarded += b.events.size(); });

  EventBatch in;
  for (int i = 0; i < 10; ++i) in.events.push_back(ev(1));  // same initial report x10
  cpu.on_batch(std::move(in));
  sim.run();
  cpu.flush();
  EXPECT_EQ(forwarded, 1u);
  EXPECT_EQ(cpu.fp().eliminated(), 9u);
}

TEST(SwitchCpu, ServiceTimeDelaysProcessing) {
  sim::Simulator sim;
  std::size_t forwarded = 0;
  SwitchCpuConfig config;
  config.per_event_cost = util::microseconds(1);
  config.report_batch = 1000;
  SwitchCpu cpu(sim, 42, config, [&](EventBatch&& b) { forwarded += b.events.size(); });

  EventBatch in;
  for (std::uint16_t s = 0; s < 100; ++s) in.events.push_back(ev(s));
  cpu.on_batch(std::move(in));
  sim.run_until(util::microseconds(50));
  EXPECT_EQ(forwarded, 0u);  // still "processing"
  sim.run();
  cpu.flush();
  EXPECT_EQ(forwarded, 100u);
  EXPECT_GE(sim.now(), util::microseconds(100));
}

TEST(SwitchCpu, FlushTimerEmitsPartialReports) {
  sim::Simulator sim;
  std::vector<EventBatch> reports;
  SwitchCpuConfig config;
  config.report_batch = 50;
  SwitchCpu cpu(sim, 42, config, [&](EventBatch&& b) { reports.push_back(std::move(b)); });
  EventBatch in;
  in.events.push_back(ev(1));
  cpu.on_batch(std::move(in));
  sim.run();  // flush timer fires at ~1ms
  EXPECT_EQ(reports.size(), 1u);
}

TEST(AclAggregator, FirstHitReported) {
  AclDropAggregator agg(100);
  std::vector<FlowEvent> out;
  agg.offer(7, ev(1), [&](const FlowEvent& e) { out.push_back(e); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, EventType::kAclDrop);
  EXPECT_EQ(out[0].acl_rule_id, 7);
  EXPECT_EQ(out[0].counter, 1);
}

TEST(AclAggregator, AggregatesAcrossFlows) {
  // 1000 flows hitting one rule: a handful of reports, not 1000.
  AclDropAggregator agg(100);
  std::vector<FlowEvent> out;
  for (std::uint16_t s = 0; s < 1000; ++s) {
    agg.offer(7, ev(s), [&](const FlowEvent& e) { out.push_back(e); });
  }
  EXPECT_LE(out.size(), 11u);
  EXPECT_EQ(agg.rule_hits(7), 1000u);
  // Counters reconcile.
  std::uint64_t total = 0;
  for (const auto& e : out) total += e.counter;
  EXPECT_LE(total, 1000u);
  EXPECT_GE(total, 901u);  // last partial interval unreported
}

TEST(AclAggregator, RulesIndependent) {
  AclDropAggregator agg(100);
  int reports = 0;
  agg.offer(1, ev(1), [&](const FlowEvent&) { ++reports; });
  agg.offer(2, ev(2), [&](const FlowEvent&) { ++reports; });
  EXPECT_EQ(reports, 2);
  EXPECT_EQ(agg.rule_hits(1), 1u);
  EXPECT_EQ(agg.rule_hits(2), 1u);
  EXPECT_EQ(agg.rule_hits(3), 0u);
}

TEST(PathChange, NewFlowThenKnown) {
  PathChangeDetector det(PathChangeConfig{});
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 1, 0), PathChangeDetector::Observation::kNewFlow);
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 1, 10), PathChangeDetector::Observation::kKnownPath);
}

TEST(PathChange, PortChangeDetected) {
  PathChangeDetector det(PathChangeConfig{});
  (void)det.observe(flow(1).hash64(), 0, 1, 0);
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 2, 10), PathChangeDetector::Observation::kPathChanged);
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 2, 20), PathChangeDetector::Observation::kKnownPath);
  EXPECT_EQ(det.changes(), 1u);
}

TEST(PathChange, IngressChangeAlsoDetected) {
  PathChangeDetector det(PathChangeConfig{});
  (void)det.observe(flow(1).hash64(), 0, 1, 0);
  EXPECT_EQ(det.observe(flow(1).hash64(), 3, 1, 10), PathChangeDetector::Observation::kPathChanged);
}

TEST(PathChange, ExpiryMakesFlowNewAgain) {
  PathChangeConfig config;
  config.expiry = util::milliseconds(10);
  PathChangeDetector det(config);
  (void)det.observe(flow(1).hash64(), 0, 1, 0);
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 1, util::milliseconds(20)),
            PathChangeDetector::Observation::kNewFlow);
}

TEST(PathChange, CollisionEvictsSilently) {
  PathChangeConfig config;
  config.entries = 1;
  PathChangeDetector det(config);
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 1, 0), PathChangeDetector::Observation::kNewFlow);
  EXPECT_EQ(det.observe(flow(2).hash64(), 0, 1, 1), PathChangeDetector::Observation::kNewFlow);
  // Flow 1 evicted: reported as new again, never as a (wrong) change.
  EXPECT_EQ(det.observe(flow(1).hash64(), 0, 1, 2), PathChangeDetector::Observation::kNewFlow);
}

}  // namespace
}  // namespace netseer::core
