#include "scenarios/harness.h"

#include <gtest/gtest.h>

#include "traffic/generator.h"

namespace netseer::scenarios {
namespace {

TEST(Harness, BuildsPaperTestbedWithNetSeerEverywhere) {
  Harness harness{HarnessOptions{}};
  EXPECT_EQ(harness.testbed().all_switches().size(), 10u);
  EXPECT_EQ(harness.app_count(), 10u);
  for (auto* sw : harness.testbed().all_switches()) {
    EXPECT_NE(harness.app_for(sw->id()), nullptr) << sw->name();
  }
  EXPECT_EQ(harness.app_for(99999), nullptr);
}

TEST(Harness, OptionalMonitorsAbsentByDefault) {
  Harness harness{HarnessOptions{}};
  EXPECT_EQ(harness.netsight(), nullptr);
  EXPECT_EQ(harness.everflow(), nullptr);
  EXPECT_EQ(harness.pingmesh(), nullptr);
  EXPECT_EQ(harness.snmp(), nullptr);
  EXPECT_EQ(harness.sampler(10), nullptr);
}

TEST(Harness, MonitorsPresentWhenEnabled) {
  HarnessOptions options;
  options.enable_netsight = true;
  options.sampling_rates = {10, 1000};
  options.enable_everflow = true;
  options.enable_pingmesh = true;
  options.enable_snmp = true;
  Harness harness{options};
  EXPECT_NE(harness.netsight(), nullptr);
  EXPECT_NE(harness.everflow(), nullptr);
  EXPECT_NE(harness.pingmesh(), nullptr);
  EXPECT_NE(harness.snmp(), nullptr);
  ASSERT_NE(harness.sampler(10), nullptr);
  ASSERT_NE(harness.sampler(1000), nullptr);
  EXPECT_EQ(harness.sampler(10)->denominator(), 10u);
  EXPECT_EQ(harness.sampler(1000)->denominator(), 1000u);
  EXPECT_EQ(harness.sampler(100), nullptr);
  EXPECT_EQ(harness.sampler(0), nullptr);
  harness.run_and_settle(util::milliseconds(1));  // periodic tasks stop cleanly
}

TEST(Harness, WorkloadGeneratesAndSettles) {
  Harness harness{HarnessOptions{}};
  traffic::GeneratorConfig gen;
  gen.sizes = &traffic::web();
  gen.load = 0.3;
  gen.flow_rate = util::BitRate::gbps(1);
  gen.stop = util::milliseconds(3);
  harness.add_workload(gen);
  harness.run_and_settle(util::milliseconds(5));
  EXPECT_GT(harness.total_generated_bytes(), 0u);
  EXPECT_EQ(harness.generators().size(), harness.testbed().hosts.size());
  const auto funnel = harness.total_funnel();
  EXPECT_GT(funnel.traffic_bytes, harness.total_generated_bytes());  // per-hop counting
  // Clean run: path events only, all flows' paths covered.
  EXPECT_EQ(harness.coverage(harness.netseer_groups(core::EventType::kPathChange),
                             harness.truth().groups(core::EventType::kPathChange)),
            1.0);
}

TEST(Harness, CoverageHelperEdgeCases) {
  monitors::EventGroupSet empty;
  monitors::EventGroupSet one;
  one.insert(monitors::EventGroup{1, 2, core::EventType::kDrop});
  EXPECT_DOUBLE_EQ(Harness::coverage(empty, empty), 1.0);  // nothing to cover
  EXPECT_DOUBLE_EQ(Harness::coverage(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(Harness::coverage(one, one), 1.0);
}

TEST(Harness, LargeFatTreeFullCoverage) {
  // §3.2 "linearly scalable": the same stack on a k=6 fat-tree (45
  // switches) still yields full drop coverage with zero FN.
  HarnessOptions options;
  options.seed = 23;
  options.topo.num_pods = 6;
  options.topo.aggs_per_pod = 3;
  options.topo.tors_per_pod = 3;
  options.topo.num_cores = 9;
  options.topo.hosts_per_tor = 3;
  Harness harness{options};
  auto& tb = harness.testbed();
  ASSERT_EQ(tb.all_switches().size(), 45u);

  // Sync sequences, then a lossy core link plus a blackhole.
  traffic::GeneratorConfig gen;
  gen.sizes = &traffic::web();
  gen.load = 0.2;
  gen.flow_rate = util::BitRate::gbps(1);
  gen.stop = util::milliseconds(6);
  harness.add_workload(gen);
  (void)harness.simulator().schedule_at(util::milliseconds(2), [&tb] {
    net::LinkFaultModel faults;
    faults.drop_prob = 0.01;
    tb.aggs[0]->link(static_cast<util::PortId>(tb.tors.size() / 6))->set_fault_model(faults);
    tb.tors[5]->routes().set_corrupted(
        packet::Ipv4Prefix{tb.hosts[5 * 3]->addr(), 32}, true);
  });
  (void)harness.simulator().schedule_at(util::milliseconds(5), [&tb] {
    // Heal the link so trailing gaps resolve before settling.
    tb.aggs[0]->link(static_cast<util::PortId>(tb.tors.size() / 6))->set_fault_model({});
  });
  harness.run_and_settle(util::milliseconds(12));

  const auto actual = harness.truth().groups(core::EventType::kDrop);
  const auto detected = harness.netseer_groups(core::EventType::kDrop);
  EXPECT_GT(actual.size(), 0u);
  EXPECT_DOUBLE_EQ(Harness::coverage(detected, actual), 1.0);
}

}  // namespace
}  // namespace netseer::scenarios
