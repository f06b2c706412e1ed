#include <gtest/gtest.h>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/network.h"
#include "monitors/everflow.h"
#include "monitors/ground_truth.h"
#include "monitors/netsight.h"
#include "monitors/pingmesh.h"
#include "monitors/sampling.h"
#include "monitors/snmp.h"
#include "packet/builder.h"
#include "store/store.h"

namespace netseer::monitors {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

constexpr auto kCongestionThreshold = util::microseconds(20);

/// h1,h3 -- s1 -- s2 -- h2 with every monitor attached. Agent order:
/// ground truth first, baselines, NetSeer last.
struct Rig {
  Rig() : net(11), channel(net.simulator(), util::Rng(3), util::milliseconds(1), 0.0),
          sampler10(10), sampler1000(1000),
          everflow(net.simulator(),
                   EverflowMonitor::Config{.telemetry_flows = 4,
                                           .reselect_interval = util::milliseconds(5)},
                   util::Rng(13)) {
    pdp::SwitchConfig sc;
    sc.num_ports = 4;
    sc.port_rate = util::BitRate::gbps(10);
    s1 = &net.add_switch("s1", sc);
    s2 = &net.add_switch("s2", sc);
    h1 = &net.add_host("h1", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(10));
    h2 = &net.add_host("h2", Ipv4Addr::from_octets(10, 0, 1, 1), util::BitRate::gbps(10));
    h3 = &net.add_host("h3", Ipv4Addr::from_octets(10, 0, 0, 2), util::BitRate::gbps(10));
    net.connect_host(*s1, 0, *h1, util::microseconds(1));
    net.connect_host(*s2, 0, *h2, util::microseconds(1));
    net.connect_host(*s1, 2, *h3, util::microseconds(1));
    auto [l12, l21] = net.connect_switches(*s1, 1, *s2, 1, util::microseconds(1));
    s1_to_s2 = l12;
    (void)l21;
    net.compute_routes();

    truth = std::make_unique<GroundTruth>(kCongestionThreshold);
    net.set_link_observer(truth.get());
    net.add_agent_everywhere(truth.get());
    net.add_agent_everywhere(&netsight);
    net.add_agent_everywhere(&sampler10);
    net.add_agent_everywhere(&sampler1000);
    net.add_agent_everywhere(&everflow);

    delivery = std::make_unique<NetSightMonitor::DeliveryTracker>(netsight);
    for (auto& host : net.hosts()) host->add_app(delivery.get());

    store = std::make_unique<store::FlowEventStore>();
    collector = std::make_unique<backend::Collector>(net.simulator(), 1000, channel, *store);
    core::NetSeerConfig ns;
    ns.congestion_threshold = kCongestionThreshold;
    app1 = std::make_unique<core::NetSeerApp>(*s1, ns, &channel, 1000);
    app2 = std::make_unique<core::NetSeerApp>(*s2, ns, &channel, 1000);
    nic1 = std::make_unique<core::NetSeerNicAgent>();
    nic2 = std::make_unique<core::NetSeerNicAgent>();
    nic3 = std::make_unique<core::NetSeerNicAgent>();
    h1->set_nic_agent(nic1.get());
    h2->set_nic_agent(nic2.get());
    h3->set_nic_agent(nic3.get());
  }

  FlowKey flow(std::uint16_t sport) const { return FlowKey{h1->addr(), h2->addr(), 6, sport, 80}; }

  void send_burst(int packets, std::uint16_t sport = 1000, std::uint32_t payload = 500) {
    for (int i = 0; i < packets; ++i) h1->send(packet::make_tcp(flow(sport), payload));
  }

  /// Bounded settle: lets in-flight traffic drain without requiring the
  /// event queue to empty (EverFlow's periodic task keeps it non-empty).
  void settle(util::SimDuration span = util::milliseconds(5)) {
    net.simulator().run_until(net.simulator().now() + span);
  }

  void finish() {
    everflow.stop();  // periodic tasks must stop before draining run()
    net.simulator().run();
    app1->flush();
    app2->flush();
    net.simulator().run();
    app1->flush();
    app2->flush();
    net.simulator().run();
  }

  /// NetSeer's detected groups from the backend store.
  [[nodiscard]] EventGroupSet netseer_groups(std::optional<core::EventType> type = {}) const {
    EventGroupSet set;
    for (const auto& stored : store->scan({})) {
      if (type && stored.event.type != *type) continue;
      set.insert(EventGroup{stored.event.switch_id, stored.event.flow.hash64(),
                            stored.event.type});
    }
    return set;
  }

  fabric::Network net;
  core::ReportChannel channel;
  pdp::Switch* s1;
  pdp::Switch* s2;
  net::Host* h1;
  net::Host* h2;
  net::Host* h3;
  net::Link* s1_to_s2;
  std::unique_ptr<GroundTruth> truth;
  NetSightMonitor netsight;
  SamplingMonitor sampler10;
  SamplingMonitor sampler1000;
  EverflowMonitor everflow;
  std::unique_ptr<NetSightMonitor::DeliveryTracker> delivery;
  std::unique_ptr<store::FlowEventStore> store;
  std::unique_ptr<backend::Collector> collector;
  std::unique_ptr<core::NetSeerApp> app1;
  std::unique_ptr<core::NetSeerApp> app2;
  std::unique_ptr<core::NetSeerNicAgent> nic1;
  std::unique_ptr<core::NetSeerNicAgent> nic2;
  std::unique_ptr<core::NetSeerNicAgent> nic3;
};

double coverage(const EventGroupSet& detected, const EventGroupSet& actual) {
  if (actual.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& group : actual) hit += detected.contains(group);
  return static_cast<double>(hit) / static_cast<double>(actual.size());
}

TEST(GroundTruthTest, RecordsPipelineDrop) {
  Rig rig;
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.send_burst(10);
  rig.finish();
  EXPECT_EQ(rig.truth->count(core::EventType::kDrop), 10u);
  const auto groups = rig.truth->drop_groups(pdp::DropReason::kRouteMiss);
  EXPECT_EQ(groups.size(), 1u);
}

TEST(GroundTruthTest, RecordsLinkFaultsUpstream) {
  Rig rig;
  rig.send_burst(5);
  rig.settle();
  net::LinkFaultModel faults;
  faults.drop_prob = 0.1;
  rig.s1_to_s2->set_fault_model(faults);
  rig.send_burst(200);
  rig.finish();
  const auto groups = rig.truth->drop_groups(pdp::DropReason::kLinkLoss);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->node, rig.s1->id());
}

TEST(GroundTruthTest, PathTrackingIsExact) {
  Rig rig;
  rig.send_burst(100);
  rig.finish();
  // One flow, two switches: exactly two path events (no expiry effects).
  EXPECT_EQ(rig.truth->count(core::EventType::kPathChange), 2u);
}

TEST(NetSeerVsTruth, ZeroFalseNegativesZeroFalsePositives) {
  Rig rig;
  // Mixed faults: pipeline drops + link loss + congestion.
  rig.send_burst(5);
  rig.settle();
  net::LinkFaultModel faults;
  faults.drop_prob = 0.02;
  rig.s1_to_s2->set_fault_model(faults);
  rig.send_burst(300, 1000, 1400);
  for (int i = 0; i < 300; ++i) {
    rig.h3->send(packet::make_tcp(FlowKey{rig.h3->addr(), rig.h2->addr(), 6, 1001, 80}, 1400));
  }
  rig.settle();
  rig.s1_to_s2->set_fault_model(net::LinkFaultModel{});
  rig.send_burst(20);
  rig.finish();

  for (const auto type : {core::EventType::kDrop, core::EventType::kCongestion,
                          core::EventType::kPathChange}) {
    const auto actual = rig.truth->groups(type);
    const auto detected = rig.netseer_groups(type);
    // Zero false negatives: every true group detected.
    for (const auto& group : actual) {
      EXPECT_TRUE(detected.contains(group))
          << "missed " << core::to_string(type) << " at node " << group.node;
    }
    if (type != core::EventType::kPathChange) {
      // Zero false positives: nothing detected that did not happen.
      // (Path change exempt: limited table expiry legally re-reports.)
      for (const auto& group : detected) {
        EXPECT_TRUE(actual.contains(group))
            << "phantom " << core::to_string(type) << " at node " << group.node;
      }
    }
  }
}

TEST(NetSightTest, FullDropCoverageIncludingWireLoss) {
  Rig rig;
  rig.send_burst(5);
  rig.settle();
  net::LinkFaultModel faults;
  faults.drop_prob = 0.05;
  rig.s1_to_s2->set_fault_model(faults);
  rig.send_burst(200);
  rig.settle();
  rig.s1_to_s2->set_fault_model(net::LinkFaultModel{});
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.send_burst(20, 1001);
  rig.finish();

  const auto actual = rig.truth->groups(core::EventType::kDrop);
  EXPECT_DOUBLE_EQ(coverage(rig.netsight.drop_groups(), actual), 1.0);
}

TEST(NetSightTest, OverheadIsPerPacketPerHop) {
  Rig rig;
  rig.send_burst(100);
  rig.finish();
  // 100 packets x 2 switch hops x 64 B.
  EXPECT_GE(rig.netsight.overhead_bytes(), 100u * 2u * 64u);
}

TEST(SamplingTest, NeverSeesDrops) {
  Rig rig;
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.send_burst(1000);
  rig.finish();
  // Sampling observes forwarded packets only: drop coverage is zero.
  EXPECT_EQ(coverage(rig.sampler10.congestion_groups(kCongestionThreshold),
                     rig.truth->groups(core::EventType::kDrop)),
            0.0);
}

TEST(SamplingTest, RateControlsCongestionCoverage) {
  Rig rig;
  // Many short congested flows: 1:10 should catch far more than 1:1000.
  for (std::uint16_t s = 0; s < 100; ++s) {
    rig.send_burst(40, 2000 + s, 1400);
    for (int i = 0; i < 40; ++i) {
      rig.h3->send(
          packet::make_tcp(FlowKey{rig.h3->addr(), rig.h2->addr(), 6,
                                   static_cast<std::uint16_t>(2000 + s), 80},
                           1400));
    }
  }
  rig.finish();
  const auto actual = rig.truth->groups(core::EventType::kCongestion);
  ASSERT_GT(actual.size(), 20u);
  const double c10 = coverage(rig.sampler10.congestion_groups(kCongestionThreshold), actual);
  const double c1000 = coverage(rig.sampler1000.congestion_groups(kCongestionThreshold), actual);
  EXPECT_GT(c10, c1000);
  EXPECT_GT(c10, 0.05);
  EXPECT_LT(c1000, 0.2);
}

TEST(EverflowTest, PartialCoverageViaSelectedFlows) {
  Rig rig;
  // 50 flows, only 4 in the telemetry set per window.
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  for (int round = 0; round < 4; ++round) {
    for (std::uint16_t s = 0; s < 50; ++s) rig.send_burst(5, 3000 + s);
    rig.net.simulator().run_until(rig.net.simulator().now() + util::milliseconds(6));
  }
  rig.finish();

  const auto actual = rig.truth->groups(core::EventType::kDrop);
  const double c = coverage(rig.everflow.drop_groups(), actual);
  EXPECT_GT(rig.everflow.known_flow_count(), 40u);
  EXPECT_LT(c, 0.5);  // far from full coverage
}

TEST(SnmpTest, SeesExistenceNotFlows) {
  Rig rig;
  SnmpMonitor snmp(rig.net.simulator(), {rig.s1, rig.s2}, util::milliseconds(1));
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.send_burst(50);
  rig.net.simulator().run_until(util::milliseconds(10));
  snmp.stop();
  rig.finish();
  EXPECT_TRUE(snmp.saw_drops_at(rig.s2->id()));
  EXPECT_FALSE(snmp.saw_drops_at(rig.s1->id()));
  EXPECT_GT(snmp.overhead_bytes(), 0u);
}

TEST(PingmeshTest, DetectsLossExistence) {
  Rig rig;
  PingmeshProber prober(rig.net.simulator(), {rig.h1, rig.h2, rig.h3}, util::milliseconds(2),
                        /*timeout=*/util::milliseconds(5));
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.net.simulator().run_until(util::milliseconds(20));
  EXPECT_GT(prober.lost_probes(), 0u);  // probes toward h2 die
  EXPECT_TRUE(prober.anomaly_in_window(0, util::milliseconds(20), util::milliseconds(1)));
  EXPECT_GT(prober.probe_bytes(), 0u);
}

TEST(PingmeshTest, CleanNetworkNoAnomaly) {
  Rig rig;
  PingmeshProber prober(rig.net.simulator(), {rig.h1, rig.h2, rig.h3}, util::milliseconds(2));
  rig.net.simulator().run_until(util::milliseconds(20));
  EXPECT_EQ(prober.lost_probes(), 0u);
  EXPECT_FALSE(prober.anomaly_in_window(0, util::milliseconds(20), util::milliseconds(1)));
  EXPECT_GT(prober.results().size(), 30u);  // 6 pairs x ~9 rounds
}

TEST(OverheadComparison, NetSeerOrdersOfMagnitudeBelowNetSight) {
  Rig rig;
  for (std::uint16_t s = 0; s < 50; ++s) {
    rig.send_burst(40, 2000 + s, 1400);
    for (int i = 0; i < 40; ++i) {
      rig.h3->send(
          packet::make_tcp(FlowKey{rig.h3->addr(), rig.h2->addr(), 6,
                                   static_cast<std::uint16_t>(2000 + s), 80},
                           1400));
    }
  }
  rig.finish();

  const auto traffic =
      rig.app1->funnel().traffic_bytes + rig.app2->funnel().traffic_bytes;
  const auto netseer_bytes =
      rig.app1->funnel().report_bytes + rig.app2->funnel().report_bytes;
  const auto netsight_bytes = rig.netsight.overhead_bytes();
  ASSERT_GT(traffic, 0u);
  EXPECT_LT(netseer_bytes * 20, netsight_bytes);  // >20x cheaper here
}

}  // namespace
}  // namespace netseer::monitors
