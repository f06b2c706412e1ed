// Targeted unit tests of monitor internals (the integration behaviours
// are covered in monitors_test.cpp).
#include <gtest/gtest.h>

#include "monitors/netsight.h"
#include "monitors/observation.h"
#include "monitors/sampling.h"
#include "packet/builder.h"
#include "pdp/switch.h"

namespace netseer::monitors {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;

FlowKey flow(std::uint16_t sport) {
  return FlowKey{Ipv4Addr::from_octets(10, 0, 0, 1), Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                 sport, 80};
}

TEST(ObservationLog, GroupsDeduplicateByNodeFlowType) {
  ObservationLog log;
  Observation obs;
  obs.node = 1;
  obs.flow = flow(1);
  obs.type = core::EventType::kCongestion;
  log.record(obs);
  log.record(obs);  // duplicate
  obs.node = 2;
  log.record(obs);  // different node
  obs.type = core::EventType::kPathChange;
  log.record(obs);  // different type
  EXPECT_EQ(log.groups().size(), 3u);
}

TEST(ObservationLog, FlowlessObservationsExcludedFromGroups) {
  ObservationLog log;
  Observation obs;
  obs.node = 1;  // no flow (counter-style observation)
  log.record(obs);
  EXPECT_TRUE(log.groups().empty());
}

TEST(ObservationLog, OverheadAccumulatesAndClears) {
  ObservationLog log;
  log.add_overhead_bytes(64);
  log.add_overhead_bytes(64);
  EXPECT_EQ(log.overhead_bytes(), 128u);
  log.clear();
  EXPECT_EQ(log.overhead_bytes(), 0u);
  EXPECT_TRUE(log.observations().empty());
}

TEST(EventGroup, HashAndEquality) {
  const EventGroup a{1, 42, core::EventType::kDrop};
  const EventGroup b{1, 42, core::EventType::kDrop};
  const EventGroup c{1, 42, core::EventType::kPause};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EventGroupSet set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

struct NetSightRig {
  NetSightRig() : sw(sim, 1, "sw", make_config()) {}
  static pdp::SwitchConfig make_config() {
    pdp::SwitchConfig config;
    config.num_ports = 4;
    return config;
  }
  void egress(NetSightMonitor& monitor, const packet::Packet& pkt, util::SimDuration delay,
              util::PortId in = 0, util::PortId out = 1) {
    pdp::EgressInfo info;
    info.ingress_port = in;
    info.egress_port = out;
    info.queue_delay = delay;
    auto copy = pkt;
    monitor.on_egress(sw, copy, info);
  }
  sim::Simulator sim;
  pdp::Switch sw;
};

TEST(NetSightUnit, ExplicitDropPostcardCreatesGroup) {
  NetSightRig rig;
  NetSightMonitor monitor;
  const auto pkt = packet::make_tcp(flow(1), 100);
  pdp::PipelineContext ctx;
  ctx.drop = pdp::DropReason::kRouteMiss;
  monitor.on_pipeline_drop(rig.sw, pkt, ctx);
  const auto groups = monitor.drop_groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->node, rig.sw.id());
}

TEST(NetSightUnit, DeliveredPacketIsNotAWireLoss) {
  NetSightRig rig;
  NetSightMonitor monitor;
  NetSightMonitor::DeliveryTracker tracker(monitor);
  auto pkt = packet::make_tcp(flow(1), 100);
  rig.egress(monitor, pkt, 0);
  // Without a delivery record, the last-egress heuristic calls it a loss:
  EXPECT_EQ(monitor.drop_groups().size(), 1u);
  // With the delivery record it is clean:
  net::Host host(rig.sim, 9, "h", Ipv4Addr::from_octets(10, 0, 0, 2), util::BitRate::gbps(1));
  tracker.on_receive(host, pkt);
  EXPECT_TRUE(monitor.drop_groups().empty());
}

TEST(NetSightUnit, WireLossInferenceCanBeDisabled) {
  NetSightRig rig;
  NetSightMonitor monitor;
  auto pkt = packet::make_tcp(flow(1), 100);
  rig.egress(monitor, pkt, 0);
  EXPECT_TRUE(monitor.drop_groups(/*infer_wire_losses=*/false).empty());
}

TEST(NetSightUnit, CongestionGroupsRespectThreshold) {
  NetSightRig rig;
  NetSightMonitor monitor;
  auto pkt = packet::make_tcp(flow(1), 100);
  rig.egress(monitor, pkt, util::microseconds(10));
  EXPECT_TRUE(monitor.congestion_groups(util::microseconds(20)).empty());
  rig.egress(monitor, pkt, util::microseconds(30));
  EXPECT_EQ(monitor.congestion_groups(util::microseconds(20)).size(), 1u);
}

TEST(NetSightUnit, PathGroupsDetectPortChanges) {
  NetSightRig rig;
  NetSightMonitor monitor;
  auto pkt = packet::make_tcp(flow(1), 100);
  rig.egress(monitor, pkt, 0, 0, 1);
  rig.egress(monitor, pkt, 0, 0, 1);  // same path: no new group event
  rig.egress(monitor, pkt, 0, 0, 2);  // changed egress
  // Group identity is (node, flow, type): one group here, observed twice.
  EXPECT_EQ(monitor.path_groups().size(), 1u);
}

TEST(SamplingUnit, ApproximatesConfiguredRate) {
  NetSightRig rig;
  SamplingMonitor sampler(100);
  auto pkt = packet::make_tcp(flow(1), 100);
  pdp::EgressInfo info;
  info.ingress_port = 0;
  info.egress_port = 1;
  for (int i = 0; i < 100000; ++i) {
    auto copy = pkt;
    sampler.on_egress(rig.sw, copy, info);
  }
  const double rate = static_cast<double>(sampler.log().observations().size()) / 100000.0;
  EXPECT_NEAR(rate, 0.01, 0.003);
}

TEST(SamplingUnit, IgnoresControlTraffic) {
  NetSightRig rig;
  SamplingMonitor sampler(1);
  auto notify = packet::make_udp(flow(1), 10);
  notify.kind = packet::PacketKind::kLossNotify;
  pdp::EgressInfo info;
  for (int i = 0; i < 100; ++i) {
    auto copy = notify;
    sampler.on_egress(rig.sw, copy, info);
  }
  EXPECT_TRUE(sampler.log().observations().empty());
}

}  // namespace
}  // namespace netseer::monitors
