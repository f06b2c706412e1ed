// Tests of the paper features beyond the §5 evaluation: partial
// deployment (§2.3), hardware-failure self-checks (§3.7 / Fig. 4
// "malfunctioning"), and inter-card drop detection on multi-board
// switches (§3.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/multiboard.h"
#include "fabric/network.h"
#include "monitors/pingmesh.h"
#include "monitors/syslog.h"
#include "packet/builder.h"
#include "scan_rows.h"
#include "traffic/tcp.h"

namespace netseer::core {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

struct Rig {
  explicit Rig(NetSeerConfig config = {})
      : net(7), channel(net.simulator(), util::Rng(3), util::milliseconds(1), 0.0) {
    pdp::SwitchConfig sc;
    sc.num_ports = 4;
    sc.port_rate = util::BitRate::gbps(10);
    s1 = &net.add_switch("s1", sc);
    s2 = &net.add_switch("s2", sc);
    h1 = &net.add_host("h1", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(10));
    h2 = &net.add_host("h2", Ipv4Addr::from_octets(10, 0, 1, 1), util::BitRate::gbps(10));
    h3 = &net.add_host("h3", Ipv4Addr::from_octets(20, 0, 0, 1), util::BitRate::gbps(10));
    net.connect_host(*s1, 0, *h1, util::microseconds(1));
    net.connect_host(*s2, 0, *h2, util::microseconds(1));
    net.connect_host(*s1, 2, *h3, util::microseconds(1));
    auto [l12, l21] = net.connect_switches(*s1, 1, *s2, 1, util::microseconds(1));
    s1_to_s2 = l12;
    (void)l21;
    net.compute_routes();

    store = std::make_unique<store::FlowEventStore>();
    collector = std::make_unique<backend::Collector>(net.simulator(), 1000, channel, *store);
    app1 = std::make_unique<NetSeerApp>(*s1, config, &channel, 1000);
    app2 = std::make_unique<NetSeerApp>(*s2, config, &channel, 1000);
    nic1 = std::make_unique<NetSeerNicAgent>();
    nic2 = std::make_unique<NetSeerNicAgent>();
    nic3 = std::make_unique<NetSeerNicAgent>();
    h1->set_nic_agent(nic1.get());
    h2->set_nic_agent(nic2.get());
    h3->set_nic_agent(nic3.get());
  }

  void finish() {
    net.simulator().run();
    app1->flush();
    app2->flush();
    net.simulator().run();
  }

  fabric::Network net;
  ReportChannel channel;
  pdp::Switch* s1;
  pdp::Switch* s2;
  net::Host* h1;
  net::Host* h2;
  net::Host* h3;
  net::Link* s1_to_s2;
  std::unique_ptr<store::FlowEventStore> store;
  std::unique_ptr<backend::Collector> collector;
  std::unique_ptr<NetSeerApp> app1;
  std::unique_ptr<NetSeerApp> app2;
  std::unique_ptr<NetSeerNicAgent> nic1;
  std::unique_ptr<NetSeerNicAgent> nic2;
  std::unique_ptr<NetSeerNicAgent> nic3;
};

// ---- Partial deployment (§2.3) ---------------------------------------------

TEST(PartialDeployment, OnlyMonitoredPrefixReported) {
  NetSeerConfig config;
  config.monitored_prefixes = {Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8}};
  Rig rig(config);
  // Blackhole both destinations at s2? Use route miss for h2 (10/8,
  // monitored) and for a 20/8 flow from h3 (unmonitored).
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));

  const FlowKey monitored{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 20; ++i) rig.h1->send(packet::make_tcp(monitored, 400));
  // h3 (20.0.0.1) -> h2 is also blackholed but src/dst outside 10/8?
  // dst is 10.0.1.1 which IS in 10/8 — use a flow that matches nothing:
  // impossible here since dst is monitored; instead narrow the filter.
  rig.finish();
  backend::EventQuery drops;
  drops.type = EventType::kDrop;
  EXPECT_FALSE(store::scan_rows(*rig.store, drops).empty());
}

TEST(PartialDeployment, UnmonitoredFlowsFiltered) {
  NetSeerConfig config;
  // Monitor only the h1 host itself.
  config.monitored_prefixes = {Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 1), 32}};
  Rig rig(config);
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));

  const FlowKey monitored{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  const FlowKey unmonitored{rig.h3->addr(), rig.h2->addr(), 6, 2000, 80};
  for (int i = 0; i < 20; ++i) rig.h1->send(packet::make_tcp(monitored, 400));
  for (int i = 0; i < 20; ++i) rig.h3->send(packet::make_tcp(unmonitored, 400));
  rig.finish();

  backend::EventQuery by_monitored;
  by_monitored.flow = monitored;
  EXPECT_FALSE(store::scan_rows(*rig.store, by_monitored).empty());

  backend::EventQuery by_unmonitored;
  by_unmonitored.flow = unmonitored;
  EXPECT_TRUE(store::scan_rows(*rig.store, by_unmonitored).empty());
  EXPECT_GT(rig.app2->filtered_events(), 0u);
}

TEST(PartialDeployment, EmptyFilterMonitorsEverything) {
  Rig rig;  // default config
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  const FlowKey flow{rig.h3->addr(), rig.h2->addr(), 6, 2000, 80};
  for (int i = 0; i < 5; ++i) rig.h3->send(packet::make_tcp(flow, 400));
  rig.finish();
  backend::EventQuery query;
  query.flow = flow;
  EXPECT_FALSE(store::scan_rows(*rig.store, query).empty());
  EXPECT_EQ(rig.app2->filtered_events(), 0u);
}

// ---- Hardware failures (§3.7 / Fig. 4) --------------------------------------

TEST(HardwareFailure, AsicFailureInvisibleToNetSeerButSyslogged) {
  Rig rig;
  monitors::SyslogCollector syslog(rig.net.simulator());
  syslog.attach(*rig.s2);

  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 5; ++i) rig.h1->send(packet::make_tcp(flow, 400));
  rig.net.simulator().run();

  rig.s2->inject_hardware_fault(pdp::HardwareFault::kAsicFailure);
  for (int i = 0; i < 50; ++i) rig.h1->send(packet::make_tcp(flow, 400));
  rig.finish();

  EXPECT_EQ(rig.s2->hardware_discards(), 50u);
  // NetSeer saw nothing: the dead ASIC never ran the pipeline. (The
  // upstream switch cannot tell either — the peer simply went silent.)
  backend::EventQuery drops;
  drops.type = EventType::kDrop;
  EXPECT_TRUE(store::scan_rows(*rig.store, drops).empty());
  // But the self-check raised an alert — the §3.7 division of labor.
  EXPECT_TRUE(syslog.has_alert_for(rig.s2->id()));
}

TEST(HardwareFailure, MmuFailureSilentlyEatsAdmittedPackets) {
  Rig rig;
  rig.s1->inject_hardware_fault(pdp::HardwareFault::kMmuFailure,
                                /*self_check_detects=*/false);
  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 30; ++i) rig.h1->send(packet::make_tcp(flow, 400));
  rig.finish();
  EXPECT_EQ(rig.s1->hardware_discards(), 30u);
  EXPECT_EQ(rig.h2->rx_packets(), 0u);
  EXPECT_EQ(rig.s1->total_drops(), 0u);  // no counter anywhere
}

TEST(HardwareFailure, ActiveProbingStillDetectsDeadSwitch) {
  // Fig. 4: "A switch cannot forward packets, which can be detected
  // through active probing."
  Rig rig;
  monitors::PingmeshProber prober(rig.net.simulator(), {rig.h1, rig.h2},
                                  util::milliseconds(2), util::milliseconds(5));
  rig.s2->inject_hardware_fault(pdp::HardwareFault::kAsicFailure);
  rig.net.simulator().run_until(util::milliseconds(20));
  prober.stop();
  EXPECT_GT(prober.lost_probes(), 0u);
}

TEST(HardwareFailure, HealingRestoresForwarding) {
  Rig rig;
  rig.s2->inject_hardware_fault(pdp::HardwareFault::kAsicFailure);
  rig.s2->inject_hardware_fault(pdp::HardwareFault::kNone);
  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 10; ++i) rig.h1->send(packet::make_tcp(flow, 400));
  rig.finish();
  EXPECT_EQ(rig.h2->rx_packets(), 10u);
}

// ---- Inter-card drops on a multi-board chassis (§3.3) -----------------------

TEST(MultiBoard, InterCardDropsRecoveredLikeInterSwitch) {
  fabric::Network net(9);
  ReportChannel channel(net.simulator(), util::Rng(3), util::milliseconds(1), 0.0);
  pdp::SwitchConfig sc;
  sc.num_ports = 4;
  sc.port_rate = util::BitRate::gbps(10);
  auto chassis = fabric::add_multiboard_switch(net, "chassis", sc);
  auto& h1 = net.add_host("h1", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(10));
  auto& h2 = net.add_host("h2", Ipv4Addr::from_octets(10, 0, 1, 1), util::BitRate::gbps(10));
  net.connect_host(*chassis.board_a, 0, h1, util::microseconds(1));
  net.connect_host(*chassis.board_b, 0, h2, util::microseconds(1));
  net.compute_routes();

  store::FlowEventStore store;
  backend::Collector collector(net.simulator(), 1000, channel, store);
  NetSeerConfig config;
  NetSeerApp app_a(*chassis.board_a, config, &channel, 1000);
  NetSeerApp app_b(*chassis.board_b, config, &channel, 1000);
  NetSeerNicAgent nic1, nic2;
  h1.set_nic_agent(&nic1);
  h2.set_nic_agent(&nic2);

  const FlowKey flow{h1.addr(), h2.addr(), 6, 1000, 80};
  for (int i = 0; i < 5; ++i) h1.send(packet::make_tcp(flow, 500));
  net.simulator().run();

  // Backplane silently corrupts/drops — the Fig. 4 "inter-card drop".
  net::LinkFaultModel faults;
  faults.drop_prob = 0.08;
  chassis.backplane_ab->set_fault_model(faults);
  for (int i = 0; i < 300; ++i) h1.send(packet::make_tcp(flow, 500));
  net.simulator().run();
  chassis.backplane_ab->set_fault_model({});
  for (int i = 0; i < 20; ++i) h1.send(packet::make_tcp(flow, 500));
  net.simulator().run();
  app_a.flush();
  app_b.flush();
  net.simulator().run();

  std::uint64_t recovered = 0;
  backend::EventQuery query;
  query.flow = flow;
  for (const auto& stored : store.scan(query)) {
    if (stored.event.type == EventType::kDrop) {
      // Attributed to the upstream BOARD — localizing the failing card.
      EXPECT_EQ(stored.event.switch_id, chassis.board_a->id());
      recovered += stored.event.counter;
    }
  }
  EXPECT_EQ(recovered, chassis.backplane_ab->packets_dropped());
  EXPECT_GT(recovered, 5u);
}

// ---- Flexible flow identifiers (§3.4) ----------------------------------------

/// The distinct flows of the stored drop events, in store order, and the
/// packets those events count.
std::pair<std::vector<FlowKey>, std::uint64_t> drop_flows(const store::FlowEventStore& events) {
  std::vector<FlowKey> flows;
  std::uint64_t packets = 0;
  for (const auto& stored : events.scan(backend::EventQuery{}.of_type(EventType::kDrop))) {
    if (std::find(flows.begin(), flows.end(), stored.event.flow) == flows.end()) {
      flows.push_back(stored.event.flow);
    }
    packets += stored.event.counter;
  }
  return {flows, packets};
}

TEST(FlowIdModes, CanonicalFlowZeroesOutOfScopeFields) {
  const FlowKey full{Ipv4Addr::from_octets(1, 2, 3, 4), Ipv4Addr::from_octets(5, 6, 7, 8), 6,
                     1111, 80};
  EXPECT_EQ(canonical_flow(full, FlowIdMode::k5Tuple), full);
  const auto pair = canonical_flow(full, FlowIdMode::kHostPair);
  EXPECT_EQ(pair.src, full.src);
  EXPECT_EQ(pair.dst, full.dst);
  EXPECT_EQ(pair.sport, 0);
  EXPECT_EQ(pair.dport, 0);
  EXPECT_EQ(pair.proto, 0);
  const auto dst = canonical_flow(full, FlowIdMode::kDstOnly);
  EXPECT_EQ(dst.src, Ipv4Addr{});
  EXPECT_EQ(dst.dst, full.dst);
}

TEST(FlowIdModes, HostPairAggregatesAcrossPorts) {
  NetSeerConfig config;
  config.flow_id_mode = FlowIdMode::kHostPair;
  Rig rig(config);
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  // 40 distinct 5-tuples between the same host pair.
  for (std::uint16_t s = 0; s < 40; ++s) {
    rig.h1->send(packet::make_tcp(FlowKey{rig.h1->addr(), rig.h2->addr(), 6,
                                          static_cast<std::uint16_t>(5000 + s), 80},
                                  400));
  }
  rig.finish();

  // All drops merge into ONE host-pair flow event stream.
  const auto [flows, dropped] = drop_flows(*rig.store);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].sport, 0);
  EXPECT_EQ(flows[0].src, rig.h1->addr());
  EXPECT_EQ(dropped, 40u);
}

TEST(FlowIdModes, DstOnlyAggregatesAcrossSenders) {
  NetSeerConfig config;
  config.flow_id_mode = FlowIdMode::kDstOnly;
  Rig rig(config);
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  for (int i = 0; i < 10; ++i) {
    rig.h1->send(packet::make_tcp(FlowKey{rig.h1->addr(), rig.h2->addr(), 6, 5000, 80}, 400));
    rig.h3->send(packet::make_tcp(FlowKey{rig.h3->addr(), rig.h2->addr(), 6, 6000, 80}, 400));
  }
  rig.finish();
  const auto [flows, dropped] = drop_flows(*rig.store);
  ASSERT_EQ(flows.size(), 1u);  // one destination-service event stream
  EXPECT_EQ(flows[0].dst, rig.h2->addr());
  EXPECT_EQ(dropped, 20u);
}

// ---- Closed-loop transport meets NetSeer (Case #5's observable) -------------

TEST(ClosedLoop, TcpRetransmissionsExplainedByBackendEvents) {
  // The Case-#5 situation inverted: TCP retransmits DO have a network
  // cause here, and the backend names the packets. A TCP flow crosses a
  // link with a lossy window; every loss the sender had to repair is
  // visible as an upstream drop event for exactly that flow.
  Rig rig;
  // Sync the link's sequence stream before the faults begin.
  for (int i = 0; i < 5; ++i) {
    rig.h1->send(packet::make_tcp(FlowKey{rig.h1->addr(), rig.h2->addr(), 6, 1, 2}, 100));
  }
  rig.net.simulator().run();

  traffic::TcpReceiver receiver;
  rig.h2->add_app(&receiver);
  traffic::TcpConfig tcp;
  tcp.rto = util::milliseconds(5);
  traffic::TcpSender sender(*rig.h1, rig.h2->addr(), 45000, 3000, tcp);
  rig.h1->add_app(&sender);

  net::LinkFaultModel faults;
  faults.drop_prob = 0.02;
  rig.s1_to_s2->set_fault_model(faults);
  sender.start();
  // Heal once the transfer is mid-flight; TCP's own retransmissions
  // provide the subsequent packets that expose trailing gaps.
  (void)rig.net.simulator().schedule_at(rig.net.simulator().now() + util::milliseconds(2),
                                  [&rig] { rig.s1_to_s2->set_fault_model({}); });
  rig.net.simulator().run_until(util::seconds(5));
  rig.finish();

  ASSERT_TRUE(sender.done());
  ASSERT_GT(sender.retransmissions(), 0u);

  // Data-direction drops on the wire, recovered by s1 with the flow id.
  const packet::FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 45000, 8080};
  backend::EventQuery query;
  query.flow = flow;
  std::uint64_t data_drops = 0;
  for (const auto& stored : rig.store->scan(query)) {
    if (stored.event.type == EventType::kDrop) data_drops += stored.event.counter;
  }
  // ACK-direction losses can also force retransmits; the data-direction
  // events must cover at least the unique lost segments.
  EXPECT_GT(data_drops, 0u);
  EXPECT_EQ(data_drops, rig.s1_to_s2->packets_dropped());
}

TEST(ClosedLoop, CleanTcpTransferProducesNoAnomalyEvents) {
  Rig rig;
  traffic::TcpReceiver receiver;
  rig.h2->add_app(&receiver);
  traffic::TcpSender sender(*rig.h1, rig.h2->addr(), 45001, 400);
  rig.h1->add_app(&sender);
  sender.start();
  rig.net.simulator().run();
  rig.finish();

  ASSERT_TRUE(sender.done());
  for (const auto& stored : rig.store->scan({})) {
    EXPECT_EQ(stored.event.type, EventType::kPathChange) << stored.event.to_string();
  }
}

}  // namespace
}  // namespace netseer::core
