#include "core/netseer_app.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "backend/collector.h"
#include "core/nic_agent.h"
#include "fabric/network.h"
#include "packet/builder.h"
#include "scan_rows.h"

namespace netseer::core {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

/// h1 -- s1 -- s2 -- h2 with NetSeer on both switches and both NICs,
/// reporting to a backend collector over a clean management channel.
struct Rig {
  explicit Rig(NetSeerConfig config = {}, pdp::MmuConfig mmu = {})
      : net(7), channel(net.simulator(), util::Rng(3), util::milliseconds(1), 0.0) {
    pdp::SwitchConfig sc;
    sc.num_ports = 4;
    sc.port_rate = util::BitRate::gbps(10);
    sc.mmu = mmu;
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
    s2_to_s1 = l21;
    net.compute_routes();

    store = std::make_unique<store::FlowEventStore>();
    collector = std::make_unique<backend::Collector>(net.simulator(), 1000, channel, *store);
    app1 = std::make_unique<NetSeerApp>(*s1, config, &channel, 1000);
    app2 = std::make_unique<NetSeerApp>(*s2, config, &channel, 1000);
    nic1 = std::make_unique<NetSeerNicAgent>();
    nic2 = std::make_unique<NetSeerNicAgent>();
    h1->set_nic_agent(nic1.get());
    h2->set_nic_agent(nic2.get());
  }

  FlowKey flow(std::uint16_t sport) const {
    return FlowKey{h1->addr(), h2->addr(), 6, sport, 80};
  }

  void send_burst(int packets, std::uint16_t sport = 1000, std::uint32_t payload = 500) {
    for (int i = 0; i < packets; ++i) {
      h1->send(packet::make_tcp(flow(sport), payload));
    }
  }

  void send_burst_from_h3(int packets, std::uint16_t sport, std::uint32_t payload = 1400) {
    for (int i = 0; i < packets; ++i) {
      h3->send(packet::make_tcp(FlowKey{h3->addr(), h2->addr(), 6, sport, 80}, payload));
    }
  }

  void finish() {
    net.simulator().run();
    app1->flush();
    app2->flush();
    net.simulator().run();
    app1->flush();
    app2->flush();
    net.simulator().run();
  }

  [[nodiscard]] std::vector<backend::StoredEvent> events(EventType type) const {
    backend::EventQuery query;
    query.type = type;
    return store::scan_rows(*store, query);
  }

  fabric::Network net;
  ReportChannel channel;
  pdp::Switch* s1;
  pdp::Switch* s2;
  net::Host* h1;
  net::Host* h2;
  net::Host* h3;
  net::Link* s1_to_s2;
  net::Link* s2_to_s1;
  std::unique_ptr<store::FlowEventStore> store;
  std::unique_ptr<backend::Collector> collector;
  std::unique_ptr<NetSeerApp> app1;
  std::unique_ptr<NetSeerApp> app2;
  std::unique_ptr<NetSeerNicAgent> nic1;
  std::unique_ptr<NetSeerNicAgent> nic2;
};

TEST(NetSeerApp, CleanTrafficProducesOnlyPathEvents) {
  Rig rig;
  rig.send_burst(100);
  rig.finish();
  EXPECT_TRUE(rig.events(EventType::kDrop).empty());
  EXPECT_TRUE(rig.events(EventType::kCongestion).empty());
  EXPECT_TRUE(rig.events(EventType::kPause).empty());
  // The new flow's path is reported once per switch.
  const auto paths = rig.events(EventType::kPathChange);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_EQ(rig.h2->rx_packets(), 100u);
}

TEST(NetSeerApp, RouteMissDropsReportedWithFlow) {
  Rig rig;
  // Blackhole h2's /32 on s2 (the Case-#1 routing-error shape).
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.send_burst(50);
  rig.finish();

  const auto drops = rig.events(EventType::kDrop);
  ASSERT_FALSE(drops.empty());
  std::uint64_t total = 0;
  for (const auto& stored : drops) {
    EXPECT_EQ(stored.event.flow, rig.flow(1000));
    EXPECT_EQ(stored.event.drop_code,
              static_cast<std::uint8_t>(pdp::DropReason::kRouteMiss));
    EXPECT_EQ(stored.event.switch_id, rig.s2->id());
    total += stored.event.counter;
  }
  EXPECT_EQ(total, 50u);  // every dropped packet accounted
}

TEST(NetSeerApp, ParityErrorBlackholeCaught) {
  Rig rig;
  // The Case-#3 silent bit-flip: corrupt the route entry instead of
  // removing it.
  ASSERT_TRUE(rig.s2->routes().set_corrupted(Ipv4Prefix{rig.h2->addr(), 32}, true));
  rig.send_burst(20);
  rig.finish();
  const auto drops = rig.events(EventType::kDrop);
  ASSERT_FALSE(drops.empty());
  EXPECT_EQ(drops[0].event.drop_code,
            static_cast<std::uint8_t>(pdp::DropReason::kRouteMiss));
}

TEST(NetSeerApp, AclDropsAggregatedByRule) {
  Rig rig;
  pdp::AclRule rule;
  rule.rule_id = 42;
  rule.dst = Ipv4Prefix{rig.h2->addr(), 32};
  rule.permit = false;
  rig.s1->acl().add_rule(rule);

  // 30 distinct flows all denied by one rule.
  for (std::uint16_t s = 0; s < 30; ++s) rig.send_burst(1, 2000 + s);
  rig.finish();

  const auto acl = rig.events(EventType::kAclDrop);
  ASSERT_FALSE(acl.empty());
  EXPECT_LE(acl.size(), 3u);  // rule granularity, not flow granularity
  EXPECT_EQ(acl[0].event.acl_rule_id, 42);
  EXPECT_TRUE(rig.events(EventType::kDrop).empty());
}

TEST(NetSeerApp, InterSwitchSilentDropRecovered) {
  Rig rig;
  rig.send_burst(5);  // sync the sequence stream before injecting faults
  rig.net.simulator().run();
  net::LinkFaultModel faults;
  faults.drop_prob = 0.05;
  rig.s1_to_s2->set_fault_model(faults);

  rig.send_burst(400);
  rig.net.simulator().run();
  // Clean tail: trailing losses are only detectable once later packets
  // expose the gap and trigger the ring-buffer lookups.
  rig.s1_to_s2->set_fault_model(net::LinkFaultModel{});
  rig.send_burst(20);
  rig.finish();

  const auto drops = rig.events(EventType::kDrop);
  ASSERT_FALSE(drops.empty());
  std::uint64_t recovered = 0;
  for (const auto& stored : drops) {
    EXPECT_EQ(stored.event.drop_code,
              static_cast<std::uint8_t>(pdp::DropReason::kLinkLoss));
    EXPECT_EQ(stored.event.switch_id, rig.s1->id());  // upstream reports
    EXPECT_EQ(stored.event.flow, rig.flow(1000));
    recovered += stored.event.counter;
  }
  EXPECT_EQ(recovered, rig.s1_to_s2->packets_dropped());
  EXPECT_GT(recovered, 5u);
}

TEST(NetSeerApp, CorruptionDropRecovered) {
  Rig rig;
  rig.send_burst(5);  // sync the sequence stream before injecting faults
  rig.net.simulator().run();
  net::LinkFaultModel faults;
  faults.corrupt_prob = 0.05;
  rig.s1_to_s2->set_fault_model(faults);

  rig.send_burst(400);
  rig.net.simulator().run();
  rig.s1_to_s2->set_fault_model(net::LinkFaultModel{});
  rig.send_burst(20);
  rig.finish();

  // Corrupted frames die at s2's MAC; s1 recovers their flows.
  std::uint64_t recovered = 0;
  for (const auto& stored : rig.events(EventType::kDrop)) {
    recovered += stored.event.counter;
  }
  EXPECT_EQ(recovered, rig.s1_to_s2->packets_corrupted());
  EXPECT_GT(rig.s2->counters(1).rx_fcs_errors, 0u);
}

TEST(NetSeerApp, CongestionEventsCarryLatency) {
  NetSeerConfig config;
  config.congestion_threshold = util::microseconds(5);
  Rig rig(config);
  // h1 and h3 (10G each) converge on the 10G s1->s2 link: the s1 egress
  // queue backs up.
  rig.send_burst(200, 3000, 1400);
  rig.send_burst_from_h3(200, 3001);
  rig.finish();

  const auto congestion = rig.events(EventType::kCongestion);
  ASSERT_FALSE(congestion.empty());
  for (const auto& stored : congestion) {
    EXPECT_GT(stored.event.queue_latency_us, 0);
    EXPECT_EQ(stored.event.switch_id, rig.s1->id());
    EXPECT_EQ(stored.event.egress_port, 1);
  }
  // Both contending flows show up.
  std::unordered_set<FlowKey, packet::FlowKeyHash> flows;
  for (const auto& stored : congestion) flows.insert(stored.event.flow);
  EXPECT_EQ(flows.size(), 2u);
}

TEST(NetSeerApp, MmuDropsReported) {
  pdp::MmuConfig mmu;
  mmu.queue_capacity_bytes = 4000;  // tiny queues force tail drops
  Rig rig(NetSeerConfig{}, mmu);
  rig.send_burst(100, 4000, 1400);
  rig.send_burst_from_h3(100, 4001);
  rig.finish();

  std::uint64_t mmu_drop_events = 0;
  for (const auto& stored : rig.events(EventType::kDrop)) {
    if (stored.event.drop_code == static_cast<std::uint8_t>(pdp::DropReason::kCongestion)) {
      mmu_drop_events += stored.event.counter;
    }
  }
  const auto actual = rig.s1->drops(pdp::DropReason::kCongestion) +
                      rig.s2->drops(pdp::DropReason::kCongestion);
  EXPECT_GT(actual, 0u);
  EXPECT_EQ(mmu_drop_events, actual);
}

TEST(NetSeerApp, PathChangeOnReroute) {
  Rig rig;
  rig.send_burst(10);
  rig.net.simulator().run();
  // Add a parallel s1<->s2 link and reroute h2's prefix over it: packets
  // of the established flow flip from egress port 1 to port 3 at s1 —
  // the §3.3 path-change signature (e.g. a faulty network update).
  auto [l2a, l2b] = rig.net.connect_switches(*rig.s1, 3, *rig.s2, 3, util::microseconds(1));
  (void)l2a;
  (void)l2b;
  rig.s1->routes().insert(Ipv4Prefix{rig.h2->addr(), 32}, pdp::EcmpGroup{{3}});
  rig.send_burst(10);
  rig.finish();

  const auto paths = rig.events(EventType::kPathChange);
  // s1 must have reported the flow twice: once new (egress 1), once
  // changed (egress 3).
  int s1_reports = 0;
  bool saw_port1 = false, saw_port3 = false;
  for (const auto& stored : paths) {
    if (stored.event.switch_id == rig.s1->id()) {
      ++s1_reports;
      saw_port1 |= (stored.event.egress_port == 1);
      saw_port3 |= (stored.event.egress_port == 3);
    }
  }
  EXPECT_GE(s1_reports, 2);
  EXPECT_TRUE(saw_port1);
  EXPECT_TRUE(saw_port3);
}

TEST(NetSeerApp, EdgeLinkDropCoveredByNic) {
  Rig rig;
  // Sync the sequence stream first: losses before the receiver has seen
  // any sequence number are undetectable by design.
  rig.send_burst(5);
  rig.net.simulator().run();
  // Faults on the s2 -> h2 edge link: h2's NIC detects the gap and
  // notifies s2, which recovers the flows from its ring buffer.
  net::LinkFaultModel faults;
  faults.drop_prob = 0.1;
  // The switch->host direction link is the 2nd of the pair created in
  // connect_host; find it via s2's port 0.
  rig.s2->link(0)->set_fault_model(faults);

  rig.send_burst(300);
  rig.net.simulator().run();
  rig.s2->link(0)->set_fault_model(net::LinkFaultModel{});
  rig.send_burst(20);
  rig.finish();

  std::uint64_t recovered = 0;
  for (const auto& stored : rig.events(EventType::kDrop)) {
    if (stored.event.switch_id == rig.s2->id()) recovered += stored.event.counter;
  }
  const auto& tx = rig.app2->tx_module(0);
  EXPECT_EQ(recovered, rig.s2->link(0)->packets_dropped())
      << "tx reported=" << tx.drops_reported() << " misses=" << tx.lookup_misses()
      << " notifications=" << tx.notifications() << " dup=" << tx.duplicate_notifications()
      << " nic gaps=" << rig.nic2->rx_module().gaps()
      << " nic gap_packets=" << rig.nic2->rx_module().gap_packets()
      << " cache offered=" << rig.app2->cache(EventType::kDrop).offered()
      << " reports=" << rig.app2->cache(EventType::kDrop).reports()
      << " fp_elim=" << rig.app2->cpu().fp().eliminated()
      << " stack_overflow=" << rig.app2->stack().overflows();
  EXPECT_GT(recovered, 0u);
}

TEST(NetSeerApp, OnlyPortsThatTransmitHoldARing) {
  Rig rig;
  rig.send_burst(10);
  rig.finish();
  EXPECT_TRUE(rig.app1->tx_module(1).has_ring());   // s1 -> s2 carried the burst
  EXPECT_FALSE(rig.app1->tx_module(3).has_ring());  // no cable on port 3
  EXPECT_EQ(rig.app1->tx_module(3).sram_bytes(), rig.app1->tx_module(1).sram_bytes());
}

TEST(NetSeerApp, CachesOnlyDropCongestionAndPause) {
  Rig rig;
  for (const auto type : {EventType::kDrop, EventType::kCongestion, EventType::kPause}) {
    EXPECT_EQ(rig.app1->cache(type).offered(), 0u);
  }
  // Path changes bypass dedup, and ACL drops are aggregated per rule.
  EXPECT_THROW((void)rig.app1->cache(EventType::kPathChange), std::out_of_range);
  EXPECT_THROW((void)rig.app1->cache(EventType::kAclDrop), std::out_of_range);
}

TEST(NetSeerApp, FlushSendsTheStackThroughTheBatcher) {
  Rig rig;
  // 120 blackholed flows of two packets each leave a residual count per
  // flow in s2's drop cache; flush() puts those reports on the event
  // stack and drains it.
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  for (std::uint16_t sport = 1; sport <= 120; ++sport) rig.send_burst(2, sport);
  rig.net.simulator().run();
  const NetSeerApp& app = *rig.app2;
  const std::uint64_t pushes = app.stack().pushes();

  rig.app2->flush();
  EXPECT_GT(app.stack().pushes(), pushes);
  EXPECT_TRUE(app.stack().empty());
  // Every batch the PCIe channel received, teardown batches included,
  // came out of the batcher.
  EXPECT_EQ(app.batcher().batches_flushed(), app.pcie().batches_submitted());
  rig.net.simulator().run();
  EXPECT_EQ(app.cpu().events_received(), app.batcher().events_batched());
}

TEST(NetSeerApp, FunnelAccountingIsConsistent) {
  Rig rig;
  net::LinkFaultModel faults;
  faults.drop_prob = 0.02;
  rig.s1_to_s2->set_fault_model(faults);
  rig.send_burst(500);
  rig.finish();

  const auto& funnel = rig.app1->funnel();
  EXPECT_GT(funnel.traffic_bytes, 0u);
  EXPECT_GT(funnel.event_packets, 0u);
  EXPECT_LE(funnel.dedup_reports, funnel.event_packets);
  EXPECT_GT(funnel.extracted_bytes, 0u);
  EXPECT_LT(funnel.overhead_ratio(), 0.05);
}

TEST(NetSeerApp, ZeroFalsePositivesOnCleanRun) {
  Rig rig;
  rig.send_burst(1000);
  rig.finish();
  // No drops, no congestion, no pause events stored — network is
  // exonerated ("if no flow event is happening, the network is
  // innocent", §3.1).
  EXPECT_TRUE(rig.events(EventType::kDrop).empty());
  EXPECT_TRUE(rig.events(EventType::kCongestion).empty());
  EXPECT_TRUE(rig.events(EventType::kPause).empty());
  EXPECT_TRUE(rig.events(EventType::kAclDrop).empty());
}

TEST(NetSeerApp, QueryByDeviceAndPeriod) {
  Rig rig;
  ASSERT_TRUE(rig.s2->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  rig.send_burst(10);
  rig.finish();

  backend::EventQuery by_device;
  by_device.switch_id = rig.s2->id();
  EXPECT_FALSE(store::scan_rows(*rig.store, by_device).empty());

  backend::EventQuery by_flow;
  by_flow.flow = rig.flow(1000);
  EXPECT_FALSE(store::scan_rows(*rig.store, by_flow).empty());

  backend::EventQuery wrong_period;
  wrong_period.from = util::seconds(100);
  EXPECT_TRUE(store::scan_rows(*rig.store, wrong_period).empty());
}

}  // namespace
}  // namespace netseer::core
