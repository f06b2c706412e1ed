// Tests of partial deployment (§2.3): only flows with an endpoint in a
// monitored prefix raise events.
#include <gtest/gtest.h>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/network.h"
#include "packet/builder.h"
#include "scan_rows.h"

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
    net.connect_switches(*s1, 1, *s2, 1, util::microseconds(1));
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

}  // namespace
}  // namespace netseer::core
