#include "fabric/network.h"

#include <gtest/gtest.h>

#include "fabric/fat_tree.h"
#include "packet/builder.h"

namespace netseer::fabric {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;

class CountingApp final : public net::HostApp {
 public:
  void on_receive(net::Host&, const packet::Packet& pkt) override {
    ++count;
    last = pkt;
  }
  int count = 0;
  std::optional<packet::Packet> last;
};

TEST(Network, TwoSwitchForwarding) {
  Network net(1);
  pdp::SwitchConfig sc;
  sc.num_ports = 4;
  auto& s1 = net.add_switch("s1", sc);
  auto& s2 = net.add_switch("s2", sc);
  auto& h1 = net.add_host("h1", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(25));
  auto& h2 = net.add_host("h2", Ipv4Addr::from_octets(10, 0, 1, 1), util::BitRate::gbps(25));
  net.connect_host(s1, 0, h1, util::microseconds(1));
  net.connect_host(s2, 0, h2, util::microseconds(1));
  net.connect_switches(s1, 1, s2, 1, util::microseconds(1));
  net.compute_routes();

  CountingApp app;
  h2.add_app(&app);

  h1.send(packet::make_tcp(FlowKey{h1.addr(), h2.addr(), 6, 1000, 80}, 500));
  net.simulator().run();

  ASSERT_EQ(app.count, 1);
  EXPECT_EQ(app.last->ip->ttl, 62);  // two switch hops
  EXPECT_EQ(s1.counters(0).rx_packets, 1u);
  EXPECT_EQ(s2.counters(1).rx_packets, 1u);
}

TEST(Network, FindByName) {
  Network net(1);
  pdp::SwitchConfig sc;
  auto& s1 = net.add_switch("s1", sc);
  auto& h1 = net.add_host("h1", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(25));
  EXPECT_EQ(net.find_switch("s1"), &s1);
  EXPECT_EQ(net.find_switch("nope"), nullptr);
  EXPECT_EQ(net.find_host("h1"), &h1);
  EXPECT_EQ(net.find_host("nope"), nullptr);
  EXPECT_EQ(net.node(s1.id()), &s1);
  EXPECT_EQ(net.node(h1.id()), &h1);
  EXPECT_EQ(net.node(9999), nullptr);
}

TEST(Testbed, HasPaperDimensions) {
  auto tb = make_testbed();
  EXPECT_EQ(tb.cores.size(), 2u);
  EXPECT_EQ(tb.aggs.size(), 4u);
  EXPECT_EQ(tb.tors.size(), 4u);
  EXPECT_EQ(tb.all_switches().size(), 10u);  // matches the paper's testbed
  EXPECT_EQ(tb.hosts.size(), 32u);
}

TEST(Testbed, AnyToAnyReachability) {
  auto tb = make_testbed();
  std::vector<CountingApp> apps(tb.hosts.size());
  for (std::size_t i = 0; i < tb.hosts.size(); ++i) tb.hosts[i]->add_app(&apps[i]);

  // Every host sends one packet to every other host.
  int sent = 0;
  for (auto* src : tb.hosts) {
    for (auto* dst : tb.hosts) {
      if (src == dst) continue;
      src->send(packet::make_tcp(FlowKey{src->addr(), dst->addr(), 6, 1000, 80}, 100));
      ++sent;
    }
  }
  tb.net->simulator().run();

  int received = 0;
  for (const auto& app : apps) received += app.count;
  EXPECT_EQ(received, sent);
  // No drops anywhere.
  for (auto* sw : tb.all_switches()) EXPECT_EQ(sw->total_drops(), 0u) << sw->name();
}

TEST(Testbed, CrossPodTraversesCore) {
  auto tb = make_testbed();
  CountingApp app;
  // h0 is in pod 0; the last host is in pod 1.
  auto* src = tb.hosts.front();
  auto* dst = tb.hosts.back();
  dst->add_app(&app);
  src->send(packet::make_tcp(FlowKey{src->addr(), dst->addr(), 6, 1, 2}, 100));
  tb.net->simulator().run();
  ASSERT_EQ(app.count, 1);
  // host ttl 64, minus tor, agg, core, agg, tor = 5 hops.
  EXPECT_EQ(app.last->ip->ttl, 59);
  std::uint64_t core_rx = 0;
  for (auto* core : tb.cores) {
    for (util::PortId p = 0; p < core->config().num_ports; ++p) {
      core_rx += core->counters(p).rx_packets;
    }
  }
  EXPECT_EQ(core_rx, 1u);
}

TEST(Testbed, SamePodStaysInPod) {
  auto tb = make_testbed();
  CountingApp app;
  auto* src = tb.hosts[0];   // pod 0, tor 0
  auto* dst = tb.hosts[8];   // pod 0, tor 1 (8 hosts per tor)
  dst->add_app(&app);
  src->send(packet::make_tcp(FlowKey{src->addr(), dst->addr(), 6, 1, 2}, 100));
  tb.net->simulator().run();
  ASSERT_EQ(app.count, 1);
  EXPECT_EQ(app.last->ip->ttl, 61);  // tor, agg, tor
}

TEST(Testbed, EcmpUsesBothAggs) {
  auto tb = make_testbed(TestbedConfig{}, /*seed=*/3);
  auto* src = tb.hosts[0];
  auto* dst = tb.hosts[8];
  for (std::uint16_t s = 0; s < 200; ++s) {
    src->send(packet::make_tcp(FlowKey{src->addr(), dst->addr(), 6, s, 80}, 100));
  }
  tb.net->simulator().run();
  // Traffic from tor0-0 to tor0-1 can go via agg0-0 or agg0-1.
  std::uint64_t agg0 = 0, agg1 = 0;
  for (util::PortId p = 0; p < tb.aggs[0]->config().num_ports; ++p) {
    agg0 += tb.aggs[0]->counters(p).rx_packets;
    agg1 += tb.aggs[1]->counters(p).rx_packets;
  }
  EXPECT_GT(agg0, 30u);
  EXPECT_GT(agg1, 30u);
}

TEST(Testbed, FatTreeK4Shape) {
  auto tb = make_testbed(*resolve_topology("fat4"));
  EXPECT_EQ(tb.cores.size(), 4u);
  EXPECT_EQ(tb.aggs.size(), 8u);
  EXPECT_EQ(tb.tors.size(), 8u);
  EXPECT_EQ(tb.hosts.size(), 16u);
}

TEST(Testbed, FatTreeRejectsOddArity) {
  EXPECT_FALSE(resolve_topology("fat3"));
  EXPECT_FALSE(resolve_topology("fat0"));
}

TEST(Testbed, TopologyNamesParseStrictly) {
  for (const char* bad : {"fat4abc", "fat", "fat-2", "fat+4", "fat 4", "Fat4", "fat4 ", "tree",
                          "testbed2", "fat4294967298"}) {
    EXPECT_FALSE(resolve_topology(bad)) << bad;
  }
  TestbedConfig base;
  base.host_rate = util::BitRate::gbps(5);
  const auto testbed = resolve_topology("testbed", base);
  ASSERT_TRUE(testbed);
  EXPECT_EQ(testbed->num_pods, base.num_pods);
  EXPECT_EQ(testbed->hosts_per_tor, base.hosts_per_tor);
  const auto fat6 = resolve_topology("fat6", base);
  ASSERT_TRUE(fat6);
  EXPECT_EQ(fat6->num_pods, 6);
  EXPECT_EQ(fat6->aggs_per_pod, 3);
  EXPECT_EQ(fat6->tors_per_pod, 3);
  EXPECT_EQ(fat6->num_cores, 9);
  EXPECT_EQ(fat6->hosts_per_tor, 3);
  // The rest comes from the base.
  EXPECT_EQ(fat6->host_rate.bits_per_second(), base.host_rate.bits_per_second());
  EXPECT_TRUE(resolve_topology("fat2"));
}

TEST(Network, LinkBytesAccumulate) {
  auto tb = make_testbed();
  auto* src = tb.hosts[0];
  auto* dst = tb.hosts[31];
  src->send(packet::make_tcp(FlowKey{src->addr(), dst->addr(), 6, 1, 2}, 1000));
  tb.net->simulator().run();
  // 6 links on the path (host->tor, tor->agg, agg->core, core->agg,
  // agg->tor, tor->host), each carried ~1058 bytes.
  EXPECT_GE(tb.net->total_link_bytes_carried(), 6u * 1058u);
}

}  // namespace
}  // namespace netseer::fabric
