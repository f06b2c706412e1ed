#include "core/nic_agent.h"

#include <gtest/gtest.h>

#include "fabric/network.h"
#include "packet/builder.h"
#include "packet/pool.h"

namespace netseer::core {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;

struct Rig {
  Rig() : net(5) {
    host = &net.add_host("h", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(10));
    peer = &net.add_host("peer", Ipv4Addr::from_octets(10, 0, 0, 2), util::BitRate::gbps(10));
    pdp::SwitchConfig sc;
    sc.num_ports = 2;
    sw = &net.add_switch("s", sc);
    net.connect_host(*sw, 0, *host, util::microseconds(1));
    net.connect_host(*sw, 1, *peer, util::microseconds(1));
    net.compute_routes();
    host->set_nic_agent(&agent);
  }
  fabric::Network net;
  net::Host* host;
  net::Host* peer;
  pdp::Switch* sw;
  NetSeerNicAgent agent;
};

FlowKey flow(std::uint16_t sport = 1000) {
  return FlowKey{Ipv4Addr::from_octets(10, 0, 0, 1), Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                 sport, 80};
}

/// The ToR's view of the uplink: the ID each frame from the host carries
/// when it reaches the ToR's MAC.
class UplinkTags final : public pdp::SwitchAgent {
 public:
  void on_mac_rx(pdp::Switch& /*sw*/, const packet::Packet& pkt, util::PortId port,
                 bool /*corrupted*/) override {
    if (port != 0) return;
    ++frames;
    if (pkt.seq_tag) tags.push_back(*pkt.seq_tag);
  }
  int frames = 0;
  std::vector<std::uint32_t> tags;
};

class CountingApp final : public net::HostApp {
 public:
  void on_receive(net::Host& /*host*/, const packet::Packet& /*pkt*/) override { ++frames; }
  int frames = 0;
};

TEST(NicAgent, TagsOutgoingPackets) {
  Rig rig;
  UplinkTags tor;
  rig.sw->add_agent(&tor);
  for (int i = 0; i < 5; ++i) rig.host->send(packet::make_tcp(flow(), 100));
  rig.net.simulator().run();
  // Every frame is numbered, consecutively from 0, as the ToR's gap
  // detector expects.
  EXPECT_EQ(tor.frames, 5);
  EXPECT_EQ(tor.tags, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(NicAgent, NumbersFramesInDepartureOrder) {
  Rig rig;
  UplinkTags tor;
  rig.sw->add_agent(&tor);
  // Class-0 data backlogs on the NIC; then a downlink gap makes the NIC
  // send its loss notifications, which leave on class 7 ahead of the
  // data still queued.
  for (int i = 0; i < 5; ++i) rig.host->send(packet::make_tcp(flow(), 1000));
  for (const std::uint32_t seq : {0u, 2u}) {
    auto pkt = packet::make_tcp(flow().reversed(), 100);
    pkt.seq_tag = seq;
    rig.host->receive(packet::Pool::local().acquire(std::move(pkt)), 0);
  }
  rig.net.simulator().run();
  ASSERT_EQ(rig.agent.rx_module().gaps(), 1u);
  // The ToR's gap detector sees every ID in order: no false gap.
  EXPECT_EQ(tor.frames, 8);
  EXPECT_EQ(tor.tags, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(NicAgent, StripsIncomingTags) {
  Rig rig;
  auto pkt = packet::make_tcp(flow().reversed(), 100);
  pkt.seq_tag = 0;
  rig.host->receive(packet::Pool::local().acquire(std::move(pkt)), 0);
  EXPECT_EQ(rig.agent.rx_module().received(), 1u);
}

TEST(NicAgent, GapTriggersNotificationUpstream) {
  Rig rig;
  // Simulate the switch's numbered stream with a hole at seq 1.
  for (const std::uint32_t seq : {0u, 2u}) {
    auto pkt = packet::make_tcp(flow().reversed(), 100);
    pkt.seq_tag = seq;
    rig.host->receive(packet::Pool::local().acquire(std::move(pkt)), 0);
  }
  rig.net.simulator().run();
  // Three redundant notification copies left the NIC toward the switch;
  // the switch's pipeline consumed them (no NetSeer app here, so they
  // are counted at the switch as consumed control traffic or dropped by
  // the parser — either way they were sent).
  EXPECT_EQ(rig.agent.rx_module().gaps(), 1u);
}

TEST(NicAgent, ConsumesUplinkNotificationsWithoutAnswering) {
  Rig rig;
  CountingApp app;
  rig.host->add_app(&app);
  for (int i = 0; i < 5; ++i) rig.host->send(packet::make_tcp(flow(), 100));
  rig.net.simulator().run();
  ASSERT_EQ(rig.host->nic().tx_packets(), 5u);

  // The ToR reports uplink IDs 2..3 lost, in three copies numbered like
  // the rest of its downlink stream.
  for (std::uint8_t copy = 0; copy < 3; ++copy) {
    auto notify = make_loss_notification(2, 3, copy);
    notify.seq_tag = copy;
    rig.host->receive(packet::Pool::local().acquire(std::move(notify)), 0);
  }
  rig.net.simulator().run();
  EXPECT_EQ(app.frames, 0);                     // the host's apps see nothing
  EXPECT_EQ(rig.host->rx_packets(), 0u);        // the NIC consumed all three
  EXPECT_EQ(rig.host->nic().tx_packets(), 5u);  // and sent nothing back
  EXPECT_EQ(rig.agent.rx_module().gaps(), 0u);
}

}  // namespace
}  // namespace netseer::core
