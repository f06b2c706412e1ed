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

TEST(NicAgent, TagsOutgoingPackets) {
  Rig rig;
  for (std::uint32_t i = 0; i < 5; ++i) {
    rig.host->send(packet::make_tcp(flow(), 100));
  }
  EXPECT_EQ(rig.agent.tx_module().packets_sent(), 5u);
  EXPECT_EQ(rig.agent.tx_module().next_seq(), 5u);
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

TEST(NicAgent, ConsumesNotificationsAndLogsLocally) {
  Rig rig;
  // The NIC transmitted seqs 0..4; the peer reports 2..3 missing.
  for (int i = 0; i < 5; ++i) rig.host->send(packet::make_tcp(flow(), 100));
  auto notify = make_loss_notification(2, 3, 0);
  rig.host->receive(packet::Pool::local().acquire(std::move(notify)), 0);
  // One lookup fired on notification arrival; the next TX drains the rest.
  rig.host->send(packet::make_tcp(flow(), 100));
  ASSERT_EQ(rig.agent.local_log().size(), 2u);
  for (const auto& ev : rig.agent.local_log()) {
    EXPECT_EQ(ev.type, EventType::kDrop);
    EXPECT_EQ(ev.flow, flow());
    EXPECT_EQ(ev.switch_id, rig.host->id());  // logged at the NIC itself
  }
}

TEST(NicAgent, DuplicateNotificationsIgnored) {
  Rig rig;
  for (int i = 0; i < 5; ++i) rig.host->send(packet::make_tcp(flow(), 100));
  for (int copy = 0; copy < 3; ++copy) {
    auto notify = make_loss_notification(1, 1, static_cast<std::uint8_t>(copy));
    rig.host->receive(packet::Pool::local().acquire(std::move(notify)), 0);
  }
  EXPECT_EQ(rig.agent.local_log().size(), 1u);
}

}  // namespace
}  // namespace netseer::core
