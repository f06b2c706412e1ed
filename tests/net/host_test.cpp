#include "net/host.h"

#include <gtest/gtest.h>

#include "packet/builder.h"
#include "packet/pool.h"

namespace netseer::net {
namespace {

using packet::Packet;

class CaptureNode final : public Node {
 public:
  CaptureNode() : Node(50, "capture") {}
  void receive(packet::PooledPacket pkt, util::PortId in_port) override {
    (void)in_port;
    packets.push_back(std::move(*pkt));
  }
  std::vector<Packet> packets;
};

class RecordingApp final : public HostApp {
 public:
  void on_receive(Host&, const Packet& pkt) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

struct Fixture {
  Fixture() : host(sim, 1, "h0", packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                   util::BitRate::gbps(25)),
              uplink(sim, util::Rng(1), peer, 3, util::microseconds(1), host.id()) {
    host.set_uplink(&uplink);
    host.add_app(&app);
  }
  sim::Simulator sim;
  CaptureNode peer;
  Host host;
  Link uplink;
  RecordingApp app;
};

packet::FlowKey flow() {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, 1000, 80};
}

TEST(Host, SendFillsDefaultsAndTransmits) {
  Fixture f;
  auto pkt = packet::make_tcp(flow(), 500);
  pkt.ip->src = packet::Ipv4Addr{};  // let the host fill it
  f.host.send(std::move(pkt));
  f.sim.run();
  ASSERT_EQ(f.peer.packets.size(), 1u);
  EXPECT_EQ(f.peer.packets[0].ip->src, f.host.addr());
  EXPECT_EQ(f.peer.packets[0].eth.src, f.host.mac());
}

TEST(Host, DeliversToApp) {
  Fixture f;
  f.host.receive(packet::Pool::local().acquire(packet::make_tcp(flow(), 100)), 0);
  ASSERT_EQ(f.app.received.size(), 1u);
  EXPECT_EQ(f.host.rx_packets(), 1u);
}

TEST(Host, DiscardsCorruptFrames) {
  Fixture f;
  auto pkt = packet::make_tcp(flow(), 100);
  pkt.corrupted = true;
  f.host.receive(packet::Pool::local().acquire(std::move(pkt)), 0);
  EXPECT_TRUE(f.app.received.empty());
  EXPECT_EQ(f.host.rx_corrupt_discards(), 1u);
  EXPECT_EQ(f.host.rx_packets(), 0u);
}

TEST(Host, AutoRepliesToProbes) {
  Fixture f;
  auto probe = packet::make_udp(packet::FlowKey{packet::Ipv4Addr::from_octets(10, 9, 9, 9),
                                                f.host.addr(), 17, 7777, 7}, 8);
  probe.kind = packet::PacketKind::kProbe;
  probe.l4.seq = 31337;
  f.host.receive(packet::Pool::local().acquire(std::move(probe)), 0);
  f.sim.run();
  ASSERT_EQ(f.peer.packets.size(), 1u);
  const auto& reply = f.peer.packets[0];
  EXPECT_EQ(reply.kind, packet::PacketKind::kProbeReply);
  EXPECT_EQ(reply.ip->dst, packet::Ipv4Addr::from_octets(10, 9, 9, 9));
  EXPECT_EQ(reply.ip->src, f.host.addr());
  EXPECT_EQ(reply.l4.seq, 31337u);
  EXPECT_TRUE(f.app.received.empty());  // probes bypass apps
}

TEST(Host, ProbeForOtherAddressGoesToApp) {
  Fixture f;
  auto probe = packet::make_udp(packet::FlowKey{packet::Ipv4Addr::from_octets(10, 9, 9, 9),
                                                packet::Ipv4Addr::from_octets(10, 0, 0, 99),
                                                17, 7777, 7}, 8);
  probe.kind = packet::PacketKind::kProbe;
  f.host.receive(packet::Pool::local().acquire(std::move(probe)), 0);
  f.sim.run();
  EXPECT_TRUE(f.peer.packets.empty());
  EXPECT_EQ(f.app.received.size(), 1u);
}

TEST(Host, HonorsPfcPause) {
  Fixture f;
  f.host.receive(packet::Pool::local().acquire(packet::make_pfc(0, 0xffff)), 0);
  f.host.send(packet::make_tcp(flow(), 100));
  f.sim.run_until(util::microseconds(10));
  EXPECT_TRUE(f.peer.packets.empty());
  f.host.receive(packet::Pool::local().acquire(packet::make_pfc(0, 0)), 0);  // resume
  f.sim.run();
  EXPECT_EQ(f.peer.packets.size(), 1u);
}

TEST(Host, NicAgentSeesTxAndCanConsumeRx) {
  class Agent final : public NicAgent {
   public:
    void on_tx(Host&, Packet& pkt) override {
      ++tx;
      pkt.seq_tag = 99;
    }
    bool on_rx(Host&, Packet& pkt) override {
      ++rx;
      return pkt.kind != packet::PacketKind::kLossNotify;
    }
    int tx = 0, rx = 0;
  };
  Fixture f;
  Agent agent;
  f.host.set_nic_agent(&agent);

  f.host.send(packet::make_tcp(flow(), 10));
  f.sim.run();
  EXPECT_EQ(agent.tx, 1);
  ASSERT_EQ(f.peer.packets.size(), 1u);
  EXPECT_EQ(f.peer.packets[0].seq_tag, 99u);

  auto notify = packet::make_udp(flow(), 12);
  notify.kind = packet::PacketKind::kLossNotify;
  f.host.receive(packet::Pool::local().acquire(std::move(notify)), 0);
  EXPECT_EQ(agent.rx, 1);
  EXPECT_TRUE(f.app.received.empty());
}

TEST(Host, LossNotifyQueueIsHighPriority) {
  auto notify = packet::make_udp(flow(), 12);
  notify.kind = packet::PacketKind::kLossNotify;
  EXPECT_EQ(queue_for(notify), 7);
  EXPECT_EQ(queue_for(packet::make_tcp(flow(), 1)), 0);
  auto dscped = packet::make_tcp(flow(), 1);
  dscped.ip->dscp = 24;  // 011000 -> class 3
  EXPECT_EQ(queue_for(dscped), 3);
}

}  // namespace
}  // namespace netseer::net
