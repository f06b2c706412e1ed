#include "net/link.h"

#include <gtest/gtest.h>

#include "packet/builder.h"
#include "packet/pool.h"

namespace netseer::net {
namespace {

using packet::Packet;

class CaptureNode final : public Node {
 public:
  CaptureNode() : Node(2, "capture") {}
  void receive(packet::PooledPacket pkt, util::PortId in_port) override {
    last_port = in_port;
    packets.push_back(std::move(*pkt));
  }
  std::vector<Packet> packets;
  util::PortId last_port = util::kInvalidPort;
};

class CountingObserver final : public LinkObserver {
 public:
  void on_link_fault(const Packet&, util::NodeId from, util::NodeId to,
                     LinkFault fault) override {
    last_from = from;
    last_to = to;
    drops += (fault == LinkFault::kSilentDrop);
    corruptions += (fault == LinkFault::kCorruption);
  }
  int drops = 0;
  int corruptions = 0;
  util::NodeId last_from = 0, last_to = 0;
};

Packet data() {
  return packet::make_udp(packet::FlowKey{packet::Ipv4Addr::from_octets(1, 1, 1, 1),
                                          packet::Ipv4Addr::from_octets(2, 2, 2, 2), 17, 1, 2},
                          100);
}

TEST(Link, DeliversAfterDelay) {
  sim::Simulator sim;
  CaptureNode peer;
  Link link(sim, util::Rng(1), peer, 5, util::microseconds(3), 1);
  link.send(packet::Pool::local().acquire(data()));
  EXPECT_TRUE(peer.packets.empty());
  sim.run();
  ASSERT_EQ(peer.packets.size(), 1u);
  EXPECT_EQ(sim.now(), util::microseconds(3));
  EXPECT_EQ(peer.last_port, 5);
  EXPECT_EQ(link.packets_carried(), 1u);
  EXPECT_GT(link.bytes_carried(), 0u);
}

TEST(Link, LosslessByDefault) {
  sim::Simulator sim;
  CaptureNode peer;
  Link link(sim, util::Rng(1), peer, 0, 0, 1);
  for (int i = 0; i < 1000; ++i) link.send(packet::Pool::local().acquire(data()));
  sim.run();
  EXPECT_EQ(peer.packets.size(), 1000u);
}

TEST(Link, SilentDropRate) {
  sim::Simulator sim;
  CaptureNode peer;
  CountingObserver observer;
  Link link(sim, util::Rng(1), peer, 0, 0, 1);
  link.set_observer(&observer);
  LinkFaultModel faults;
  faults.drop_prob = 0.1;
  link.set_fault_model(faults);

  for (int i = 0; i < 10000; ++i) link.send(packet::Pool::local().acquire(data()));
  sim.run();
  EXPECT_NEAR(static_cast<double>(observer.drops) / 10000.0, 0.1, 0.02);
  EXPECT_EQ(peer.packets.size() + static_cast<std::size_t>(observer.drops), 10000u);
  EXPECT_EQ(link.packets_dropped(), static_cast<std::uint64_t>(observer.drops));
}

TEST(Link, CorruptionDeliversMarkedFrames) {
  sim::Simulator sim;
  CaptureNode peer;
  CountingObserver observer;
  Link link(sim, util::Rng(2), peer, 0, 0, 1);
  link.set_observer(&observer);
  LinkFaultModel faults;
  faults.corrupt_prob = 0.2;
  link.set_fault_model(faults);

  for (int i = 0; i < 5000; ++i) link.send(packet::Pool::local().acquire(data()));
  sim.run();
  // Corrupted frames still arrive, flagged.
  EXPECT_EQ(peer.packets.size(), 5000u);
  int corrupt = 0;
  for (const auto& pkt : peer.packets) corrupt += pkt.corrupted;
  EXPECT_EQ(corrupt, observer.corruptions);
  EXPECT_NEAR(corrupt / 5000.0, 0.2, 0.03);
}

TEST(Link, ObserverSeesEndpoints) {
  sim::Simulator sim;
  CaptureNode peer;
  CountingObserver observer;
  Link link(sim, util::Rng(4), peer, 0, 0, /*from=*/42);
  link.set_observer(&observer);
  link.set_fault_model(LinkFaultModel{.drop_prob = 1.0});
  link.send(packet::Pool::local().acquire(data()));
  EXPECT_EQ(observer.drops, 1);
  EXPECT_EQ(observer.last_from, 42u);
  EXPECT_EQ(observer.last_to, 2u);
}

}  // namespace
}  // namespace netseer::net
