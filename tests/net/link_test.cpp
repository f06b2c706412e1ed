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
  link.send(packet::Pool::local().acquire(data()), util::nanoseconds(500));
  EXPECT_TRUE(peer.packets.empty());
  sim.run();
  ASSERT_EQ(peer.packets.size(), 1u);
  EXPECT_EQ(sim.now(), util::nanoseconds(500) + util::microseconds(3));
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(peer.last_port, 5);
  EXPECT_EQ(link.packets_carried(), 1u);
}

TEST(Link, LosslessByDefault) {
  sim::Simulator sim;
  CaptureNode peer;
  Link link(sim, util::Rng(1), peer, 0, 0, 1);
  for (int i = 0; i < 1000; ++i) link.send(packet::Pool::local().acquire(data()), 0);
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

  for (int i = 0; i < 10000; ++i) link.send(packet::Pool::local().acquire(data()), 0);
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

  for (int i = 0; i < 5000; ++i) link.send(packet::Pool::local().acquire(data()), 0);
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
  link.send(packet::Pool::local().acquire(data()), 0);
  EXPECT_EQ(observer.drops, 0);  // faults are drawn on arrival
  sim.run();
  EXPECT_EQ(observer.drops, 1);
  EXPECT_EQ(observer.last_from, 42u);
  EXPECT_EQ(observer.last_to, 2u);
}

/// One frame whose first bit leaves at 0 and last bit at 1 us, arriving
/// 3 us later, on a link that turns fully lossy at `change_at`. Returns
/// whether the frame arrived.
bool arrives_when_faults_change_at(util::SimTime change_at) {
  sim::Simulator sim;
  CaptureNode peer;
  Link link(sim, util::Rng(3), peer, 0, util::microseconds(3), 1);
  link.send(packet::Pool::local().acquire(data()), util::microseconds(1));
  (void)sim.schedule_at(change_at,
                        [&link] { link.set_fault_model(LinkFaultModel{.drop_prob = 1.0}); });
  sim.run();
  EXPECT_EQ(sim.now(), util::microseconds(4));
  EXPECT_EQ(link.packets_carried() + link.packets_dropped(), 1u);
  return peer.packets.size() == 1;
}

TEST(Link, TheModelInForceAsTheLastBitLeavesDecidesTheFrame) {
  // Between the frame's first and last bit: the new model is in force.
  EXPECT_FALSE(arrives_when_faults_change_at(util::nanoseconds(500)));
  // Between its last bit and its arrival: the frame left under the old one.
  EXPECT_TRUE(arrives_when_faults_change_at(util::nanoseconds(2500)));
}

}  // namespace
}  // namespace netseer::net
