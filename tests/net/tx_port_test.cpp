#include "net/tx_port.h"

#include <gtest/gtest.h>

#include "net/link.h"
#include "packet/builder.h"
#include "packet/pool.h"

namespace netseer::net {
namespace {

using packet::Packet;

/// Records each frame as its first bit leaves, with the serialization
/// time the port hands over.
class CaptureSink final : public PacketSink {
 public:
  void send(packet::PooledPacket pkt, util::SimDuration serialization) override {
    packets.push_back(std::move(*pkt));
    serializations.push_back(serialization);
  }
  std::vector<Packet> packets;
  std::vector<util::SimDuration> serializations;
};

class CountingNode final : public Node {
 public:
  CountingNode() : Node(2, "counting") {}
  void receive(packet::PooledPacket, util::PortId) override { ++received; }
  int received = 0;
};

Packet data(std::uint32_t payload = 1000, std::uint8_t dscp = 0, std::uint16_t sport = 1) {
  auto pkt = packet::make_udp(
      packet::FlowKey{packet::Ipv4Addr::from_octets(1, 1, 1, 1),
                      packet::Ipv4Addr::from_octets(2, 2, 2, 2), 17, sport, 2},
      payload);
  pkt.ip->dscp = dscp;
  return pkt;
}

/// Source ports of the captured frames, in transmission order.
std::vector<std::uint16_t> sports(const CaptureSink& sink) {
  std::vector<std::uint16_t> out;
  for (const auto& pkt : sink.packets) out.push_back(pkt.l4.sport);
  return out;
}

void expect_drained(const TxPort& port) {
  for (util::QueueId q = 0; q < util::kNumQueues; ++q) {
    EXPECT_EQ(port.queue_bytes(q), 0) << "class " << int{q};
    EXPECT_EQ(port.queue_depth(q), 0u) << "class " << int{q};
  }
  EXPECT_EQ(port.total_bytes(), 0);
}

TEST(TxPort, TransmitsAtLineRate) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);

  // 1046-byte frame at 1 Gbps = 8368 ns each.
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.serializations, (std::vector<util::SimDuration>{8368, 8368}));
  // The second frame's first bit leaves as the first's last bit does.
  EXPECT_EQ(sim.now(), 8368);
  EXPECT_EQ(port.tx_packets(), 2u);
}

TEST(TxPort, StrictPriorityOrdering) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);

  // Fill low priority first, then high; high must overtake queued low
  // (after the in-flight packet completes).
  port.enqueue(packet::Pool::local().acquire(data(1000, 0)), 0);
  port.enqueue(packet::Pool::local().acquire(data(1000, 0)), 0);
  port.enqueue(packet::Pool::local().acquire(data(1000, 56)), 7);  // dscp 56 -> class 7
  sim.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.packets[0].meta.queue, 0);  // already serializing
  EXPECT_EQ(sink.packets[1].meta.queue, 7);  // preempts queued low-prio
  EXPECT_EQ(sink.packets[2].meta.queue, 0);
}

TEST(TxPort, QueueBytesTracked) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);
  auto pkt = data();
  const auto bytes = pkt.wire_bytes();
  port.enqueue(packet::Pool::local().acquire(std::move(pkt)), 3);
  // First packet starts transmitting immediately (dequeued).
  EXPECT_EQ(port.queue_bytes(3), 0);
  port.enqueue(packet::Pool::local().acquire(data()), 3);
  EXPECT_EQ(port.queue_bytes(3), bytes);
  EXPECT_EQ(port.queue_depth(3), 1u);
  sim.run();
  EXPECT_EQ(port.queue_bytes(3), 0);
  EXPECT_EQ(port.total_bytes(), 0);
}

TEST(TxPort, PauseBlocksClass) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);

  port.apply_pause(0, 0xffff);
  EXPECT_TRUE(port.is_paused(0));
  port.enqueue(packet::Pool::local().acquire(data(1000, 0)), 0);
  sim.run_until(util::microseconds(10));
  EXPECT_TRUE(sink.packets.empty());

  // Other classes still flow.
  port.enqueue(packet::Pool::local().acquire(data(1000, 56)), 7);
  sim.run_until(util::microseconds(20));
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].meta.queue, 7);
}

TEST(TxPort, PauseExpiresAutomatically) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);

  // Quanta 100 at 1 Gbps: 100 * 512 bit-times = 51.2 us.
  port.apply_pause(0, 100);
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  sim.run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_GE(sim.now(), util::nanoseconds(51200));
}

TEST(TxPort, ResumeUnblocksImmediately) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);

  port.apply_pause(0, 0xffff);
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  sim.run_until(util::microseconds(5));
  EXPECT_TRUE(sink.packets.empty());
  port.apply_pause(0, 0);  // RESUME
  sim.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(TxPort, DequeueHookObservesDelay) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);
  std::vector<util::SimDuration> delays;
  port.set_dequeue_hook([&](Packet&, util::QueueId, util::SimDuration delay) {
    delays.push_back(delay);
  });
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  sim.run();
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_EQ(delays[0], 0);
  EXPECT_EQ(delays[1], 8368);       // waited one serialization
  EXPECT_EQ(delays[2], 2 * 8368);   // waited two
}

TEST(TxPort, HookMayGrowPacket) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);
  port.set_dequeue_hook([&](Packet& pkt, util::QueueId, util::SimDuration) {
    pkt.seq_tag = 7;  // +6 bytes on the wire (ID + encapsulated ethertype)
  });
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].seq_tag, 7u);
  // Serialization paid for the grown frame: 1052 bytes -> 8416 ns.
  EXPECT_EQ(sink.serializations, (std::vector<util::SimDuration>{8416}));
}

TEST(TxPort, FifoOrderSurvivesRingGrowthAndWrap) {
  // A queue's ring starts at 16 slots. Phase 1 moves its head forward;
  // phase 2 queues past the end of the array, so the ring wraps, and
  // past 16 frames, so it grows while wrapped.
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));
  port.set_out(&sink);
  constexpr util::SimDuration kFrame = 8368;  // 1046 bytes at 1 Gbps

  std::uint16_t next = 0;
  port.apply_pause(0, 0xffff);
  const auto enqueue_next = [&] {
    port.enqueue(packet::Pool::local().acquire(data(1000, 0, next++)), 0);
  };
  for (int i = 0; i < 12; ++i) enqueue_next();
  port.apply_pause(0, 0);  // RESUME
  sim.run_until(sim.now() + 9 * kFrame + kFrame / 2);
  port.apply_pause(0, 0xffff);
  // The sink sees each frame from its first bit: the tenth is on the wire.
  EXPECT_EQ(sink.packets.size(), 10u);
  EXPECT_EQ(port.queue_depth(0), 2u);

  for (int i = 0; i < 30; ++i) enqueue_next();
  EXPECT_EQ(port.queue_depth(0), 32u);
  port.apply_pause(0, 0);
  sim.run();

  std::vector<std::uint16_t> expected(next);
  for (std::uint16_t i = 0; i < next; ++i) expected[i] = i;
  EXPECT_EQ(sports(sink), expected);
  expect_drained(port);
}

TEST(TxPort, StrictPrioritySkipsAPausedTopClassUntilItResumes) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(1));

  // No sink yet: every frame waits until all four are queued.
  port.apply_pause(7, 0xffff);
  port.enqueue(packet::Pool::local().acquire(data(1000, 56, 70)), 7);
  port.enqueue(packet::Pool::local().acquire(data(1000, 56, 71)), 7);
  port.enqueue(packet::Pool::local().acquire(data(1000, 24, 30)), 3);
  port.enqueue(packet::Pool::local().acquire(data(1000, 24, 31)), 3);
  port.set_out(&sink);
  port.apply_pause(3, 0);  // kicks the scheduler; class 7 is paused: class 3 goes first
  sim.run_until(4000);
  port.apply_pause(7, 0);  // while frame 30 serializes
  sim.run();

  EXPECT_EQ(sports(sink), (std::vector<std::uint16_t>{30, 70, 71, 31}));
  expect_drained(port);
}

TEST(TxPort, DrainEmptiesEveryQueue) {
  sim::Simulator sim;
  CaptureSink sink;
  TxPort port(sim, util::BitRate::gbps(10));
  port.set_out(&sink);
  for (int round = 0; round < 20; ++round) {
    for (util::QueueId q = 0; q < util::kNumQueues; ++q) {
      port.enqueue(packet::Pool::local().acquire(data(100 + 50 * q, 0)), q);
    }
  }
  EXPECT_GT(port.total_bytes(), 0);
  sim.run();
  EXPECT_EQ(sink.packets.size(), 20u * util::kNumQueues);
  expect_drained(port);
}

TEST(TxPort, KicksOnlyWhileBacklogged) {
  constexpr int kFrames = 5;
  {
    // A lone frame on an idle port goes straight to the sink.
    sim::Simulator sim;
    CaptureSink sink;
    TxPort port(sim, util::BitRate::gbps(1));
    port.set_out(&sink);
    port.enqueue(packet::Pool::local().acquire(data()), 0);
    sim.run();
    EXPECT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(sim.events_processed(), 0u);
  }
  {
    // Frames queued together: one kick per frame behind the first.
    sim::Simulator sim;
    CaptureSink sink;
    TxPort port(sim, util::BitRate::gbps(1));
    port.set_out(&sink);
    for (int i = 0; i < kFrames; ++i) port.enqueue(packet::Pool::local().acquire(data()), 0);
    sim.run();
    EXPECT_EQ(sink.packets.size(), std::size_t{kFrames});
    EXPECT_EQ(sim.events_processed(), std::uint64_t{kFrames - 1});
  }
  {
    // Through a link, each traversal adds its one delivery.
    sim::Simulator sim;
    CountingNode peer;
    Link link(sim, util::Rng(1), peer, 0, util::microseconds(1), 1);
    TxPort port(sim, util::BitRate::gbps(1));
    port.set_out(&link);
    for (int i = 0; i < kFrames; ++i) port.enqueue(packet::Pool::local().acquire(data()), 0);
    sim.run();
    EXPECT_EQ(peer.received, kFrames);
    EXPECT_EQ(sim.events_processed(), std::uint64_t{2 * kFrames - 1});
    // The last frame started at 4 frame times and arrived one frame time
    // and one propagation delay later.
    EXPECT_EQ(sim.now(), kFrames * 8368 + util::microseconds(1));
  }
}

TEST(TxPort, NoSinkNoTransmit) {
  sim::Simulator sim;
  TxPort port(sim, util::BitRate::gbps(1));
  port.enqueue(packet::Pool::local().acquire(data()), 0);
  sim.run();
  EXPECT_EQ(port.tx_packets(), 0u);
  EXPECT_EQ(port.queue_depth(0), 1u);
}

}  // namespace
}  // namespace netseer::net
