#include "core/detect/interswitch.h"

#include <gtest/gtest.h>

#include "packet/builder.h"

namespace netseer::core {
namespace {

packet::FlowKey flow(std::uint16_t sport) {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, sport, 80};
}

packet::Packet data(std::uint16_t sport) { return packet::make_tcp(flow(sport), 100); }

struct DropLog {
  std::vector<std::pair<packet::FlowKey, std::uint32_t>> drops;
  auto fn() {
    return [this](const packet::FlowKey& f, std::uint32_t seq) { drops.push_back({f, seq}); };
  }
};

TEST(InterSwitchTx, AssignsConsecutiveSequence) {
  InterSwitchTx tx(InterSwitchConfig{});
  DropLog log;
  for (std::uint32_t i = 0; i < 10; ++i) {
    auto pkt = data(1);
    tx.on_tx(pkt, log.fn());
    ASSERT_TRUE(pkt.seq_tag.has_value());
    EXPECT_EQ(*pkt.seq_tag, i);
  }
  EXPECT_EQ(tx.packets_sent(), 10u);
}

TEST(InterSwitchRx, StripsTagAndTracksSequence) {
  InterSwitchTx tx(InterSwitchConfig{});
  InterSwitchRx rx(InterSwitchConfig{});
  DropLog log;
  for (int i = 0; i < 10; ++i) {
    auto pkt = data(1);
    tx.on_tx(pkt, log.fn());
    const auto gap = rx.on_rx(pkt);
    EXPECT_FALSE(gap.has_value());
    EXPECT_FALSE(pkt.seq_tag.has_value());  // stripped
  }
  EXPECT_EQ(rx.received(), 10u);
  EXPECT_EQ(rx.gaps(), 0u);
}

TEST(InterSwitchRx, UntaggedPacketsIgnored) {
  InterSwitchRx rx(InterSwitchConfig{});
  auto pkt = data(1);
  EXPECT_FALSE(rx.on_rx(pkt).has_value());
  EXPECT_EQ(rx.received(), 0u);
}

TEST(InterSwitchRx, DetectsSingleLoss) {
  InterSwitchTx tx(InterSwitchConfig{});
  InterSwitchRx rx(InterSwitchConfig{});
  DropLog log;

  auto p0 = data(1);
  tx.on_tx(p0, log.fn());
  (void)rx.on_rx(p0);

  auto lost = data(2);
  tx.on_tx(lost, log.fn());  // seq 1, never delivered

  auto p2 = data(3);
  tx.on_tx(p2, log.fn());
  const auto gap = rx.on_rx(p2);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->start, 1u);
  EXPECT_EQ(gap->end, 1u);
  EXPECT_EQ(rx.gap_packets(), 1u);
}

TEST(InterSwitchRx, DetectsBurstLoss) {
  InterSwitchTx tx(InterSwitchConfig{});
  InterSwitchRx rx(InterSwitchConfig{});
  DropLog log;

  auto first = data(1);
  tx.on_tx(first, log.fn());
  (void)rx.on_rx(first);
  for (int i = 0; i < 5; ++i) {
    auto lost = data(2);
    tx.on_tx(lost, log.fn());
  }
  auto survivor = data(3);
  tx.on_tx(survivor, log.fn());
  const auto gap = rx.on_rx(survivor);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->start, 1u);
  EXPECT_EQ(gap->end, 5u);
}

TEST(InterSwitch, NotificationRecoversFlowOfLostPacket) {
  InterSwitchTx tx(InterSwitchConfig{});
  DropLog log;

  // Transmit seqs 0..4; pretend seq 2 (flow sport=777) was lost.
  for (std::uint16_t i = 0; i < 5; ++i) {
    auto pkt = data(i == 2 ? 777 : i);
    tx.on_tx(pkt, log.fn());
  }
  tx.on_notification(2, 2, log.fn());
  ASSERT_EQ(log.drops.size(), 1u);
  EXPECT_EQ(log.drops[0].first, flow(777));
  EXPECT_EQ(log.drops[0].second, 2u);
  EXPECT_EQ(tx.drops_reported(), 1u);
  EXPECT_EQ(tx.lookup_misses(), 0u);
}

TEST(InterSwitch, DuplicateNotificationsIgnored) {
  InterSwitchTx tx(InterSwitchConfig{});
  DropLog log;
  for (std::uint16_t i = 0; i < 5; ++i) {
    auto pkt = data(i);
    tx.on_tx(pkt, log.fn());
  }
  // The downstream sends three redundant copies (§3.3).
  tx.on_notification(2, 2, log.fn());
  tx.on_notification(2, 2, log.fn());
  tx.on_notification(2, 2, log.fn());
  EXPECT_EQ(log.drops.size(), 1u);
  EXPECT_EQ(tx.duplicate_notifications(), 2u);
}

TEST(InterSwitch, MultiPacketRangeDrainsViaSubsequentPackets) {
  // ASICs cannot loop in a stage: a 4-packet gap needs the notification
  // plus subsequent transmissions to trigger the remaining lookups.
  InterSwitchTx tx(InterSwitchConfig{});
  DropLog log;
  for (std::uint16_t i = 0; i < 10; ++i) {
    auto pkt = data(i);
    tx.on_tx(pkt, log.fn());
  }
  tx.on_notification(3, 6, log.fn());  // 4 missing packets
  EXPECT_EQ(log.drops.size(), 1u);     // notification triggered one lookup
  EXPECT_TRUE(tx.has_pending());

  auto trigger = data(100);
  tx.on_tx(trigger, log.fn());
  EXPECT_EQ(log.drops.size(), 2u);

  for (int i = 0; i < 2; ++i) {
    auto next = data(100);
    tx.on_tx(next, log.fn());
  }
  EXPECT_EQ(log.drops.size(), 4u);
  EXPECT_FALSE(tx.has_pending());
  // Flows recovered in range order 3,4,5,6.
  EXPECT_EQ(log.drops[0].first, flow(3));
  EXPECT_EQ(log.drops[3].first, flow(6));
}

TEST(InterSwitch, DrainBudgetFlushesPending) {
  InterSwitchTx tx(InterSwitchConfig{});
  DropLog log;
  for (std::uint16_t i = 0; i < 10; ++i) {
    auto pkt = data(i);
    tx.on_tx(pkt, log.fn());
  }
  tx.on_notification(1, 8, log.fn());
  tx.drain(100, log.fn());
  EXPECT_EQ(log.drops.size(), 8u);
}

TEST(InterSwitch, RingOverwriteNeverReportsWrongPacket) {
  // Tiny ring: by the time the notification arrives, the slot has been
  // overwritten. NetSeer must miss the event rather than report the
  // wrong flow (§3.3).
  InterSwitchConfig config;
  config.ring_slots = 4;
  InterSwitchTx tx(config);
  DropLog log;
  for (std::uint16_t i = 0; i < 3; ++i) {
    auto pkt = data(i);
    tx.on_tx(pkt, log.fn());
  }
  // Overwrite the whole ring (4 more packets).
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto pkt = data(100 + i);
    tx.on_tx(pkt, log.fn());
  }
  tx.on_notification(1, 1, log.fn());  // seq 1's slot now holds seq 5
  EXPECT_TRUE(log.drops.empty());
  EXPECT_EQ(tx.lookup_misses(), 1u);
}

TEST(InterSwitchRx, HugeGapResyncsInsteadOfFlooding) {
  InterSwitchConfig config;
  config.max_gap = 1000;
  InterSwitchRx rx(config);
  auto first = data(1);
  first.seq_tag = 0;
  (void)rx.on_rx(first);
  auto jumped = data(2);
  jumped.seq_tag = 50000;  // peer rebooted
  const auto gap = rx.on_rx(jumped);
  EXPECT_FALSE(gap.has_value());
  EXPECT_EQ(rx.resyncs(), 1u);
  // Next consecutive packet is clean.
  auto next = data(3);
  next.seq_tag = 50001;
  EXPECT_FALSE(rx.on_rx(next).has_value());
}

TEST(InterSwitchRx, SequenceWrapAround) {
  InterSwitchRx rx(InterSwitchConfig{});
  auto a = data(1);
  a.seq_tag = 0xfffffffe;
  (void)rx.on_rx(a);
  auto b = data(2);
  b.seq_tag = 0xffffffff;
  EXPECT_FALSE(rx.on_rx(b).has_value());
  auto c = data(3);
  c.seq_tag = 0;  // wrapped
  EXPECT_FALSE(rx.on_rx(c).has_value());
  // Loss across the wrap boundary.
  auto d = data(4);
  d.seq_tag = 2;  // seq 1 missing
  const auto gap = rx.on_rx(d);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->start, 1u);
  EXPECT_EQ(gap->end, 1u);
}

TEST(InterSwitch, SramAccounting) {
  InterSwitchConfig config;
  config.ring_slots = 1000;
  InterSwitchTx tx(config);
  EXPECT_EQ(tx.sram_bytes(), 1000u * InterSwitchConfig::kSlotBytes);
}

TEST(InterSwitchTx, RingIsBuiltOnFirstDeparture) {
  InterSwitchConfig config;
  config.ring_slots = 16;
  InterSwitchTx idle(config);
  InterSwitchTx sent(config);
  DropLog log;
  EXPECT_FALSE(idle.has_ring());
  EXPECT_EQ(idle.sram_bytes(), 16u * InterSwitchConfig::kSlotBytes);

  auto first = data(1);
  sent.on_tx(first, log.fn());
  EXPECT_TRUE(sent.has_ring());

  // IDs 100-103 were never sent: a port without a ring misses each
  // lookup exactly as a port whose ring holds no valid slot for them.
  for (InterSwitchTx* tx : {&idle, &sent}) {
    tx->on_notification(100, 103, log.fn());
    tx->drain(8, log.fn());
  }
  EXPECT_EQ(idle.lookup_misses(), 4u);
  EXPECT_EQ(sent.lookup_misses(), idle.lookup_misses());
  EXPECT_EQ(idle.drops_reported(), 0u);
  EXPECT_TRUE(log.drops.empty());
  EXPECT_FALSE(idle.has_ring());
}

TEST(LossNotification, PacketShape) {
  const auto pkt = make_loss_notification(10, 20, 1);
  EXPECT_EQ(pkt.kind, packet::PacketKind::kLossNotify);
  const auto* payload = dynamic_cast<const LossNotifyPayload*>(pkt.control.get());
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->start(), 10u);
  EXPECT_EQ(payload->end(), 20u);
  EXPECT_EQ(payload->copy(), 1);
  EXPECT_EQ(pkt.wire_bytes(), 64u);  // tiny control frame
}

}  // namespace
}  // namespace netseer::core
