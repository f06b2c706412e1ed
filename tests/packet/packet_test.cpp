#include "packet/packet.h"

#include <gtest/gtest.h>

#include "packet/builder.h"
#include "packet/pool.h"

namespace netseer::packet {
namespace {

FlowKey sample_flow() {
  return FlowKey{Ipv4Addr::from_octets(10, 0, 1, 2), Ipv4Addr::from_octets(10, 0, 2, 3),
                 static_cast<std::uint8_t>(IpProto::kTcp), 40000, 443};
}

TEST(Packet, TcpWireBytes) {
  const auto pkt = make_tcp(sample_flow(), 1000);
  // eth 14 + ip 20 + tcp 20 + payload 1000 + fcs 4 = 1058.
  EXPECT_EQ(pkt.wire_bytes(), 1058u);
}

TEST(Packet, UdpWireBytes) {
  const auto pkt = make_udp(sample_flow(), 1000);
  // eth 14 + ip 20 + udp 8 + payload 1000 + fcs 4 = 1046.
  EXPECT_EQ(pkt.wire_bytes(), 1046u);
}

TEST(Packet, MinimumFramePadding) {
  const auto pkt = make_tcp(sample_flow(), 0);
  // 14 + 20 + 20 + 4 = 58 < 64: padded up.
  EXPECT_EQ(pkt.wire_bytes(), 64u);
}

TEST(Packet, ShimsAddBytes) {
  auto pkt = make_tcp(sample_flow(), 1000);
  const auto base = pkt.wire_bytes();
  pkt.seq_tag = 12345;  // 4-byte ID + 2-byte encapsulated ethertype
  EXPECT_EQ(pkt.wire_bytes(), base + 6);
}

TEST(Packet, FlowExtraction) {
  const auto flow = sample_flow();
  const auto pkt = make_tcp(flow, 100);
  EXPECT_EQ(pkt.flow(), flow);
}

TEST(Packet, NonIpFlowIsZero) {
  const auto pkt = make_pfc(3, 100);
  EXPECT_EQ(pkt.flow(), FlowKey{});
  EXPECT_FALSE(pkt.is_ipv4());
}

TEST(Packet, PfcFrameIs64Bytes) {
  const auto pkt = make_pfc(3, 100);
  EXPECT_EQ(pkt.wire_bytes(), 64u);
  ASSERT_TRUE(pkt.pfc.has_value());
  EXPECT_TRUE(pkt.pfc->pauses(3));
  EXPECT_FALSE(pkt.pfc->pauses(2));
}

TEST(Packet, PfcResume) {
  const auto pkt = make_pfc(5, 0);
  ASSERT_TRUE(pkt.pfc.has_value());
  EXPECT_TRUE(pkt.pfc->resumes(5));
  EXPECT_FALSE(pkt.pfc->pauses(5));
}

TEST(Packet, ProtocolPredicates) {
  EXPECT_TRUE(make_tcp(sample_flow(), 10).is_tcp());
  EXPECT_FALSE(make_tcp(sample_flow(), 10).is_udp());
  EXPECT_TRUE(make_udp(sample_flow(), 10).is_udp());
}

TEST(Packet, UidsAreUnique) {
  const auto a = make_tcp(sample_flow(), 10);
  const auto b = make_tcp(sample_flow(), 10);
  EXPECT_NE(a.uid, b.uid);
}

class FixedPayload final : public ControlPayload {
 public:
  explicit FixedPayload(std::uint32_t n) : n_(n) {}
  [[nodiscard]] std::uint32_t wire_size() const override { return n_; }

 private:
  std::uint32_t n_;
};

TEST(Packet, ControlPayloadCountsTowardWireBytes) {
  auto pkt = make_udp(sample_flow(), 0);
  const auto base = pkt.wire_bytes();
  pkt.control = std::make_shared<FixedPayload>(200);
  EXPECT_EQ(pkt.wire_bytes(), base - (kMinFrameBytes - 46) + 200);
}

TEST(Packet, SummaryMentionsCorruption) {
  auto pkt = make_tcp(sample_flow(), 10);
  EXPECT_EQ(pkt.summary().find("CORRUPT"), std::string::npos);
  pkt.corrupted = true;
  EXPECT_NE(pkt.summary().find("CORRUPT"), std::string::npos);
}

TEST(Packet, PooledFrameStampsItsFlowHash) {
  auto pkt = make_tcp(sample_flow(), 100);
  EXPECT_EQ(pkt.flow_hash(), sample_flow().hash64());  // never pooled: from headers
  auto slot = Pool::local().acquire(std::move(pkt));
  EXPECT_EQ(slot->flow_hash(), sample_flow().hash64());
  const std::uint32_t bytes = slot->wire_bytes();
  slot->ip->ttl = 3;  // TTL feeds no stamped fact
  EXPECT_EQ(slot->flow_hash(), slot->flow().hash64());

  // The stamp is read, not re-derived: a port or payload changed after
  // acquire, which no code may do, moves neither fact.
  slot->l4.sport = 1;
  slot->payload_bytes = 900;
  EXPECT_EQ(slot->flow_hash(), sample_flow().hash64());
  EXPECT_EQ(slot->wire_bytes(), bytes);

  auto pfc = Pool::local().acquire(make_pfc(3, 100));
  EXPECT_EQ(pfc->flow_hash(), FlowKey{}.hash64());
}

TEST(Packet, StampedLengthPadsLikeTheHeadersJustUnderTheMinimum) {
  // UDP headers and FCS take 46 bytes: payloads 12..17 make unpadded
  // frames of 58..63 bytes, which the 6-byte shim lifts to 64..69.
  for (std::uint32_t payload = 12; payload <= 17; ++payload) {
    const std::uint32_t unpadded = 46 + payload;
    auto slot = Pool::local().acquire(make_udp(sample_flow(), payload));
    Packet unpooled = make_udp(sample_flow(), payload);
    EXPECT_EQ(slot->wire_bytes(), kMinFrameBytes) << "payload " << payload;

    slot->seq_tag = 77;
    unpooled.seq_tag = 77;
    EXPECT_EQ(slot->wire_bytes(), std::max(unpadded + kSeqTagBytes, kMinFrameBytes))
        << "payload " << payload;
    EXPECT_EQ(slot->wire_bytes(), unpooled.wire_bytes()) << "payload " << payload;

    slot->seq_tag.reset();
    unpooled.seq_tag.reset();
    EXPECT_EQ(slot->wire_bytes(), kMinFrameBytes) << "payload " << payload;
    EXPECT_EQ(slot->wire_bytes(), unpooled.wire_bytes()) << "payload " << payload;

    // Pooled with the shim already on: the stamp leaves it out.
    Packet shimmed = make_udp(sample_flow(), payload);
    shimmed.seq_tag = 78;
    auto tagged = Pool::local().acquire(std::move(shimmed));
    EXPECT_EQ(tagged->wire_bytes(), std::max(unpadded + kSeqTagBytes, kMinFrameBytes))
        << "payload " << payload;
    tagged->seq_tag.reset();
    EXPECT_EQ(tagged->wire_bytes(), kMinFrameBytes) << "payload " << payload;
  }
}

}  // namespace
}  // namespace netseer::packet
