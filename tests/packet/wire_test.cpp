#include "packet/wire.h"

#include <gtest/gtest.h>

#include "packet/builder.h"

namespace netseer::packet::wire {
namespace {

FlowKey sample_flow() {
  return FlowKey{Ipv4Addr::from_octets(10, 0, 1, 2), Ipv4Addr::from_octets(10, 0, 2, 3),
                 static_cast<std::uint8_t>(IpProto::kTcp), 40000, 443};
}

TEST(Wire, SerializedLengthMatchesWireBytes) {
  for (std::uint32_t payload : {0u, 1u, 100u, 1460u}) {
    const auto pkt = make_tcp(sample_flow(), payload);
    EXPECT_EQ(serialize(pkt).size(), pkt.wire_bytes()) << "payload=" << payload;
  }
}

TEST(Wire, TcpRoundTrip) {
  auto pkt = make_tcp(sample_flow(), 777, tcp_flags::kSyn | tcp_flags::kAck, 123456);
  pkt.ip->ttl = 17;
  pkt.eth.src = MacAddr::from_node_id(1);
  pkt.eth.dst = MacAddr::from_node_id(2);
  const auto bytes = serialize(pkt);
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_TRUE(parsed->ip_checksum_ok);
  EXPECT_EQ(parsed->packet.flow(), pkt.flow());
  EXPECT_EQ(parsed->packet.ip->ttl, 17);
  EXPECT_EQ(parsed->packet.l4.seq, 123456u);
  EXPECT_EQ(parsed->packet.l4.flags, tcp_flags::kSyn | tcp_flags::kAck);
  EXPECT_EQ(parsed->packet.payload_bytes, 777u);
  EXPECT_EQ(parsed->packet.eth.src, pkt.eth.src);
  EXPECT_EQ(parsed->packet.eth.dst, pkt.eth.dst);
}

TEST(Wire, UdpRoundTrip) {
  const auto pkt = make_udp(sample_flow(), 512);
  const auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->packet.flow(), pkt.flow());
  EXPECT_EQ(parsed->packet.payload_bytes, 512u);
}

TEST(Wire, SeqTagRoundTrip) {
  auto pkt = make_tcp(sample_flow(), 64);
  pkt.seq_tag = 0xdeadbeef;
  const auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->packet.flow(), pkt.flow());
  ASSERT_TRUE(parsed->packet.seq_tag.has_value());
  EXPECT_EQ(*parsed->packet.seq_tag, 0xdeadbeefu);
}

TEST(Wire, PfcRoundTrip) {
  const auto pkt = make_pfc(4, 999);
  const auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->packet.kind, PacketKind::kPfc);
  ASSERT_TRUE(parsed->packet.pfc.has_value());
  EXPECT_TRUE(parsed->packet.pfc->pauses(4));
  EXPECT_EQ(parsed->packet.pfc->pause_quanta[4], 999);
}

TEST(Wire, CorruptedFlagBreaksFcs) {
  auto pkt = make_tcp(sample_flow(), 100);
  pkt.corrupted = true;
  const auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->fcs_ok);
  EXPECT_TRUE(parsed->packet.corrupted);
}

TEST(Wire, BitFlipBreaksFcs) {
  const auto pkt = make_tcp(sample_flow(), 100);
  auto bytes = serialize(pkt);
  bytes[40] ^= std::byte{0x08};  // one bit of the TCP header
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->fcs_ok);
}

TEST(Wire, BitFlipInIpHeaderBreaksIpChecksum) {
  const auto pkt = make_tcp(sample_flow(), 100);
  auto bytes = serialize(pkt);
  // Byte 22 is inside the IPv4 header (14 eth + offset 8 = TTL field).
  bytes[22] ^= std::byte{0xff};
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->ip_checksum_ok);
}

TEST(Wire, TruncatedFrameRejected) {
  const auto pkt = make_tcp(sample_flow(), 100);
  const auto bytes = serialize(pkt);
  EXPECT_FALSE(parse(std::span(bytes).first(30)).has_value());
}

TEST(Wire, InternetChecksumKnownVector) {
  // Classic example from RFC 1071 materials.
  const std::uint8_t raw[] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
                              0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  std::array<std::byte, 20> data{};
  for (std::size_t i = 0; i < 20; ++i) data[i] = static_cast<std::byte>(raw[i]);
  EXPECT_EQ(internet_checksum(data), 0xb861);
}

TEST(Wire, ChecksumOfHeaderWithChecksumIsZero) {
  const auto pkt = make_udp(sample_flow(), 8);
  const auto bytes = serialize(pkt);
  // IPv4 header starts at byte 14 (no shims in this packet).
  EXPECT_EQ(internet_checksum(std::span(bytes).subspan(14, 20)), 0);
}

TEST(Wire, MinFramePadding) {
  const auto pkt = make_udp(sample_flow(), 0);
  EXPECT_EQ(serialize(pkt).size(), 64u);
}

}  // namespace
}  // namespace netseer::packet::wire
