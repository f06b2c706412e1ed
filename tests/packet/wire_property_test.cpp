// Property tests: serialize/parse round-trips over randomized packets,
// and FCS detection of random bit flips — parameterized over packet
// shapes (TEST_P).
#include <gtest/gtest.h>

#include "packet/builder.h"
#include "packet/wire.h"
#include "util/rng.h"

namespace netseer::packet::wire {
namespace {

// gtest prints a parameter's raw bytes into the test name, so Shape has
// no implicit padding: an unnamed gap would print whatever the stack held
// at registration and the name would differ from one build to the next.
// The explicit pads also keep each shape's bytes, and so its name, fixed.
struct Shape {
  bool tcp = false;
  std::uint8_t pad0 = 0;
  bool seq_tag = false;
  std::uint8_t pad1 = 0;
  std::uint32_t max_payload = 0;
};
static_assert(sizeof(Shape) == 8, "Shape must stay free of implicit padding");

class WireProperty : public ::testing::TestWithParam<Shape> {};

Packet random_packet(util::Rng& rng, const Shape& shape) {
  FlowKey flow;
  flow.src.value = static_cast<std::uint32_t>(rng.next());
  flow.dst.value = static_cast<std::uint32_t>(rng.next());
  flow.sport = static_cast<std::uint16_t>(rng.next());
  flow.dport = static_cast<std::uint16_t>(rng.next());
  const auto payload = static_cast<std::uint32_t>(rng.uniform(shape.max_payload + 1));
  Packet pkt = shape.tcp
                   ? make_tcp(flow, payload, static_cast<std::uint8_t>(rng.uniform(32)),
                              static_cast<std::uint32_t>(rng.next()))
                   : make_udp(flow, payload);
  pkt.ip->ttl = static_cast<std::uint8_t>(1 + rng.uniform(255));
  pkt.ip->dscp = static_cast<std::uint8_t>(rng.uniform(64));
  pkt.ip->ecn = static_cast<std::uint8_t>(rng.uniform(4));
  pkt.ip->ident = static_cast<std::uint16_t>(rng.next());
  if (shape.seq_tag) pkt.seq_tag = static_cast<std::uint32_t>(rng.next());
  return pkt;
}

TEST_P(WireProperty, RoundTripPreservesEverything) {
  util::Rng rng(GetParam().max_payload + GetParam().tcp * 7);
  for (int i = 0; i < 200; ++i) {
    const Packet pkt = random_packet(rng, GetParam());
    const auto bytes = serialize(pkt);
    ASSERT_EQ(bytes.size(), pkt.wire_bytes());
    const auto parsed = parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->fcs_ok);
    EXPECT_TRUE(parsed->ip_checksum_ok);
    EXPECT_EQ(parsed->packet.flow(), pkt.flow());
    EXPECT_EQ(parsed->packet.ip->ttl, pkt.ip->ttl);
    EXPECT_EQ(parsed->packet.ip->dscp, pkt.ip->dscp);
    EXPECT_EQ(parsed->packet.ip->ecn, pkt.ip->ecn);
    EXPECT_EQ(parsed->packet.ip->ident, pkt.ip->ident);
    EXPECT_EQ(parsed->packet.seq_tag, pkt.seq_tag);
    EXPECT_EQ(parsed->packet.payload_bytes, pkt.payload_bytes);
    if (pkt.is_tcp()) {
      EXPECT_EQ(parsed->packet.l4.seq, pkt.l4.seq);
      EXPECT_EQ(parsed->packet.l4.flags, pkt.l4.flags);
    }
  }
}

TEST_P(WireProperty, AnySingleBitFlipBreaksTheFcs) {
  util::Rng rng(GetParam().max_payload * 3 + 1);
  for (int i = 0; i < 100; ++i) {
    const Packet pkt = random_packet(rng, GetParam());
    auto bytes = serialize(pkt);
    const std::size_t bit = rng.uniform(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    const auto parsed = parse(bytes);
    if (parsed.has_value()) {
      EXPECT_FALSE(parsed->fcs_ok) << "bit " << bit << " undetected";
    }
    // (Flips in length fields may make the frame unparseable — also an
    // acceptable discard.)
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, WireProperty,
                         ::testing::Values(Shape{.tcp = true, .max_payload = 64},
                                           Shape{.tcp = true, .max_payload = 1460},
                                           Shape{.max_payload = 1460},
                                           Shape{.tcp = true, .max_payload = 512},
                                           Shape{.tcp = true, .seq_tag = true, .max_payload = 512},
                                           Shape{.tcp = true, .seq_tag = true, .max_payload = 1452},
                                           Shape{.seq_tag = true, .max_payload = 0}),
                         [](const auto& info) {
                           const auto& s = info.param;
                           return std::string(s.tcp ? "tcp" : "udp") + (s.seq_tag ? "_seq" : "") +
                                  "_p" + std::to_string(s.max_payload);
                         });

}  // namespace
}  // namespace netseer::packet::wire
