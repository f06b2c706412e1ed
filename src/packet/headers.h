#pragma once

#include <array>
#include <compare>
#include <cstdint>

#include "packet/addr.h"

namespace netseer::packet {

/// EtherTypes used by the wire model. kNetSeerSeq is the shim header that
/// carries the 4-byte inter-switch consecutive packet ID (§3.3); the paper
/// suggests reusing unused VLAN/IP-option bits — we model it as a
/// dedicated local-experimental shim so insertion/removal is explicit.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kFlowControl = 0x8808,  // MAC control: PAUSE / PFC
  kNetSeerSeq = 0x88b5,   // IEEE local experimental 1
};

struct EthernetHeader {
  MacAddr dst{};
  MacAddr src{};
  constexpr auto operator<=>(const EthernetHeader&) const = default;
};

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  std::uint8_t dscp = 0;  // 6 bits
  std::uint8_t ecn = 0;   // 2 bits
  std::uint16_t ident = 0;
  std::uint8_t ttl = 64;
  std::uint8_t proto = static_cast<std::uint8_t>(IpProto::kTcp);
  Ipv4Addr src{};
  Ipv4Addr dst{};
  constexpr auto operator<=>(const Ipv4Header&) const = default;
  static constexpr std::uint32_t kWireSize = 20;  // no options
};

namespace tcp_flags {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
}  // namespace tcp_flags

/// Flattened L4 header: interpreted as TCP or UDP depending on ip.proto.
/// For UDP, seq/ack/flags/window are unused and serialize away.
struct L4Header {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  constexpr auto operator<=>(const L4Header&) const = default;
  static constexpr std::uint32_t kTcpWireSize = 20;  // no options
  static constexpr std::uint32_t kUdpWireSize = 8;
};

/// IEEE 802.1Qbb priority flow control frame. enable bit i set means the
/// quanta for class i is meaningful; quanta 0 = RESUME, >0 = PAUSE.
struct PfcFrame {
  std::uint8_t class_enable = 0;
  std::array<std::uint16_t, 8> pause_quanta{};
  constexpr auto operator<=>(const PfcFrame&) const = default;

  [[nodiscard]] constexpr bool pauses(std::uint8_t cls) const {
    return (class_enable & (1u << cls)) != 0 && pause_quanta[cls] > 0;
  }
  [[nodiscard]] constexpr bool resumes(std::uint8_t cls) const {
    return (class_enable & (1u << cls)) != 0 && pause_quanta[cls] == 0;
  }
};

}  // namespace netseer::packet
