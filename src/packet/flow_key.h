#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "packet/addr.h"

namespace netseer::packet {

/// The 13-byte 5-tuple NetSeer uses as its flow identifier (§3.4: "an
/// exact flow 5-tuple"). Packed layout matches the event wire format:
/// src(4) dst(4) proto(1) sport(2) dport(2).
struct FlowKey {
  Ipv4Addr src{};
  Ipv4Addr dst{};
  std::uint8_t proto = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;

  constexpr auto operator<=>(const FlowKey&) const = default;

  static constexpr std::size_t kPackedSize = 13;

  /// Serialize to the canonical 13-byte layout (big-endian fields).
  [[nodiscard]] std::array<std::byte, kPackedSize> packed() const noexcept;

  /// Parse back from the canonical layout.
  [[nodiscard]] static FlowKey from_packed(const std::array<std::byte, kPackedSize>& raw) noexcept;

  /// 64-bit hash over the packed bytes, the host-side map key.
  [[nodiscard]] std::uint64_t hash64() const noexcept;

  /// 32-bit CRC over the packed bytes — the hash the data plane
  /// pre-computes and attaches to event records for the switch CPU (§3.6).
  [[nodiscard]] std::uint32_t crc32() const noexcept;

  /// The reverse direction (dst->src), e.g. for reply traffic.
  [[nodiscard]] constexpr FlowKey reversed() const {
    return FlowKey{dst, src, proto, dport, sport};
  }

  [[nodiscard]] std::string to_string() const;
};

struct FlowKeyHash {
  [[nodiscard]] std::size_t operator()(const FlowKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash64());
  }
};

}  // namespace netseer::packet
