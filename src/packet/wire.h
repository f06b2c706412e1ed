#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "packet/packet.h"

namespace netseer::packet::wire {

/// Serialize a packet to its byte-exact wire representation: Ethernet
/// header, optional NetSeer sequence shim, IPv4 with a correct header
/// checksum, TCP/UDP, zero-filled payload (or control payload bytes),
/// minimum-frame padding, and trailing CRC-32 FCS.
///
/// The hot simulation path never serializes; this exists so the header
/// model is honest: tests round-trip it and check Packet::wire_bytes()
/// against its length.
[[nodiscard]] std::vector<std::byte> serialize(const Packet& pkt);

struct ParseResult {
  Packet packet;
  bool fcs_ok = false;
  bool ip_checksum_ok = false;
};

/// Parse wire bytes back into a structured packet. Returns nullopt only
/// for structurally unparseable frames (truncated headers); checksum
/// failures parse fine with the corresponding flag cleared, because a real
/// MAC sees the whole frame before judging the FCS.
[[nodiscard]] std::optional<ParseResult> parse(std::span<const std::byte> data);

/// RFC 1071 Internet checksum over `data` (for the IPv4 header).
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::byte> data) noexcept;

}  // namespace netseer::packet::wire
