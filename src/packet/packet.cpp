#include "packet/packet.h"

#include <atomic>
#include <cstdio>

namespace netseer::packet {

const char* to_string(PacketKind kind) {
  switch (kind) {
    case PacketKind::kData: return "data";
    case PacketKind::kPfc: return "pfc";
    case PacketKind::kProbe: return "probe";
    case PacketKind::kProbeReply: return "probe-reply";
    case PacketKind::kLossNotify: return "loss-notify";
  }
  return "?";
}

std::uint32_t Packet::header_bytes() const {
  std::uint32_t bytes = kEthHeaderBytes;
  if (seq_tag) bytes += kSeqTagBytes;
  if (pfc) {
    // MAC control opcode (2) + class-enable vector (2) + 8 quanta (16).
    bytes += 20;
  }
  if (ip) {
    bytes += Ipv4Header::kWireSize;
    if (is_tcp()) {
      bytes += L4Header::kTcpWireSize;
    } else if (is_udp()) {
      bytes += L4Header::kUdpWireSize;
    }
  }
  return bytes + kEthFcsBytes;
}

std::uint32_t Packet::unshimmed_bytes() const {
  std::uint32_t bytes = header_bytes() - (seq_tag ? kSeqTagBytes : 0) + payload_bytes;
  if (control) bytes += control->wire_size();
  return bytes;
}

std::string Packet::summary() const {
  char buf[128];
  if (ip) {
    std::snprintf(buf, sizeof(buf), "[%s %s len=%u ttl=%u%s]", to_string(kind),
                  flow().to_string().c_str(), wire_bytes(), ip->ttl,
                  corrupted ? " CORRUPT" : "");
  } else {
    std::snprintf(buf, sizeof(buf), "[%s len=%u%s]", to_string(kind), wire_bytes(),
                  corrupted ? " CORRUPT" : "");
  }
  return buf;
}

util::PacketUid next_packet_uid() {
  // Process-wide uid tick; uniqueness is the only property anything
  // relies on.
  static std::atomic<util::PacketUid> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace netseer::packet
