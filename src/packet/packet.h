#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "packet/flow_key.h"
#include "packet/headers.h"
#include "util/ids.h"
#include "util/time.h"

namespace netseer::packet {

/// Discriminates what a frame carries beyond its headers. The data plane
/// itself only ever branches on headers; `kind` exists so simulation
/// components can cheaply recognize their own control traffic without
/// re-parsing payload bytes.
enum class PacketKind : std::uint8_t {
  kData = 0,         // application traffic
  kPfc,              // 802.1Qbb pause/resume frame
  kProbe,            // Pingmesh-style probe
  kProbeReply,       //   ... and its reply
  kLossNotify,       // NetSeer inter-switch loss notification (§3.3)
};

[[nodiscard]] const char* to_string(PacketKind kind);

/// Base class for structured control payloads riding inside packets.
/// Modules define their own payloads (loss notifications, event batches,
/// probes); `wire_size()` is the payload's on-the-wire byte count so frame
/// length accounting stays honest. Payloads are immutable and shared so
/// copying a Packet stays cheap.
class ControlPayload {
 public:
  virtual ~ControlPayload() = default;
  [[nodiscard]] virtual std::uint32_t wire_size() const = 0;
};

/// Per-packet metadata that exists only inside the simulator (it models
/// switch PHV metadata plus ground-truth bookkeeping; none of it is on
/// the wire).
struct PacketMeta {
  util::PortId ingress_port = util::kInvalidPort;   // set by the receiving node
  util::SimTime enqueue_time = 0;                   // when queued in the MMU
  util::QueueId queue = 0;                          // egress priority queue
  util::SimTime created_time = 0;
  bool mmu_accounted = false;  // packet holds PFC ingress-buffer credit
};

class Pool;

/// The simulated frame. A value type: pipelines mutate their copy and the
/// link layer moves it. Headers mirror what the wire serializer emits;
/// `payload_bytes` stands in for application payload content we never
/// need to materialize.
///
/// Pool::acquire stamps two facts on a frame, the way a switch pipeline
/// computes a hash once into packet metadata for every later stage to
/// read: its flow hash and its length without the sequence shim. Every
/// hop reads the stamp instead of re-deriving it from the headers, so no
/// field that feeds either fact (IP addresses and protocol, L4 ports, PFC
/// body, payload length, control payload) may change once a frame is
/// pooled. The shim may come and go: wire_bytes() adds it on read. MAC
/// addresses, TTL, DSCP and `corrupted` feed neither fact. A frame never
/// pooled derives both from its headers.
struct Packet {
  util::PacketUid uid = 0;
  PacketKind kind = PacketKind::kData;

  EthernetHeader eth{};
  /// NetSeer inter-switch consecutive packet ID shim (§3.3). Inserted by
  /// the upstream egress, removed by the downstream ingress.
  std::optional<std::uint32_t> seq_tag;
  std::optional<Ipv4Header> ip;
  L4Header l4{};
  std::optional<PfcFrame> pfc;

  /// Virtual application payload length in bytes (content not modeled).
  std::uint32_t payload_bytes = 0;
  /// Set by the link corruption process: the next MAC that receives this
  /// frame will fail the FCS check and discard it silently.
  bool corrupted = false;

  std::shared_ptr<const ControlPayload> control;

  PacketMeta meta{};

  /// 5-tuple of an IPv4 packet; zero key for non-IP frames.
  [[nodiscard]] FlowKey flow() const {
    if (!ip) return FlowKey{};
    return FlowKey{ip->src, ip->dst, ip->proto, l4.sport, l4.dport};
  }

  /// flow().hash64(): the one flow hash ECMP, the path-change table and
  /// ground truth share. Read from the stamp once the frame is pooled.
  [[nodiscard]] std::uint64_t flow_hash() const {
    return stamped_bytes_ != 0 ? stamped_hash_ : flow().hash64();
  }

  [[nodiscard]] bool is_ipv4() const { return ip.has_value(); }
  [[nodiscard]] bool is_tcp() const {
    return ip && ip->proto == static_cast<std::uint8_t>(IpProto::kTcp);
  }
  [[nodiscard]] bool is_udp() const {
    return ip && ip->proto == static_cast<std::uint8_t>(IpProto::kUdp);
  }

  /// Total frame length on the wire in bytes, including Ethernet header,
  /// shims, IP/L4 headers, payload (or control payload), and FCS; padded
  /// to the 64-byte Ethernet minimum. A pooled frame adds the shim, if it
  /// carries one, to its stamped length.
  [[nodiscard]] std::uint32_t wire_bytes() const;

  /// Header-only bytes (wire_bytes minus payload and padding).
  [[nodiscard]] std::uint32_t header_bytes() const;

  [[nodiscard]] std::string summary() const;

 private:
  friend class Pool;

  /// Length without the sequence shim and before padding.
  [[nodiscard]] std::uint32_t unshimmed_bytes() const;
  /// Record both frame facts from the current headers (Pool::acquire).
  void stamp() {
    stamped_hash_ = flow().hash64();
    stamped_bytes_ = unshimmed_bytes();
  }

  std::uint64_t stamped_hash_ = 0;
  /// 0 until stamped: every frame has at least an Ethernet header.
  std::uint32_t stamped_bytes_ = 0;
};

inline constexpr std::uint32_t kEthHeaderBytes = 14;
inline constexpr std::uint32_t kEthFcsBytes = 4;
/// NetSeer sequence shim on the wire: 4-byte packet ID plus the 2-byte
/// encapsulated ethertype (the paper avoids this cost by reusing unused
/// VLAN/IP-option bits; our explicit shim makes the overhead visible).
inline constexpr std::uint32_t kSeqTagBytes = 6;
inline constexpr std::uint32_t kMinFrameBytes = 64;
inline constexpr std::uint32_t kDefaultMtu = 1500;  // max IP datagram bytes

inline std::uint32_t Packet::wire_bytes() const {
  const std::uint32_t unshimmed = stamped_bytes_ != 0 ? stamped_bytes_ : unshimmed_bytes();
  return std::max(unshimmed + (seq_tag ? kSeqTagBytes : 0), kMinFrameBytes);
}

/// Process-wide monotonically increasing packet uid source. Determinism
/// note: uids order packet *creation*, they carry no timing meaning.
[[nodiscard]] util::PacketUid next_packet_uid();

}  // namespace netseer::packet
