#include "packet/wire.h"

#include <cstring>

#include "util/hash.h"

namespace netseer::packet::wire {

namespace {

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    for (auto b : data) u8(b);
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, std::byte{0}); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::byte>(v >> 8);
    out_[offset + 1] = static_cast<std::byte>(v);
  }

 private:
  std::vector<std::byte>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() {
    if (pos_ + 1 > data_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() {
    const auto hi = u8();
    const auto lo = u8();
    return static_cast<std::uint16_t>((std::uint16_t{hi} << 8) | lo);
  }
  std::uint32_t u32() {
    const auto hi = u16();
    const auto lo = u16();
    return (std::uint32_t{hi} << 16) | lo;
  }
  void skip(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      pos_ = data_.size();
      return;
    }
    pos_ += n;
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::uint16_t ethertype_after_shims(const Packet& pkt) {
  if (pkt.pfc) return static_cast<std::uint16_t>(EtherType::kFlowControl);
  if (pkt.ip) return static_cast<std::uint16_t>(EtherType::kIpv4);
  return 0x0000;  // length/unknown
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::byte> data) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (std::uint32_t(static_cast<std::uint8_t>(data[i])) << 8) |
           std::uint32_t(static_cast<std::uint8_t>(data[i + 1]));
  }
  if (i < data.size()) sum += std::uint32_t(static_cast<std::uint8_t>(data[i])) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::byte> serialize(const Packet& pkt) {
  std::vector<std::byte> out;
  out.reserve(pkt.wire_bytes());
  Writer w(out);

  // Ethernet.
  w.bytes(pkt.eth.dst.bytes);
  w.bytes(pkt.eth.src.bytes);

  if (pkt.seq_tag) {
    w.u16(static_cast<std::uint16_t>(EtherType::kNetSeerSeq));
    w.u32(*pkt.seq_tag);
  }
  w.u16(ethertype_after_shims(pkt));

  if (pkt.pfc) {
    w.u16(0x0101);  // MAC control opcode for PFC
    w.u16(pkt.pfc->class_enable);
    for (auto q : pkt.pfc->pause_quanta) w.u16(q);
  }

  if (pkt.ip) {
    const std::size_t ip_start = w.size();
    std::uint32_t l4_size = 0;
    if (pkt.is_tcp()) l4_size = L4Header::kTcpWireSize;
    else if (pkt.is_udp()) l4_size = L4Header::kUdpWireSize;
    const std::uint32_t control_bytes = pkt.control ? pkt.control->wire_size() : 0;
    const std::uint16_t total_len = static_cast<std::uint16_t>(
        Ipv4Header::kWireSize + l4_size + pkt.payload_bytes + control_bytes);

    w.u8(0x45);  // version 4, IHL 5
    w.u8(static_cast<std::uint8_t>((pkt.ip->dscp << 2) | (pkt.ip->ecn & 0x3)));
    w.u16(total_len);
    w.u16(pkt.ip->ident);
    w.u16(0x4000);  // DF, no fragmentation in the model
    w.u8(pkt.ip->ttl);
    w.u8(pkt.ip->proto);
    const std::size_t csum_at = w.size();
    w.u16(0);  // checksum placeholder
    w.u32(pkt.ip->src.value);
    w.u32(pkt.ip->dst.value);
    const std::uint16_t csum = internet_checksum(
        std::span<const std::byte>(out.data() + ip_start, Ipv4Header::kWireSize));
    w.patch_u16(csum_at, csum);

    if (pkt.is_tcp()) {
      w.u16(pkt.l4.sport);
      w.u16(pkt.l4.dport);
      w.u32(pkt.l4.seq);
      w.u32(pkt.l4.ack);
      w.u8(0x50);  // data offset 5
      w.u8(pkt.l4.flags);
      w.u16(pkt.l4.window);
      w.u16(0);  // TCP checksum not modeled (payload is virtual)
      w.u16(0);  // urgent pointer
    } else if (pkt.is_udp()) {
      w.u16(pkt.l4.sport);
      w.u16(pkt.l4.dport);
      w.u16(static_cast<std::uint16_t>(L4Header::kUdpWireSize + pkt.payload_bytes +
                                       control_bytes));
      w.u16(0);  // UDP checksum optional for IPv4
    }
  }

  // Virtual payload + control payload, rendered as zeros.
  const std::uint32_t body =
      pkt.payload_bytes + (pkt.control ? pkt.control->wire_size() : 0);
  w.zeros(body);

  // Pad to minimum frame (64 bytes with FCS).
  if (out.size() + kEthFcsBytes < kMinFrameBytes) {
    w.zeros(kMinFrameBytes - kEthFcsBytes - out.size());
  }

  std::uint32_t fcs = util::crc32(out);
  if (pkt.corrupted) fcs ^= 0xdeadbeef;  // make the FCS check fail downstream
  w.u32(fcs);
  return out;
}

std::optional<ParseResult> parse(std::span<const std::byte> data) {
  if (data.size() < kMinFrameBytes) return std::nullopt;

  ParseResult result;
  Packet& pkt = result.packet;
  pkt.uid = next_packet_uid();

  // FCS first — a real MAC checks it before anything else.
  const std::uint32_t want_fcs = util::crc32(data.first(data.size() - 4));
  Reader fcs_reader(data.subspan(data.size() - 4));
  const std::uint32_t got_fcs = fcs_reader.u32();
  result.fcs_ok = (want_fcs == got_fcs);
  pkt.corrupted = !result.fcs_ok;

  Reader r(data.first(data.size() - 4));
  for (auto& b : pkt.eth.dst.bytes) b = r.u8();
  for (auto& b : pkt.eth.src.bytes) b = r.u8();

  std::uint16_t ethertype = r.u16();
  if (ethertype == static_cast<std::uint16_t>(EtherType::kNetSeerSeq)) {
    pkt.seq_tag = r.u32();
    ethertype = r.u16();
  }

  if (ethertype == static_cast<std::uint16_t>(EtherType::kFlowControl)) {
    pkt.kind = PacketKind::kPfc;
    PfcFrame pfc;
    const std::uint16_t opcode = r.u16();
    if (opcode != 0x0101) return std::nullopt;
    pfc.class_enable = static_cast<std::uint8_t>(r.u16());
    for (auto& q : pfc.pause_quanta) q = r.u16();
    pkt.pfc = pfc;
    if (!r.ok()) return std::nullopt;
    return result;
  }

  if (ethertype != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    // Unknown ethertype: structurally fine, no higher layers.
    result.ip_checksum_ok = true;
    return r.ok() ? std::optional<ParseResult>(std::move(result)) : std::nullopt;
  }

  const std::size_t ip_start = r.pos();
  const std::uint8_t version_ihl = r.u8();
  if ((version_ihl >> 4) != 4 || (version_ihl & 0x0f) != 5) return std::nullopt;
  Ipv4Header ip;
  const std::uint8_t tos = r.u8();
  ip.dscp = static_cast<std::uint8_t>(tos >> 2);
  ip.ecn = tos & 0x3;
  const std::uint16_t total_len = r.u16();
  ip.ident = r.u16();
  r.u16();  // flags/fragment
  ip.ttl = r.u8();
  ip.proto = r.u8();
  r.u16();  // checksum (validated over the whole header below)
  ip.src.value = r.u32();
  ip.dst.value = r.u32();
  if (!r.ok()) return std::nullopt;
  result.ip_checksum_ok =
      internet_checksum(data.subspan(ip_start, Ipv4Header::kWireSize)) == 0;
  pkt.ip = ip;

  std::uint32_t l4_size = 0;
  if (pkt.is_tcp()) {
    if (r.remaining() < L4Header::kTcpWireSize) return std::nullopt;
    pkt.l4.sport = r.u16();
    pkt.l4.dport = r.u16();
    pkt.l4.seq = r.u32();
    pkt.l4.ack = r.u32();
    r.u8();  // data offset
    pkt.l4.flags = r.u8();
    pkt.l4.window = r.u16();
    r.u16();  // checksum
    r.u16();  // urgent
    l4_size = L4Header::kTcpWireSize;
  } else if (pkt.is_udp()) {
    if (r.remaining() < L4Header::kUdpWireSize) return std::nullopt;
    pkt.l4.sport = r.u16();
    pkt.l4.dport = r.u16();
    r.u16();  // length
    r.u16();  // checksum
    l4_size = L4Header::kUdpWireSize;
  }

  if (total_len >= Ipv4Header::kWireSize + l4_size) {
    pkt.payload_bytes = total_len - Ipv4Header::kWireSize - l4_size;
  }
  return r.ok() ? std::optional<ParseResult>(std::move(result)) : std::nullopt;
}

}  // namespace netseer::packet::wire
