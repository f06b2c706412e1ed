#include <cstdint>
#include <string>

#include "packet/headers.h"
#include "verify/symbolic.h"

namespace netseer::verify {

namespace {

/// Does `outer` contain every address of `inner`?
[[nodiscard]] bool prefix_contains(const packet::Ipv4Prefix& outer,
                                   const packet::Ipv4Prefix& inner) {
  return outer.length <= inner.length && outer.contains(inner.network);
}

/// Do the two prefixes share any address? (Prefixes are nested or
/// disjoint, never partially overlapping.)
[[nodiscard]] bool prefixes_overlap(const packet::Ipv4Prefix& a, const packet::Ipv4Prefix& b) {
  return prefix_contains(a, b) || prefix_contains(b, a);
}

}  // namespace

PrefixSet PrefixSet::any() {
  PrefixSet set;
  set.prefixes_.push_back(packet::Ipv4Prefix{});  // 0.0.0.0/0
  return set;
}

PrefixSet PrefixSet::of(const packet::Ipv4Prefix& prefix) {
  PrefixSet set;
  set.prefixes_.push_back(prefix);
  return set;
}

void PrefixSet::intersect(const packet::Ipv4Prefix& prefix) {
  std::vector<packet::Ipv4Prefix> kept;
  for (const auto& p : prefixes_) {
    if (prefix_contains(prefix, p)) {
      kept.push_back(p);  // already inside
    } else if (prefix_contains(p, prefix)) {
      kept.push_back(prefix);  // members are disjoint, so this happens at most once
    }
    // disjoint: drop
  }
  prefixes_ = std::move(kept);
}

void PrefixSet::subtract(const packet::Ipv4Prefix& prefix) {
  std::vector<packet::Ipv4Prefix> kept;
  for (const auto& p : prefixes_) {
    if (!prefixes_overlap(p, prefix)) {
      kept.push_back(p);
      continue;
    }
    if (prefix_contains(prefix, p)) continue;  // fully removed
    // p strictly contains prefix: walk from p toward prefix, keeping the
    // sibling half at each bit — the exact set difference.
    for (std::uint8_t len = p.length; len < prefix.length; ++len) {
      const std::uint32_t branch_bit = std::uint32_t{1} << (31 - len);
      packet::Ipv4Prefix sibling;
      sibling.length = static_cast<std::uint8_t>(len + 1);
      sibling.network.value =
          ((prefix.network.value ^ branch_bit) & sibling.mask());
      kept.push_back(sibling);
    }
  }
  prefixes_ = std::move(kept);
}

bool PrefixSet::contains(packet::Ipv4Addr addr) const {
  for (const auto& p : prefixes_) {
    if (p.contains(addr)) return true;
  }
  return false;
}

std::uint64_t PrefixSet::address_count() const {
  std::uint64_t total = 0;
  for (const auto& p : prefixes_) total += std::uint64_t{1} << (32 - p.length);
  return total;
}

std::string PrefixSet::to_string() const {
  if (prefixes_.empty()) return "{}";
  std::string out = "{";
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += prefixes_[i].to_string();
  }
  out += "}";
  return out;
}

std::uint32_t mtu_check_bytes(const packet::Packet& pkt) {
  // Mirrors the expression in Switch::run_pipeline exactly.
  return pkt.wire_bytes() - packet::kEthHeaderBytes - packet::kEthFcsBytes -
         (pkt.seq_tag ? packet::kSeqTagBytes : 0);
}

bool SymPacket::admits(const packet::Packet& pkt) const {
  if (pkt.corrupted != corrupted) return false;
  if (corrupted) return true;  // the MAC discards before any other branch
  const bool pkt_pfc = pkt.kind == packet::PacketKind::kPfc && pkt.pfc.has_value();
  if (pkt_pfc != is_pfc) return false;
  if (is_pfc) return true;
  if (pkt.is_ipv4() != is_ipv4) return false;
  if (!is_ipv4) return true;
  const packet::FlowKey flow = pkt.flow();
  return src.contains(flow.src) && dst.contains(flow.dst) && proto.contains(flow.proto) &&
         sport.contains(flow.sport) && dport.contains(flow.dport) &&
         ttl.contains(pkt.ip->ttl) && ip_bytes.contains(mtu_check_bytes(pkt));
}

const char* to_string(PathVerdict verdict) {
  switch (verdict) {
    case PathVerdict::kForward: return "forward";
    case PathVerdict::kDrop: return "drop";
    case PathVerdict::kConsumed: return "consumed";
    case PathVerdict::kBlackhole: return "blackhole";
  }
  return "?";
}

std::string SymbolicPath::describe() const {
  std::string out = to_string(verdict);
  if (verdict == PathVerdict::kDrop) {
    out += "(";
    out += pdp::to_string(reason);
    out += ")";
  }
  if (synthetic) out += " [synthetic]";
  for (const auto& step : steps) {
    out += " -> ";
    out += pdp::to_string(step.stage);
    if (!step.note.empty()) {
      out += "[";
      out += step.note;
      out += "]";
    }
  }
  for (const auto& e : emissions) {
    out += " !";
    out += e.point;
  }
  return out;
}

}  // namespace netseer::verify
