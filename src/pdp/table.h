#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "packet/addr.h"
#include "util/hash.h"
#include "util/ids.h"

namespace netseer::pdp {

/// A set of equal-cost next-hop ports. Member selection mixes the flow
/// hash (FlowKey::hash64, which a pooled frame carries stamped as
/// Packet::flow_hash) with a per-switch seed so different switches pick
/// independently, like hardware ECMP hash-seed rotation.
struct EcmpGroup {
  std::vector<util::PortId> ports;

  [[nodiscard]] bool empty() const { return ports.empty(); }

  [[nodiscard]] util::PortId select(std::uint64_t flow_hash, std::uint64_t seed) const {
    if (ports.empty()) return util::kInvalidPort;
    const std::uint64_t h = util::hash_combine(flow_hash, util::mix64(seed));
    return ports[h % ports.size()];
  }
};

/// Longest-prefix-match routing table. Entries can be marked corrupted to
/// model SRAM parity errors: a corrupted entry is skipped by lookups, so
/// exactly the flows it covered silently lose their route — the Case-#3
/// failure mode in §5.1.
///
/// Lookups go through one exact-match hash index per prefix length
/// present, keyed on the masked network and probed longest first, so a
/// lookup costs one probe per distinct length instead of a scan over
/// every entry. The index holds healthy entries only, first in
/// entries() order per key, so it returns exactly what a longest-first
/// scan of entries() returns. It is rebuilt on the first lookup after
/// insert(), remove() or set_corrupted(), so a table filled entry by
/// entry is indexed once. Single-threaded, like the simulator: lookup()
/// may rebuild the index.
class LpmTable {
 public:
  struct Entry {
    packet::Ipv4Prefix prefix;
    EcmpGroup nexthops;
    bool corrupted = false;
  };

  /// Insert or replace the entry for `prefix`.
  void insert(const packet::Ipv4Prefix& prefix, EcmpGroup nexthops) {
    index_stale_ = true;
    for (auto& entry : entries_) {
      if (entry.prefix == prefix) {
        entry.nexthops = std::move(nexthops);
        entry.corrupted = false;
        return;
      }
    }
    entries_.push_back(Entry{prefix, std::move(nexthops), false});
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.prefix.length > b.prefix.length; });
  }

  /// Remove the entry for `prefix`; returns whether it existed.
  bool remove(const packet::Ipv4Prefix& prefix) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.prefix == prefix; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    index_stale_ = true;
    return true;
  }

  /// Flip the parity-error flag on the entry for `prefix`.
  bool set_corrupted(const packet::Ipv4Prefix& prefix, bool corrupted) {
    for (auto& entry : entries_) {
      if (entry.prefix == prefix) {
        entry.corrupted = corrupted;
        index_stale_ = true;
        return true;
      }
    }
    return false;
  }

  /// Longest matching healthy entry, or nullptr on miss.
  [[nodiscard]] const EcmpGroup* lookup(packet::Ipv4Addr dst) const {
    if (index_stale_) rebuild_index();
    for (const auto& level : levels_) {  // longest first
      const std::uint32_t network = dst.value & level.mask;
      for (std::size_t i = slot_of(network, level);; i = (i + 1) & level.slot_mask) {
        const Slot& slot = level.slots[i];
        if (slot.entry == kEmptySlot) break;
        if (slot.network == network) return &entries_[slot.entry].nexthops;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Every entry, corrupted ones included, sorted longest prefix first.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  /// One open-addressing slot: a masked network and its entry's index.
  struct Slot {
    std::uint32_t network = 0;
    std::uint32_t entry = kEmptySlot;
  };
  /// The exact-match index of one prefix length. Linear probing over a
  /// power-of-two table at most half full, so every probe chain ends at
  /// an empty slot.
  struct Level {
    std::uint32_t mask = 0;
    std::size_t slot_mask = 0;
    std::vector<Slot> slots;
  };

  [[nodiscard]] static std::size_t slot_of(std::uint32_t network, const Level& level) {
    return static_cast<std::size_t>(util::mix64(network)) & level.slot_mask;
  }
  void rebuild_index() const;

  std::vector<Entry> entries_;
  mutable std::vector<Level> levels_;
  mutable bool index_stale_ = false;
};

}  // namespace netseer::pdp
