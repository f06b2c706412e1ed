#include "pdp/table.h"

#include <bit>

namespace netseer::pdp {

void LpmTable::rebuild_index() const {
  levels_.clear();
  // entries_ is sorted longest prefix first, so each length is one run.
  for (std::size_t begin = 0; begin < entries_.size();) {
    const std::uint8_t length = entries_[begin].prefix.length;
    std::size_t end = begin;
    std::size_t healthy = 0;
    for (; end < entries_.size() && entries_[end].prefix.length == length; ++end) {
      if (!entries_[end].corrupted) ++healthy;
    }
    if (healthy > 0) {
      Level& level = levels_.emplace_back();
      level.mask = entries_[begin].prefix.mask();
      level.slots.resize(std::bit_ceil(2 * healthy));
      level.slot_mask = level.slots.size() - 1;
      for (std::size_t e = begin; e < end; ++e) {
        if (entries_[e].corrupted) continue;
        const std::uint32_t network = entries_[e].prefix.network.value & level.mask;
        std::size_t i = slot_of(network, level);
        while (level.slots[i].entry != kEmptySlot && level.slots[i].network != network) {
          i = (i + 1) & level.slot_mask;
        }
        // The first healthy entry with this network wins, as in a scan.
        if (level.slots[i].entry == kEmptySlot) {
          level.slots[i] = Slot{network, static_cast<std::uint32_t>(e)};
        }
      }
    }
    begin = end;
  }
  index_stale_ = false;
}

}  // namespace netseer::pdp
