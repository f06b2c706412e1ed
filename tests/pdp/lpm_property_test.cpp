// Property test: the LPM table agrees with a brute-force reference model
// under randomized prefix sets, lookups, removals and corruptions.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "pdp/table.h"
#include "util/rng.h"

namespace netseer::pdp {
namespace {

struct RefEntry {
  packet::Ipv4Prefix prefix;
  util::PortId port;
  bool corrupted;
};

/// O(n) reference: longest healthy matching prefix.
std::optional<util::PortId> ref_lookup(const std::vector<RefEntry>& entries,
                                       packet::Ipv4Addr addr) {
  std::optional<util::PortId> best;
  int best_len = -1;
  for (const auto& entry : entries) {
    if (entry.corrupted || !entry.prefix.contains(addr)) continue;
    if (static_cast<int>(entry.prefix.length) > best_len) {
      best_len = entry.prefix.length;
      best = entry.port;
    }
  }
  return best;
}

class LpmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmProperty, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  LpmTable table;
  std::vector<RefEntry> reference;

  const auto random_prefix = [&] {
    const auto length = static_cast<std::uint8_t>(rng.uniform(33));  // 0..32
    packet::Ipv4Addr net{static_cast<std::uint32_t>(rng.next())};
    net.value &= packet::Ipv4Prefix{{}, length}.mask();
    return packet::Ipv4Prefix{net, length};
  };

  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform01();
    if (action < 0.5 || reference.empty()) {
      const auto prefix = random_prefix();
      const auto port = static_cast<util::PortId>(rng.uniform(32));
      table.insert(prefix, EcmpGroup{{port}});
      // Reference semantics: replace same prefix, clear corruption.
      bool replaced = false;
      for (auto& entry : reference) {
        if (entry.prefix == prefix) {
          entry.port = port;
          entry.corrupted = false;
          replaced = true;
        }
      }
      if (!replaced) reference.push_back(RefEntry{prefix, port, false});
    } else if (action < 0.65) {
      const auto idx = rng.uniform(reference.size());
      EXPECT_TRUE(table.remove(reference[idx].prefix));
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 0.8) {
      const auto idx = rng.uniform(reference.size());
      const bool corrupt = rng.chance(0.7);
      EXPECT_TRUE(table.set_corrupted(reference[idx].prefix, corrupt));
      reference[idx].corrupted = corrupt;
    } else {
      // Lookups: random addresses plus addresses inside known prefixes.
      for (int probe = 0; probe < 10; ++probe) {
        packet::Ipv4Addr addr{static_cast<std::uint32_t>(rng.next())};
        if (rng.chance(0.5) && !reference.empty()) {
          const auto& entry = reference[rng.uniform(reference.size())];
          addr.value = (entry.prefix.network.value & entry.prefix.mask()) |
                       (static_cast<std::uint32_t>(rng.next()) & ~entry.prefix.mask());
        }
        const auto* group = table.lookup(addr);
        const auto expected = ref_lookup(reference, addr);
        if (expected.has_value()) {
          ASSERT_NE(group, nullptr) << addr.to_string();
          // Two distinct masked prefixes of one length cannot both
          // contain an address, so the longest healthy match is unique.
          EXPECT_EQ(group->ports[0], *expected) << addr.to_string();
        } else {
          EXPECT_EQ(group, nullptr) << addr.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace netseer::pdp
