// TruePathTable, ground truth's open-addressing path memory, checked
// against a std::map holding the same facts: both must report the same
// path events in the same order, through probe collisions, several
// rehashes and clear().
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "monitors/ground_truth.h"
#include "util/rng.h"

namespace netseer::monitors {
namespace {

/// The reference: the last port pair per (node, flow hash).
class MapPaths {
 public:
  bool record(util::NodeId node, std::uint64_t flow_hash, util::PortId in, util::PortId out) {
    const auto [it, inserted] = paths_.try_emplace({node, flow_hash}, in, out);
    if (inserted) return true;
    if (it->second == std::pair{in, out}) return false;
    it->second = {in, out};
    return true;
  }
  void clear() { paths_.clear(); }
  [[nodiscard]] std::size_t size() const { return paths_.size(); }

 private:
  std::map<std::pair<util::NodeId, std::uint64_t>, std::pair<util::PortId, util::PortId>>
      paths_;
};

using PathEvent = std::tuple<util::NodeId, std::uint64_t, util::PortId, util::PortId>;

TEST(TruePathTable, AgreesWithAMapThroughCollisionsGrowthAndClear) {
  util::Rng rng(26);
  // Half the flow hashes are random; the other half share their low 32
  // bits and differ only above them.
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < 6000; ++i) hashes.push_back(rng.next());
  for (std::uint64_t i = 1; i <= 6000; ++i) hashes.push_back((i << 32) | 0x5eedu);

  TruePathTable table;
  MapPaths reference;
  std::vector<PathEvent> table_events;
  std::vector<PathEvent> map_events;
  std::size_t peak = 0;
  for (int op = 0; op < 300000; ++op) {
    if (op == 100000 || op == 200000) {
      table.clear();
      reference.clear();
      EXPECT_EQ(table.size(), 0u);
    }
    const auto node = static_cast<util::NodeId>(rng.uniform(12));
    const std::uint64_t flow_hash = hashes[rng.uniform(hashes.size())];
    const auto in = static_cast<util::PortId>(rng.uniform(3));
    const auto out = static_cast<util::PortId>(rng.uniform(3));
    if (table.record(node, flow_hash, in, out)) {
      table_events.emplace_back(node, flow_hash, in, out);
    }
    if (reference.record(node, flow_hash, in, out)) {
      map_events.emplace_back(node, flow_hash, in, out);
    }
    peak = std::max(peak, table.size());
  }

  EXPECT_EQ(table.size(), reference.size());
  ASSERT_EQ(table_events.size(), map_events.size());
  EXPECT_TRUE(table_events == map_events);
  // More than 32K keys held at once: the 1024-slot table rehashed at
  // least six times on the way.
  EXPECT_GT(peak, 32u * 1024);
}

}  // namespace
}  // namespace netseer::monitors
