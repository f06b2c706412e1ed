#include "pdp/table.h"

#include <gtest/gtest.h>

#include "packet/flow_key.h"
#include "packet/headers.h"

namespace netseer::pdp {
namespace {

using packet::Ipv4Addr;
using packet::Ipv4Prefix;

packet::FlowKey flow(std::uint16_t sport) {
  return packet::FlowKey{Ipv4Addr::from_octets(10, 0, 0, 1), Ipv4Addr::from_octets(10, 1, 0, 1),
                         6, sport, 80};
}

TEST(EcmpGroup, EmptyGroupReturnsInvalid) {
  EcmpGroup group;
  EXPECT_EQ(group.select(flow(1).hash64(), 0), util::kInvalidPort);
}

TEST(EcmpGroup, SingleMemberAlwaysSelected) {
  EcmpGroup group{{5}};
  for (std::uint16_t s = 0; s < 50; ++s) EXPECT_EQ(group.select(flow(s).hash64(), 7), 5);
}

TEST(EcmpGroup, SameFlowSamePort) {
  EcmpGroup group{{1, 2, 3, 4}};
  const auto first = group.select(flow(99).hash64(), 42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(group.select(flow(99).hash64(), 42), first);
}

TEST(EcmpGroup, FlowsSpreadAcrossMembers) {
  EcmpGroup group{{1, 2, 3, 4}};
  std::array<int, 8> counts{};
  for (std::uint16_t s = 0; s < 4000; ++s) ++counts[group.select(flow(s).hash64(), 42)];
  for (int p = 1; p <= 4; ++p) EXPECT_GT(counts[p], 700) << "port " << p;
}

TEST(EcmpGroup, SeedChangesSelection) {
  EcmpGroup group{{1, 2, 3, 4}};
  int differing = 0;
  for (std::uint16_t s = 0; s < 100; ++s) {
    if (group.select(flow(s).hash64(), 1) != group.select(flow(s).hash64(), 2)) ++differing;
  }
  EXPECT_GT(differing, 30);  // different seeds pick differently often
}

TEST(LpmTable, LongestPrefixWins) {
  LpmTable table;
  table.insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8}, EcmpGroup{{1}});
  table.insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 1, 0, 0), 16}, EcmpGroup{{2}});
  table.insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 1, 2, 0), 24}, EcmpGroup{{3}});

  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 9, 9, 9))->ports[0], 1);
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 1, 9, 9))->ports[0], 2);
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 1, 2, 9))->ports[0], 3);
}

TEST(LpmTable, MissReturnsNull) {
  LpmTable table;
  table.insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8}, EcmpGroup{{1}});
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(192, 168, 0, 1)), nullptr);
}

TEST(LpmTable, EmptyTableMisses) {
  LpmTable table;
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 0, 0, 1)), nullptr);
}

TEST(LpmTable, InsertReplacesExisting) {
  LpmTable table;
  const Ipv4Prefix prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 24};
  table.insert(prefix, EcmpGroup{{1}});
  table.insert(prefix, EcmpGroup{{9}});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 0, 0, 5))->ports[0], 9);
}

TEST(LpmTable, RemoveEntry) {
  LpmTable table;
  const Ipv4Prefix prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 24};
  table.insert(prefix, EcmpGroup{{1}});
  EXPECT_TRUE(table.remove(prefix));
  EXPECT_FALSE(table.remove(prefix));
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 0, 0, 5)), nullptr);
}

TEST(LpmTable, CorruptedEntryIsSkipped) {
  // The §5.1 Case-#3 failure: a parity error silently blackholes exactly
  // the flows covered by the corrupted entry.
  LpmTable table;
  const Ipv4Prefix victim{Ipv4Addr::from_octets(10, 1, 2, 0), 24};
  table.insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8}, EcmpGroup{{1}});
  table.insert(victim, EcmpGroup{{3}});

  ASSERT_TRUE(table.set_corrupted(victim, true));
  // Falls through to the shorter prefix (10/8), not a total miss.
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 1, 2, 9))->ports[0], 1);

  ASSERT_TRUE(table.set_corrupted(victim, false));
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 1, 2, 9))->ports[0], 3);
}

TEST(LpmTable, CorruptedOnlyEntryMisses) {
  LpmTable table;
  const Ipv4Prefix prefix{Ipv4Addr::from_octets(10, 1, 2, 0), 24};
  table.insert(prefix, EcmpGroup{{3}});
  ASSERT_TRUE(table.set_corrupted(prefix, true));
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 1, 2, 9)), nullptr);
}

TEST(LpmTable, SetCorruptedUnknownPrefix) {
  LpmTable table;
  EXPECT_FALSE(table.set_corrupted(Ipv4Prefix{Ipv4Addr::from_octets(1, 2, 3, 0), 24}, true));
}

TEST(LpmTable, ReinsertClearsCorruption) {
  LpmTable table;
  const Ipv4Prefix prefix{Ipv4Addr::from_octets(10, 1, 2, 0), 24};
  table.insert(prefix, EcmpGroup{{3}});
  table.set_corrupted(prefix, true);
  table.insert(prefix, EcmpGroup{{4}});  // control plane rewrite repairs parity
  EXPECT_EQ(table.lookup(Ipv4Addr::from_octets(10, 1, 2, 9))->ports[0], 4);
}

}  // namespace
}  // namespace netseer::pdp
