#include "pdp/acl.h"

#include <gtest/gtest.h>

namespace netseer::pdp {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

FlowKey flow(Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto = 6, std::uint16_t sport = 1234,
             std::uint16_t dport = 80) {
  return FlowKey{src, dst, proto, sport, dport};
}

TEST(AclRule, WildcardMatchesEverything) {
  AclRule rule;
  EXPECT_TRUE(rule.matches(flow(Ipv4Addr::from_octets(1, 2, 3, 4), Ipv4Addr::from_octets(5, 6, 7, 8))));
}

TEST(AclRule, SrcPrefixFilters) {
  AclRule rule;
  rule.src = Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8};
  EXPECT_TRUE(rule.matches(flow(Ipv4Addr::from_octets(10, 9, 9, 9), Ipv4Addr::from_octets(1, 1, 1, 1))));
  EXPECT_FALSE(rule.matches(flow(Ipv4Addr::from_octets(11, 0, 0, 1), Ipv4Addr::from_octets(1, 1, 1, 1))));
}

TEST(AclRule, ProtoFilter) {
  AclRule rule;
  rule.proto = 17;
  EXPECT_FALSE(rule.matches(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2), 6)));
  EXPECT_TRUE(rule.matches(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2), 17)));
}

TEST(AclRule, PortRanges) {
  AclRule rule;
  rule.dport_lo = 80;
  rule.dport_hi = 443;
  EXPECT_TRUE(rule.matches(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2), 6, 1, 80)));
  EXPECT_TRUE(rule.matches(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2), 6, 1, 443)));
  EXPECT_FALSE(rule.matches(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2), 6, 1, 444)));
}

TEST(AclTable, DefaultPermits) {
  AclTable table;
  const auto verdict = table.evaluate(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2)));
  EXPECT_TRUE(verdict.permit);
  EXPECT_EQ(verdict.rule_id, 0);
}

TEST(AclTable, DenyRuleBlocks) {
  AclTable table;
  AclRule rule;
  rule.rule_id = 42;
  rule.dst = Ipv4Prefix{Ipv4Addr::from_octets(10, 1, 0, 0), 16};
  rule.permit = false;
  table.add_rule(rule);

  const auto verdict = table.evaluate(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(10, 1, 2, 3)));
  EXPECT_FALSE(verdict.permit);
  EXPECT_EQ(verdict.rule_id, 42);
}

TEST(AclTable, FirstMatchWins) {
  AclTable table;
  AclRule specific_permit;
  specific_permit.rule_id = 1;
  specific_permit.dst = Ipv4Prefix{Ipv4Addr::from_octets(10, 1, 2, 0), 24};
  specific_permit.permit = true;
  table.add_rule(specific_permit);

  AclRule broad_deny;
  broad_deny.rule_id = 2;
  broad_deny.dst = Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8};
  broad_deny.permit = false;
  table.add_rule(broad_deny);

  EXPECT_TRUE(table.evaluate(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(10, 1, 2, 3))).permit);
  EXPECT_FALSE(table.evaluate(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(10, 5, 0, 1))).permit);
}

TEST(AclTable, HitCountersAccumulate) {
  AclTable table;
  AclRule rule;
  rule.rule_id = 7;
  rule.permit = false;
  table.add_rule(rule);

  for (int i = 0; i < 5; ++i) {
    (void)table.evaluate(flow(Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(2, 2, 2, 2)));
  }
  EXPECT_EQ(table.hits(7), 5u);
  EXPECT_EQ(table.hits(99), 0u);
}

TEST(AclTable, FindReturnsRule) {
  AclTable table;
  AclRule rule;
  rule.rule_id = 9;
  table.add_rule(rule);
  ASSERT_NE(table.find(9), nullptr);
  EXPECT_EQ(table.find(9)->rule_id, 9);
  EXPECT_EQ(table.find(10), nullptr);
}

}  // namespace
}  // namespace netseer::pdp
