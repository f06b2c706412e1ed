// Verify/detect coverage cross-check: the symbolic verifier emits the
// machine-readable list of loss classes a deployment can exhibit, and
// every class must either map to a detect rule that observes its event
// stream or carry an explicit waiver in the RuleSet. This is the test
// that keeps the two subsystems honest with each other — a new drop
// path cannot ship without either a detector or a written-down reason
// there is none.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/rules.h"
#include "fabric/fat_tree.h"
#include "pdp/switch.h"
#include "verify/coverage.h"

namespace netseer::detect {
namespace {

using verify::CoverageClass;

/// The cross-check itself: classes with no rule and no waiver.
std::vector<std::string> uncovered(const std::vector<CoverageClass>& classes,
                                   const RuleSet& rules) {
  std::vector<std::string> missing;
  for (const CoverageClass& c : classes) {
    if (rules.waiver(c.name) != nullptr) continue;
    if (!c.silent && rules.covering(c.name) != nullptr) continue;
    missing.push_back(c.name);
  }
  return missing;
}

std::vector<CoverageClass> classes_for(const fabric::Testbed& tb) {
  verify::Report report;
  return verify::collect_coverage(report, tb.all_switches(), core::NetSeerConfig{},
                                  verify::VerifyOptions{});
}

bool has_class(const std::vector<CoverageClass>& classes, std::string_view name,
               bool* silent = nullptr) {
  for (const CoverageClass& c : classes) {
    if (c.name == name) {
      if (silent != nullptr) *silent = c.silent;
      return true;
    }
  }
  return false;
}

// Replicas of the netseer_verify CLI fixtures, seeded directly.
bool seed_silent_drop(pdp::Switch& sw) {
  for (util::PortId p = 0; p < sw.config().num_ports; ++p) {
    if (sw.link(p) == nullptr) {
      sw.routes().insert(packet::Ipv4Prefix{packet::Ipv4Addr::from_octets(99, 0, 0, 0), 8},
                         pdp::EcmpGroup{{p}});
      return true;
    }
  }
  return false;
}

bool seed_dead_route(pdp::Switch& sw) {
  for (const auto& entry : sw.routes().entries()) {
    if (entry.prefix.length != 32 || entry.corrupted) continue;
    const pdp::EcmpGroup group = entry.nexthops;
    const std::uint32_t addr = entry.prefix.network.value;
    sw.routes().insert(packet::Ipv4Prefix{packet::Ipv4Addr{addr ^ 1U}, 32}, group);
    sw.routes().insert(packet::Ipv4Prefix{packet::Ipv4Addr{addr & ~1U}, 31}, group);
    return true;
  }
  return false;
}

TEST(CoverageCrosscheckTest, CleanTestbedIsFullyCoveredOrWaived) {
  const fabric::Testbed tb = fabric::make_testbed();
  const auto classes = classes_for(tb);
  // A clean deployment still has reachable drop reasons (that is the
  // point of flow event telemetry); the default rules must cover them.
  ASSERT_FALSE(classes.empty());
  const auto missing = uncovered(classes, RuleSet::defaults());
  EXPECT_TRUE(missing.empty()) << "uncovered loss classes: " << [&] {
    std::string joined;
    for (const auto& m : missing) joined += m + " ";
    return joined;
  }();
}

TEST(CoverageCrosscheckTest, ReachableDropClassesMapToEventStreamRules) {
  const fabric::Testbed tb = fabric::make_testbed();
  const auto classes = classes_for(tb);
  const RuleSet rules = RuleSet::defaults();
  for (const CoverageClass& c : classes) {
    if (c.silent) continue;
    const Rule* rule = rules.covering(c.name);
    ASSERT_NE(rule, nullptr) << c.name;
    if (c.name == "drop.acl-deny") {
      EXPECT_EQ(rule->type, core::EventType::kAclDrop) << c.name;
    } else {
      EXPECT_EQ(rule->type, core::EventType::kDrop) << c.name;
    }
  }
}

TEST(CoverageCrosscheckTest, SilentDropSurfacesBlackholeClassAndIsWaived) {
  fabric::Testbed tb = fabric::make_testbed();
  ASSERT_TRUE(seed_silent_drop(*tb.aggs[0]));
  const auto classes = classes_for(tb);
  bool silent = false;
  ASSERT_TRUE(has_class(classes, "path.blackhole", &silent));
  EXPECT_TRUE(silent);  // structurally invisible to the event stream
  const RuleSet rules = RuleSet::defaults();
  EXPECT_EQ(rules.covering("path.blackhole"), nullptr);
  EXPECT_NE(rules.waiver("path.blackhole"), nullptr);
  EXPECT_TRUE(uncovered(classes, rules).empty());
}

TEST(CoverageCrosscheckTest, DeadRouteSurfacesLpmClassAndIsWaived) {
  fabric::Testbed tb = fabric::make_testbed();
  ASSERT_TRUE(seed_dead_route(*tb.tors[0]));
  const auto classes = classes_for(tb);
  bool found_lpm = false;
  bool silent = false;
  for (const CoverageClass& c : classes) {
    if (c.name.rfind("lpm.", 0) == 0) {
      found_lpm = true;
      silent = c.silent;
    }
  }
  ASSERT_TRUE(found_lpm);
  EXPECT_TRUE(silent);
  EXPECT_TRUE(uncovered(classes, RuleSet::defaults()).empty());
}

TEST(CoverageCrosscheckTest, MissingRuleAndWaiverIsDetected) {
  const fabric::Testbed tb = fabric::make_testbed();
  const auto classes = classes_for(tb);
  // Strip the rule set down to nothing: every non-silent class must now
  // show up as uncovered — the cross-check has teeth.
  RuleSet bare = RuleSet::defaults();
  bare.rules.clear();
  bare.waivers.clear();
  std::size_t non_silent = 0;
  for (const CoverageClass& c : classes) non_silent += c.silent ? 0 : 1;
  ASSERT_GT(non_silent, 0u);
  EXPECT_EQ(uncovered(classes, bare).size(), classes.size());

  // And a waiver-less seeded blackhole is uncovered too.
  fabric::Testbed seeded = fabric::make_testbed();
  ASSERT_TRUE(seed_silent_drop(*seeded.aggs[0]));
  RuleSet no_waivers = RuleSet::defaults();
  no_waivers.waivers.clear();
  const auto missing = uncovered(classes_for(seeded), no_waivers);
  EXPECT_FALSE(missing.empty());
  bool blackhole_missing = false;
  for (const auto& m : missing) blackhole_missing |= (m == "path.blackhole");
  EXPECT_TRUE(blackhole_missing);
}

TEST(CoverageCrosscheckTest, JsonRenderingIsStable) {
  std::vector<CoverageClass> classes;
  classes.push_back({"drop.route-miss", false, "symbolic.summary"});
  classes.push_back({"path.blackhole", true, "symbolic.coverage"});
  EXPECT_EQ(verify::render_coverage_json(classes),
            "{\"classes\":[{\"name\":\"drop.route-miss\",\"silent\":false,"
            "\"source\":\"symbolic.summary\"},{\"name\":\"path.blackhole\","
            "\"silent\":true,\"source\":\"symbolic.coverage\"}]}\n");
}

}  // namespace
}  // namespace netseer::detect
