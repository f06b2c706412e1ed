// Rule-file parser: the text format netseer_detect --rules consumes.
#include <gtest/gtest.h>

#include "detect/rules.h"

namespace netseer::detect {
namespace {

TEST(RulesParseTest, GoldenFile) {
  const std::string text =
      "# detection rules\n"
      "window_us 500\n"
      "lateness_us 50\n"
      "idle_gc_windows 8\n"
      "rule drop-burst type=drop family=threshold feature=packets scope=device-flow "
      "threshold=20 clear_ratio=0.25 raise_after=2\n"
      "rule lat family=ewma feature=latency-mean-us scope=device alpha=0.1 k_sigma=4 "
      "warmup=16 min_sigma=2\n"
      "rule shift type=congestion family=cusum feature=events scope=device "
      "cusum_slack=4 cusum_h=32 clear_after=5 escalate_after=6 damp_windows=2\n"
      "waive path.blackhole probed out of band\n";
  std::string error;
  const auto set = parse_rules(text, &error);
  ASSERT_TRUE(set.has_value()) << error;
  EXPECT_EQ(set->window, util::microseconds(500));
  EXPECT_EQ(set->lateness, util::microseconds(50));
  EXPECT_EQ(set->idle_gc_windows, 8u);
  ASSERT_EQ(set->rules.size(), 3u);

  const Rule& burst = set->rules[0];
  EXPECT_EQ(burst.name, "drop-burst");
  EXPECT_EQ(burst.type, core::EventType::kDrop);
  EXPECT_EQ(burst.family, Family::kThreshold);
  EXPECT_EQ(burst.feature, Feature::kPackets);
  EXPECT_EQ(burst.scope, Scope::kDeviceFlow);
  EXPECT_DOUBLE_EQ(burst.threshold, 20.0);
  EXPECT_DOUBLE_EQ(burst.clear_ratio, 0.25);
  EXPECT_EQ(burst.raise_after, 2u);

  const Rule& lat = set->rules[1];
  EXPECT_EQ(lat.family, Family::kEwma);
  EXPECT_EQ(lat.feature, Feature::kLatencyMeanUs);
  EXPECT_DOUBLE_EQ(lat.alpha, 0.1);
  EXPECT_DOUBLE_EQ(lat.k_sigma, 4.0);
  EXPECT_EQ(lat.warmup, 16u);
  EXPECT_DOUBLE_EQ(lat.min_sigma, 2.0);

  const Rule& shift = set->rules[2];
  EXPECT_EQ(shift.family, Family::kCusum);
  EXPECT_DOUBLE_EQ(shift.cusum_slack, 4.0);
  EXPECT_DOUBLE_EQ(shift.cusum_h, 32.0);
  EXPECT_EQ(shift.clear_after, 5u);
  EXPECT_EQ(shift.escalate_after, 6u);
  EXPECT_EQ(shift.damp_windows, 2u);

  ASSERT_EQ(set->waivers.size(), 1u);
  EXPECT_EQ(set->waivers[0].class_prefix, "path.blackhole");
  EXPECT_EQ(set->waivers[0].reason, "probed out of band");
  EXPECT_NE(set->waiver("path.blackhole"), nullptr);
  EXPECT_EQ(set->waiver("lpm.10.0.0.0/31"), nullptr);
}

TEST(RulesParseTest, ErrorsNameTheLine) {
  std::string error;
  EXPECT_FALSE(parse_rules("window_us -5\nrule r\n", &error).has_value());
  EXPECT_EQ(error, "line 1: expected a number after window_us");

  EXPECT_FALSE(parse_rules("rule\n", &error).has_value());
  EXPECT_EQ(error, "line 1: rule needs a name");

  EXPECT_FALSE(parse_rules("rule r threshold\n", &error).has_value());
  EXPECT_EQ(error, "line 1: expected key=value, got 'threshold'");

  EXPECT_FALSE(parse_rules("rule r bogus=1\n", &error).has_value());
  EXPECT_EQ(error, "line 1: bad rule setting 'bogus=1'");

  EXPECT_FALSE(parse_rules("rule r family=fourier\n", &error).has_value());
  EXPECT_EQ(error, "line 1: bad rule setting 'family=fourier'");

  EXPECT_FALSE(parse_rules("frobnicate\n", &error).has_value());
  EXPECT_EQ(error, "line 1: unknown directive 'frobnicate'");

  EXPECT_FALSE(parse_rules("# only comments\n", &error).has_value());
  EXPECT_NE(error.find("no rules defined"), std::string::npos);
}

// Every number is the whole token and fits its field: a raise_after of
// -1 would otherwise read as 2^32-1, a rule that can never raise.
TEST(RulesParseTest, NumbersMustParseWholeAndFit) {
  std::string error;
  EXPECT_FALSE(parse_rules("rule r threshold=abc\n", &error).has_value());
  EXPECT_EQ(error, "line 1: bad rule setting 'threshold=abc'");
  EXPECT_FALSE(parse_rules("rule r threshold=20x\n", &error).has_value());
  EXPECT_EQ(error, "line 1: bad rule setting 'threshold=20x'");
  EXPECT_FALSE(parse_rules("rule r threshold=nan\n", &error).has_value());
  EXPECT_FALSE(parse_rules("rule r raise_after=-1\n", &error).has_value());
  EXPECT_EQ(error, "line 1: bad rule setting 'raise_after=-1'");
  EXPECT_FALSE(parse_rules("rule r warmup=4294967296\n", &error).has_value());
  EXPECT_FALSE(parse_rules("window_us 20x\nrule r\n", &error).has_value());
  EXPECT_EQ(error, "line 1: expected a number after window_us");
  EXPECT_FALSE(parse_rules("rule r\nidle_gc_windows 4294967296\n", &error).has_value());
  EXPECT_EQ(error, "line 2: expected a number after idle_gc_windows");
  EXPECT_FALSE(parse_rules("lateness_us 9223372036854775807\nrule r\n", &error).has_value());

  const auto set = parse_rules("rule r threshold=2.5e1 raise_after=4294967295\n", &error);
  ASSERT_TRUE(set.has_value()) << error;
  EXPECT_DOUBLE_EQ(set->rules[0].threshold, 25.0);
  EXPECT_EQ(set->rules[0].raise_after, 4294967295u);
}

TEST(RulesParseTest, CommentsAndBlankLinesAreIgnored) {
  std::string error;
  const auto set = parse_rules("\n# header\nrule r threshold=3  # trailing\n\n", &error);
  ASSERT_TRUE(set.has_value()) << error;
  ASSERT_EQ(set->rules.size(), 1u);
  EXPECT_DOUBLE_EQ(set->rules[0].threshold, 3.0);
}

TEST(RulesParseTest, LoadRulesMissingFile) {
  std::string error;
  EXPECT_FALSE(load_rules("/nonexistent/netseer/rules.conf", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(RulesDefaultsTest, CoverEveryIncidentEventType) {
  const RuleSet set = RuleSet::defaults();
  EXPECT_NE(set.rule_for(core::EventType::kDrop), nullptr);
  EXPECT_NE(set.rule_for(core::EventType::kAclDrop), nullptr);
  EXPECT_NE(set.rule_for(core::EventType::kCongestion), nullptr);
  EXPECT_NE(set.rule_for(core::EventType::kPause), nullptr);
  // All three detector families are represented.
  bool threshold = false, ewma = false, cusum = false;
  for (const auto& rule : set.rules) {
    threshold |= rule.family == Family::kThreshold;
    ewma |= rule.family == Family::kEwma;
    cusum |= rule.family == Family::kCusum;
  }
  EXPECT_TRUE(threshold && ewma && cusum);
}

}  // namespace
}  // namespace netseer::detect
