// The shipped harnesses (src/mc/harnesses.cpp), run through their own
// pass criteria: correctness harnesses must EXHAUST their schedule
// space cleanly, seeded-bug harnesses must get caught.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mc/harnesses.h"

namespace netseer::mc {
namespace {

const Harness& find(const std::string& name) {
  for (const Harness& h : all_harnesses()) {
    if (h.name == name) return h;
  }
  ADD_FAILURE() << "no harness named " << name;
  static const Harness missing{};
  return missing;
}

std::vector<std::string> harness_names() {
  std::vector<std::string> names;
  for (const Harness& h : all_harnesses()) names.push_back(h.name);
  return names;
}

class McHarness : public ::testing::TestWithParam<std::string> {};

TEST_P(McHarness, PassesItsOwnCriteria) {
  const Harness& harness = find(GetParam());
  ASSERT_NE(harness.run, nullptr);
  const Result result = harness.run(harness.options);
  EXPECT_TRUE(harness.passed(result))
      << harness.name << ": schedules=" << result.schedules << " exhausted=" << result.exhausted
      << " failed=" << result.failed << " failure=" << result.failure;
  if (harness.expect_failure) {
    // A seeded-bug harness must hand back the schedule that tripped it.
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.trace.empty());
  } else {
    EXPECT_TRUE(result.exhausted);
    EXPECT_GE(result.schedules, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, McHarness, ::testing::ValuesIn(harness_names()),
                         [](const auto& info) { return info.param; });

TEST(McHarnessRegistry, NamesAreUniqueAndSummariesPresent) {
  const auto& harnesses = all_harnesses();
  ASSERT_GE(harnesses.size(), 3u);
  for (std::size_t i = 0; i < harnesses.size(); ++i) {
    EXPECT_FALSE(harnesses[i].name.empty());
    EXPECT_FALSE(harnesses[i].summary.empty());
    for (std::size_t j = i + 1; j < harnesses.size(); ++j) {
      EXPECT_NE(harnesses[i].name, harnesses[j].name);
    }
  }
}

TEST(McHarnessRegistry, CoversTheRequiredPrimitives) {
  // The concurrency-correctness contract: the group-commit watermark and
  // the subscription tail each have an exhaustive harness, and the
  // watermark has a seeded-bug twin that proves the checker's teeth on it.
  for (const char* required : {"group_commit_watermark", "subscription_tail"}) {
    EXPECT_FALSE(find(required).expect_failure) << required;
  }
  EXPECT_TRUE(find("group_commit_seeded_relaxed").expect_failure);
}

}  // namespace
}  // namespace netseer::mc
