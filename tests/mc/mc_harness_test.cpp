// The shipped harnesses (src/mc/harnesses.cpp), run through their own
// pass criteria: correctness harnesses must EXHAUST their schedule
// space cleanly, seeded-bug harnesses must get caught.
#include <gtest/gtest.h>

#include <string>

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

class McHarness : public ::testing::TestWithParam<const char*> {};

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

INSTANTIATE_TEST_SUITE_P(Shipped, McHarness,
                         ::testing::Values("spsc_serial", "spsc_handoff", "spsc_seeded_relaxed",
                                           "group_commit_watermark", "group_commit_seeded_relaxed",
                                           "subscription_tail"),
                         [](const auto& info) { return std::string(info.param); });

TEST(McHarnessRegistry, NamesAreUniqueAndSummariesPresent) {
  const auto& harnesses = all_harnesses();
  ASSERT_GE(harnesses.size(), 5u);
  for (std::size_t i = 0; i < harnesses.size(); ++i) {
    EXPECT_FALSE(harnesses[i].name.empty());
    EXPECT_FALSE(harnesses[i].summary.empty());
    for (std::size_t j = i + 1; j < harnesses.size(); ++j) {
      EXPECT_NE(harnesses[i].name, harnesses[j].name);
    }
  }
}

TEST(McHarnessRegistry, CoversTheRequiredPrimitives) {
  // The concurrency-correctness contract: the SPSC ring, the group-commit
  // watermark and the subscription tail each have an exhaustive harness,
  // and the ring and the watermark each have a seeded-bug twin that
  // proves the checker's teeth on them.
  for (const char* required : {"spsc_handoff", "group_commit_watermark", "subscription_tail"}) {
    EXPECT_FALSE(find(required).expect_failure) << required;
  }
  for (const char* seeded : {"spsc_seeded_relaxed", "group_commit_seeded_relaxed"}) {
    EXPECT_TRUE(find(seeded).expect_failure) << seeded;
  }
}

}  // namespace
}  // namespace netseer::mc
