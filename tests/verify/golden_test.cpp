// Golden guarantee: every topology this repo ships, deployed with the
// default NetSeer configuration, verifies clean under --strict. If a
// future change to the defaults (ring sizing, CEBP parameters, cache
// geometry) breaks a deployability invariant, these tests name the
// diagnostic instead of letting the regression ship silently.
#include <gtest/gtest.h>

#include <string>

#include "fabric/fat_tree.h"
#include "verify/verifier.h"

namespace netseer::verify {
namespace {

void expect_clean(const char* topology, bool symbolic = false) {
  const std::string what = std::string(topology) + (symbolic ? " --symbolic" : "");
  const fabric::Testbed tb = fabric::make_testbed(*fabric::resolve_topology(topology));
  VerifyOptions options;
  options.strict = true;
  options.symbolic = symbolic;
  const Report report = verify_testbed(tb, core::NetSeerConfig{}, options);
  EXPECT_TRUE(report.ok(true)) << what << ":\n" << report.render_text();
  EXPECT_TRUE(report.diagnostics().empty()) << what << ":\n" << report.render_text();
  // All passes ran: the five structural ones, plus the five symbolic
  // passes when the executor is enabled.
  EXPECT_EQ(report.passes_run().size(), symbolic ? 10u : 5u);
}

TEST(GoldenVerifyTest, TestbedVerifiesCleanStrict) {
  expect_clean("testbed");
}

TEST(GoldenVerifyTest, FatTree4VerifiesCleanStrict) {
  expect_clean("fat4");
}

TEST(GoldenVerifyTest, FatTree6VerifiesCleanStrict) {
  expect_clean("fat6");
}

TEST(GoldenVerifyTest, TestbedVerifiesCleanStrictSymbolic) {
  expect_clean("testbed", /*symbolic=*/true);
}

TEST(GoldenVerifyTest, FatTree4VerifiesCleanStrictSymbolic) {
  expect_clean("fat4", /*symbolic=*/true);
}

TEST(GoldenVerifyTest, FatTree6VerifiesCleanStrictSymbolic) {
  expect_clean("fat6", /*symbolic=*/true);
}

TEST(GoldenVerifyTest, GoldenSummaryLineIsStable) {
  const fabric::Testbed tb = fabric::make_testbed();
  const Report report = verify_testbed(tb, core::NetSeerConfig{}, VerifyOptions{});
  EXPECT_EQ(report.render_text(), "0 error(s), 0 warning(s) across 5 pass(es)\n");
}

TEST(GoldenVerifyTest, VerifySwitchesSkipsNulls) {
  const fabric::Testbed tb = fabric::make_testbed();
  std::vector<pdp::Switch*> with_null = tb.all_switches();
  with_null.push_back(nullptr);
  const Report report = verify_switches(with_null, core::NetSeerConfig{}, VerifyOptions{});
  EXPECT_TRUE(report.ok(true)) << report.render_text();
}

TEST(GoldenVerifyTest, SingleSwitchOverloadMatchesTestbedResult) {
  const fabric::Testbed tb = fabric::make_testbed();
  const Report report = verify_switch(*tb.tors[0], core::NetSeerConfig{});
  EXPECT_TRUE(report.ok(true)) << report.render_text();
  EXPECT_EQ(report.passes_run().size(), 5u);
}

}  // namespace
}  // namespace netseer::verify
