#include "traffic/distributions.h"

#include <gtest/gtest.h>

namespace netseer::traffic {
namespace {

TEST(EmpiricalCdf, RejectsMalformedInput) {
  EXPECT_THROW(EmpiricalCdf("x", {{100, 1.0}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf("x", {{100, 0.5}, {50, 1.0}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf("x", {{100, 0.8}, {200, 0.5}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf("x", {{100, 0.5}, {200, 0.9}}), std::invalid_argument);
}

TEST(EmpiricalCdf, SamplesWithinSupport) {
  util::Rng rng(1);
  const auto& cdf = dctcp();
  for (int i = 0; i < 10000; ++i) {
    const auto s = cdf.sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, static_cast<std::uint64_t>(cdf.points().back().bytes));
  }
}

TEST(EmpiricalCdf, SampleDistributionMatchesCdf) {
  util::Rng rng(2);
  const auto& cdf = web();
  const int n = 100000;
  int below_1k = 0;
  for (int i = 0; i < n; ++i) below_1k += (cdf.sample(rng) <= 1000);
  EXPECT_NEAR(static_cast<double>(below_1k) / n, cdf.cdf(1000), 0.02);
}

TEST(EmpiricalCdf, CdfMonotone) {
  const auto& cdf = vl2();
  double prev = -1;
  for (double bytes = 50; bytes < 2e8; bytes *= 2) {
    const double p = cdf.cdf(bytes);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(cdf.cdf(1e9), 1.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(1), 0.0);
}

TEST(EmpiricalCdf, MeanIsPlausible) {
  // Empirical sample mean should be near the analytic mean.
  util::Rng rng(3);
  for (const auto* cdf : all_workloads()) {
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(cdf->sample(rng));
    const double sample_mean = sum / n;
    EXPECT_NEAR(sample_mean / cdf->mean_bytes(), 1.0, 0.25) << cdf->name();
  }
}

TEST(Workloads, FiveWorkloadsWithDistinctShapes) {
  ASSERT_EQ(all_workloads().size(), 5u);
  // DCTCP (web search) is much heavier than WEB (small requests).
  EXPECT_GT(dctcp().mean_bytes(), 20 * web().mean_bytes());
  // VL2 has a heavy tail: mean far above the median region.
  EXPECT_GT(vl2().mean_bytes(), 10000);
  EXPECT_GT(vl2().cdf(2000), 0.5);  // yet most flows are tiny
}

TEST(Workloads, NamesMatchPaper) {
  EXPECT_EQ(dctcp().name(), "DCTCP");
  EXPECT_EQ(vl2().name(), "VL2");
  EXPECT_EQ(cache().name(), "CACHE");
  EXPECT_EQ(hadoop().name(), "HADOOP");
  EXPECT_EQ(web().name(), "WEB");
}

TEST(Workloads, FindWorkloadTakesTheLowerCaseNames) {
  EXPECT_EQ(find_workload("dctcp"), &dctcp());
  EXPECT_EQ(find_workload("vl2"), &vl2());
  EXPECT_EQ(find_workload("cache"), &cache());
  EXPECT_EQ(find_workload("hadoop"), &hadoop());
  EXPECT_EQ(find_workload("web"), &web());
  for (const char* name : {"WEB", "Web", "", "web ", "websearch", "bogus"}) {
    EXPECT_EQ(find_workload(name), nullptr) << "'" << name << "'";
  }
}

}  // namespace
}  // namespace netseer::traffic
