#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace netseer::traffic {

/// An empirical CDF over flow sizes in bytes, sampled by inverse
/// transform with log-linear interpolation between knots (flow sizes
/// span orders of magnitude, so linear interpolation in log-size space
/// preserves the shape of the published distributions).
class EmpiricalCdf {
 public:
  struct Point {
    double bytes;       // flow size
    double cumulative;  // P(size <= bytes), non-decreasing, last == 1.0
  };

  /// `points` must be sorted by size, with cumulative ending at 1.0.
  /// Throws std::invalid_argument on malformed input.
  explicit EmpiricalCdf(std::string name, std::vector<Point> points);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Draw one flow size (>= 1 byte).
  [[nodiscard]] std::uint64_t sample(util::Rng& rng) const;

  /// Mean flow size (numeric, from the interpolated CDF).
  [[nodiscard]] double mean_bytes() const { return mean_; }

  /// P(size <= bytes) for validation/tests.
  [[nodiscard]] double cdf(double bytes) const;

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::string name_;
  std::vector<Point> points_;
  double mean_ = 0.0;
};

/// The five workloads of the paper's evaluation (§5.2). The tables are
/// the widely used public approximations of the cited measurement
/// studies: DCTCP = web-search [Alizadeh'10], VL2 = data-mining
/// [Greenberg'09], CACHE / HADOOP / WEB = Facebook production clusters
/// [Roy'15]. Exact knot values are approximations; the benches depend on
/// the *shape* (small-flow dominance vs heavy tail), which these keep.
[[nodiscard]] const EmpiricalCdf& dctcp();
[[nodiscard]] const EmpiricalCdf& vl2();
[[nodiscard]] const EmpiricalCdf& cache();
[[nodiscard]] const EmpiricalCdf& hadoop();
[[nodiscard]] const EmpiricalCdf& web();

/// All five, in the order the paper's figures list them.
[[nodiscard]] const std::vector<const EmpiricalCdf*>& all_workloads();

/// The workload a command line names: "dctcp", "vl2", "cache", "hadoop"
/// or "web" (a paper name in lower case). Null for any other name,
/// including the upper-case "WEB".
[[nodiscard]] const EmpiricalCdf* find_workload(std::string_view name);

}  // namespace netseer::traffic
