#include "traffic/distributions.h"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace netseer::traffic {

EmpiricalCdf::EmpiricalCdf(std::string name, std::vector<Point> points)
    : name_(std::move(name)), points_(std::move(points)) {
  if (points_.size() < 2) throw std::invalid_argument("cdf needs >= 2 points");
  double prev_size = 0.0;
  double prev_cum = 0.0;
  for (const auto& p : points_) {
    if (p.bytes <= prev_size) throw std::invalid_argument("cdf sizes must increase");
    if (p.cumulative < prev_cum || p.cumulative > 1.0) {
      throw std::invalid_argument("cdf probabilities must be non-decreasing in [0,1]");
    }
    prev_size = p.bytes;
    prev_cum = p.cumulative;
  }
  if (points_.back().cumulative != 1.0) throw std::invalid_argument("cdf must end at 1.0");

  // Analytic mean of the sampler: within a segment, size(u) = exp(a+bu),
  // whose average over the segment is the logarithmic mean of the
  // endpoints, (s1-s0)/ln(s1/s0).
  double mean = points_.front().bytes * points_.front().cumulative;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double dp = points_[i].cumulative - points_[i - 1].cumulative;
    const double s0 = points_[i - 1].bytes;
    const double s1 = points_[i].bytes;
    const double log_mean = (s1 - s0) / std::log(s1 / s0);
    mean += dp * log_mean;
  }
  mean_ = mean;
}

std::uint64_t EmpiricalCdf::sample(util::Rng& rng) const {
  const double u = rng.uniform01();
  if (u <= points_.front().cumulative) {
    const auto bytes = static_cast<std::uint64_t>(points_.front().bytes);
    return bytes > 0 ? bytes : 1;
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (u <= points_[i].cumulative) {
      const double p0 = points_[i - 1].cumulative;
      const double p1 = points_[i].cumulative;
      const double t = (u - p0) / (p1 - p0);
      const double log_size = std::log(points_[i - 1].bytes) +
                              t * (std::log(points_[i].bytes) - std::log(points_[i - 1].bytes));
      const auto bytes = static_cast<std::uint64_t>(std::exp(log_size));
      return bytes > 0 ? bytes : 1;
    }
  }
  return static_cast<std::uint64_t>(points_.back().bytes);
}

double EmpiricalCdf::cdf(double bytes) const {
  if (bytes <= points_.front().bytes) {
    return bytes < points_.front().bytes ? 0.0 : points_.front().cumulative;
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (bytes <= points_[i].bytes) {
      const double t = (std::log(bytes) - std::log(points_[i - 1].bytes)) /
                       (std::log(points_[i].bytes) - std::log(points_[i - 1].bytes));
      return points_[i - 1].cumulative +
             t * (points_[i].cumulative - points_[i - 1].cumulative);
    }
  }
  return 1.0;
}

namespace {
constexpr double kKB = 1e3;
constexpr double kMB = 1e6;
}  // namespace

const EmpiricalCdf& dctcp() {
  // Web-search workload of DCTCP [Alizadeh et al., SIGCOMM'10], Fig. 4.
  static const EmpiricalCdf cdf("DCTCP", {
      {6 * kKB, 0.15}, {13 * kKB, 0.28}, {19 * kKB, 0.39}, {33 * kKB, 0.46},
      {53 * kKB, 0.53}, {133 * kKB, 0.60}, {667 * kKB, 0.70}, {1467 * kKB, 0.80},
      {3333 * kKB, 0.90}, {6667 * kKB, 0.95}, {20 * kMB, 1.0},
  });
  return cdf;
}

const EmpiricalCdf& vl2() {
  // Data-mining workload of VL2 [Greenberg et al., SIGCOMM'09]: mice
  // dominate the count, elephants the bytes.
  static const EmpiricalCdf cdf("VL2", {
      {100, 0.03}, {180, 0.10}, {250, 0.20}, {560, 0.30}, {900, 0.40},
      {1100, 0.50}, {1870, 0.60}, {3160, 0.70}, {10 * kKB, 0.80},
      {400 * kKB, 0.90}, {3.16 * kMB, 0.95}, {100 * kMB, 1.0},
  });
  return cdf;
}

const EmpiricalCdf& cache() {
  // Facebook cache-follower cluster [Roy et al., SIGCOMM'15].
  static const EmpiricalCdf cdf("CACHE", {
      {100, 0.05}, {300, 0.20}, {600, 0.45}, {1 * kKB, 0.55}, {2 * kKB, 0.65},
      {5 * kKB, 0.78}, {10 * kKB, 0.88}, {100 * kKB, 0.95}, {1 * kMB, 0.99},
      {10 * kMB, 1.0},
  });
  return cdf;
}

const EmpiricalCdf& hadoop() {
  // Facebook Hadoop cluster [Roy et al., SIGCOMM'15].
  static const EmpiricalCdf cdf("HADOOP", {
      {130, 0.10}, {300, 0.30}, {800, 0.50}, {1.5 * kKB, 0.60}, {5 * kKB, 0.75},
      {20 * kKB, 0.85}, {100 * kKB, 0.92}, {1 * kMB, 0.96}, {10 * kMB, 0.99},
      {100 * kMB, 1.0},
  });
  return cdf;
}

const EmpiricalCdf& web() {
  // Facebook web-server cluster [Roy et al., SIGCOMM'15].
  static const EmpiricalCdf cdf("WEB", {
      {100, 0.15}, {300, 0.40}, {700, 0.55}, {1 * kKB, 0.60}, {2 * kKB, 0.70},
      {5 * kKB, 0.80}, {10 * kKB, 0.87}, {50 * kKB, 0.95}, {500 * kKB, 0.99},
      {5 * kMB, 1.0},
  });
  return cdf;
}

const std::vector<const EmpiricalCdf*>& all_workloads() {
  static const std::vector<const EmpiricalCdf*> all = {&dctcp(), &vl2(), &cache(), &hadoop(),
                                                       &web()};
  return all;
}

const EmpiricalCdf* find_workload(std::string_view name) {
  for (const auto* cdf : all_workloads()) {
    std::string lower = cdf->name();
    for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (lower == name) return cdf;
  }
  return nullptr;
}

}  // namespace netseer::traffic
