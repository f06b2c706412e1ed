#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace netseer::util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Summary {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  /// Combine with another accumulator (Chan's parallel variance update),
  /// so per-component summaries can fold into an aggregate.
  void merge(const Summary& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto total = static_cast<double>(n_ + other.n_);
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / total;
    mean_ += delta * static_cast<double>(other.n_) / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace netseer::util
