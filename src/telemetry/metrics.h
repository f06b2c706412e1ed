#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/annotations.h"
#include "util/ids.h"
#include "util/stats.h"
#include "util/thread_annotations.h"

namespace netseer::telemetry {

/// Monotonic event count. Plain integer increments: safe for per-packet
/// hot paths once the reference is held.
class Counter {
 public:
  NETSEER_HOT void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level that also remembers its all-time peak, so
/// high-water marks survive snapshotting after the level drains.
class Gauge {
 public:
  NETSEER_HOT void set(std::int64_t v) {
    value_ = v;
    if (v > peak_) peak_ = v;
  }
  NETSEER_HOT void add(std::int64_t delta) { set(value_ + delta); }
  /// Raise the peak (and level) only if `v` exceeds the current peak —
  /// the merge operation for sampled high-water marks.
  NETSEER_HOT void update_max(std::int64_t v) {
    if (v > value_) value_ = v;
    if (v > peak_) peak_ = v;
  }
  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] std::int64_t peak() const { return peak_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t peak_ = 0;
};

/// Log-bucketed distribution: bucket i counts samples in [2^(i-1), 2^i),
/// bucket 0 counts samples < 1. A util::Summary rides along for exact
/// count/mean/min/max. Fixed storage — no allocation after construction —
/// and mergeable, so components can record locally and fold into a
/// registry at snapshot time.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  NETSEER_HOT void record(double v) {
    summary_.add(v);
    ++counts_[bucket_of(v)];
  }

  void merge(const Histogram& other) {
    summary_.merge(other.summary_);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  }

  [[nodiscard]] static std::size_t bucket_of(double v) {
    if (!(v >= 1.0)) return 0;  // also catches NaN
    const auto bucket = static_cast<std::size_t>(std::floor(std::log2(v))) + 1;
    return bucket < kBuckets ? bucket : kBuckets - 1;
  }

  /// Inclusive lower bound of bucket i (0 for the underflow bucket).
  [[nodiscard]] static double bucket_low(std::size_t i) {
    return i == 0 ? 0.0 : std::exp2(static_cast<double>(i - 1));
  }

  [[nodiscard]] const util::Summary& summary() const { return summary_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const { return counts_; }

 private:
  util::Summary summary_;
  std::array<std::uint64_t, kBuckets> counts_{};
};

/// Series address: (subsystem, name, node). node == kInvalidNode means a
/// process-global series (e.g. the simulator's event count).
struct MetricKey {
  std::string subsystem;
  std::string name;
  util::NodeId node = util::kInvalidNode;

  auto operator<=>(const MetricKey&) const = default;
};

/// The registry: owns every metric cell. Registration (first lookup of a
/// key) allocates under the registry mutex, so concurrent collectors can
/// share one registry; after that, callers hold references and mutate
/// their cells allocation- and lock-free. That makes cell MUTATION a
/// single-writer contract (the simulator is single-threaded, as is every
/// collector in this repo) while REGISTRATION and snapshotting are safe
/// from any thread.
class Registry {
 public:
  Registry() = default;
  /// Deep copy taken under the source's lock — MetricsSnapshot::capture
  /// copies a live registry by value.
  Registry(const Registry& other) : Registry() { *this = other; }
  Registry& operator=(const Registry& other) NETSEER_EXCLUDES(mu_) {
    if (this == &other) return *this;
    // Copy the source under its lock, then swap in under ours; never
    // hold both (no ordering deadlock on concurrent cross-assignment).
    std::map<MetricKey, Counter> counters;
    std::map<MetricKey, Gauge> gauges;
    std::map<MetricKey, Histogram> histograms;
    {
      util::MutexLock lock(other.mu_);
      counters = other.counters_;
      gauges = other.gauges_;
      histograms = other.histograms_;
    }
    util::MutexLock lock(mu_);
    counters_ = std::move(counters);
    gauges_ = std::move(gauges);
    histograms_ = std::move(histograms);
    return *this;
  }

  Counter& counter(std::string_view subsystem, std::string_view name,
                   util::NodeId node = util::kInvalidNode) NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return counters_[key(subsystem, name, node)];
  }
  Gauge& gauge(std::string_view subsystem, std::string_view name,
               util::NodeId node = util::kInvalidNode) NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return gauges_[key(subsystem, name, node)];
  }
  Histogram& histogram(std::string_view subsystem, std::string_view name,
                       util::NodeId node = util::kInvalidNode) NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return histograms_[key(subsystem, name, node)];
  }

  /// Consistent copies of the series maps (std::map iterators stay valid
  /// across registration, but copying under the lock keeps readers
  /// ordered against in-flight registrations).
  [[nodiscard]] std::map<MetricKey, Counter> counters() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return counters_;
  }
  [[nodiscard]] std::map<MetricKey, Gauge> gauges() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return gauges_;
  }
  [[nodiscard]] std::map<MetricKey, Histogram> histograms() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return histograms_;
  }

  [[nodiscard]] std::size_t size() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Sum of one counter series over every node it is registered for.
  [[nodiscard]] std::uint64_t total(std::string_view subsystem, std::string_view name) const
      NETSEER_EXCLUDES(mu_);

  void clear() NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

 private:
  static MetricKey key(std::string_view subsystem, std::string_view name, util::NodeId node) {
    return MetricKey{std::string(subsystem), std::string(name), node};
  }

  mutable util::Mutex mu_;
  std::map<MetricKey, Counter> counters_ NETSEER_GUARDED_BY(mu_);
  std::map<MetricKey, Gauge> gauges_ NETSEER_GUARDED_BY(mu_);
  std::map<MetricKey, Histogram> histograms_ NETSEER_GUARDED_BY(mu_);
};

}  // namespace netseer::telemetry
