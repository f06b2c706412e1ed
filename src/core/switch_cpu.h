#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/event.h"
#include "util/hash.h"
#include "util/time.h"

namespace netseer::core {

struct FpEliminatorConfig {
  /// Two reports of the same flow event within this window are treated
  /// as duplicates (hash-collision ping-pong in the group cache).
  util::SimDuration window = util::milliseconds(50);
  /// Use the hash the pipeline pre-computed (§3.6). Turning this off
  /// recomputes the hash on the CPU — the 2.5x capacity ablation.
  bool use_precomputed_hash = true;
  /// Entries are pruned once the map exceeds this (stale-first).
  std::size_t max_entries = 1 << 20;
};

/// Switch-CPU false-positive elimination (§3.6): a hash map keyed by the
/// flow-event identity removes duplicate *initial* reports caused by
/// group-cache evictions, while counter reports (counter > 1) pass
/// through. This is real, benchmarked code — Fig. 14(b) measures its
/// throughput against map population.
class FpEliminator {
 public:
  explicit FpEliminator(const FpEliminatorConfig& config) : config_(config) {
    map_.max_load_factor(0.7f);
  }

  /// Returns true when the event should be forwarded to the backend.
  bool admit(const FlowEvent& event, util::SimTime now) {
    ++processed_;
    const std::uint64_t key = map_key(event);
    auto [it, inserted] = map_.try_emplace(key, now);
    if (inserted) {
      maybe_prune(now);
      return true;
    }
    util::SimTime& last_seen = it->second;
    const bool stale = last_seen + config_.window < now;
    const bool counter_report = event.counter > 1;
    last_seen = now;
    if (stale || counter_report) return true;
    ++eliminated_;
    return false;
  }

  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::uint64_t eliminated() const { return eliminated_; }
  [[nodiscard]] std::size_t map_size() const { return map_.size(); }
  [[nodiscard]] const FpEliminatorConfig& config() const { return config_; }

  void clear() { map_.clear(); }

 private:
  /// Identity hasher: keys are already well-mixed hashes.
  struct IdentityHash {
    std::size_t operator()(std::uint64_t key) const noexcept { return key; }
  };

  [[nodiscard]] std::uint64_t map_key(const FlowEvent& event) const {
    std::uint32_t flow_hash = event.flow_hash;
    if (!config_.use_precomputed_hash) {
      // Ablation: recompute the flow hash on the CPU per event instead
      // of reading the value the pipeline attached (§3.6).
      const auto packed = event.flow.packed();
      flow_hash = util::crc32(packed);
    }
    // Event identity = flow + type + detail (ports/code/queue/rule).
    const std::uint64_t typed =
        (std::uint64_t{flow_hash} << 32) |
        (static_cast<std::uint64_t>(event.type) << 24) | event.detail_word();
    return util::mix64(typed);
  }

  void maybe_prune(util::SimTime now) {
    if (map_.size() <= config_.max_entries) return;
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second + config_.window < now) {
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }

  FpEliminatorConfig config_;
  /// Event identity -> when it was last seen.
  std::unordered_map<std::uint64_t, util::SimTime, IdentityHash> map_;
  std::uint64_t processed_ = 0;
  std::uint64_t eliminated_ = 0;
};

struct SwitchCpuConfig {
  FpEliminatorConfig fp{};
  /// Modeled per-event CPU service time; caps the Meps the CPU keeps up
  /// with inside the simulation (measured for real in bench_fig14_pcie_cpu).
  util::SimDuration per_event_cost = util::nanoseconds(25);
  /// Events per report segment to the backend.
  int report_batch = 50;
};

}  // namespace netseer::core
