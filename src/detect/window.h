#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/event_query.h"
#include "detect/detector.h"
#include "detect/rules.h"
#include "util/ids.h"
#include "util/time.h"
#include "util/annotations.h"

namespace netseer::detect {

/// The grouping key one rule aggregates under: always the emitting
/// switch, plus a scope-dependent discriminator (flow hash, ACL rule
/// id, or nothing for device-wide rules).
struct WindowKey {
  util::NodeId switch_id = util::kInvalidNode;
  std::uint64_t group = 0;

  friend bool operator==(const WindowKey&, const WindowKey&) = default;
};

struct WindowKeyHash {
  std::size_t operator()(const WindowKey& key) const noexcept {
    // splitmix-style fold; keys are few, this only needs to spread.
    std::uint64_t x = key.group + 0x9e3779b97f4a7c15ull * (key.switch_id + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<std::size_t>(x);
  }
};

/// One closed window as handed to the alert pipeline.
struct WindowResult {
  const Rule* rule = nullptr;
  WindowKey key;
  core::FlowEvent sample;  // last row seen for this key (fingerprint context)
  util::SimTime window_start = 0;
  bool empty = false;  // no rows landed in this window for this key
  DetectorResult result;
};

struct WindowEngineStats {
  std::uint64_t rows = 0;           // rows accepted into a window
  std::uint64_t late_rows = 0;      // rows behind an already-closed window (dropped)
  std::uint64_t windows_closed = 0; // non-empty windows evaluated
  std::uint64_t windows_empty = 0;  // empty windows evaluated (quiescence signal)
  std::uint64_t keys_created = 0;
  std::uint64_t keys_recycled = 0;  // idle-GC'd; detector returned to free list
  std::uint64_t keys_active = 0;
};

/// Tumbling-window aggregation for one rule. Rows are keyed by
/// (switch, scope discriminator) and bucketed by detection time into
/// windows of RuleSet::window width. Because every key pins one switch
/// and each switch emits events in time order, a row for a later bucket
/// proves the key's open window is complete, so windows close eagerly on
/// rollover; `advance()` closes the rest once the stream-wide watermark
/// (max detected_at minus lateness) passes them, emitting empty windows
/// so detectors and the alert pipeline see quiescence. Keys idle for
/// idle_gc_windows are garbage-collected and their detector instance is
/// recycled through a free list — steady state allocates nothing once
/// the key population stabilizes.
class WindowEngine {
 public:
  using Sink = std::function<void(const WindowResult&)>;

  WindowEngine(const Rule& rule, const RuleSet& set);

  /// Offer one stored row; ignored unless it matches the rule's event
  /// type. May close this key's open window (rollover) via `sink`.
  NETSEER_HOT void offer(const backend::StoredEvent& row, const Sink& sink);

  /// Advance the stream-wide watermark: close every window it has
  /// passed, emit empty windows up to it, GC idle keys.
  void advance(util::SimTime watermark, const Sink& sink);

  [[nodiscard]] const Rule& rule() const { return rule_; }
  [[nodiscard]] const WindowEngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_keys() const { return keys_.size(); }

 private:
  struct KeyState {
    util::SimTime window_start = 0;
    std::uint64_t rows = 0;
    std::uint64_t packets = 0;
    double latency_sum = 0.0;
    std::uint32_t idle_windows = 0;
    core::FlowEvent sample{};
    std::unique_ptr<Detector> detector;
  };

  using KeyIter = std::unordered_map<WindowKey, KeyState, WindowKeyHash>::iterator;

  [[nodiscard]] util::SimTime bucket(util::SimTime at) const;
  [[nodiscard]] double feature_value(const KeyState& state) const;
  void close_window(const WindowKey& key, KeyState& state, bool empty, const Sink& sink);
  /// First row for a key: set up its state, recycling a detector off
  /// the free list when one is available. The allocating branch of
  /// offer(), taken once per key until the population stabilizes.
  NETSEER_HOT_ALLOW_INIT KeyIter materialize_key(const WindowKey& key, util::SimTime start);
  /// Close + empty-fill `state` up to (excluding) `next_start`; returns
  /// false when the key went idle past the GC horizon and should die.
  bool roll_to(const WindowKey& key, KeyState& state, util::SimTime next_start,
               const Sink& sink);

  // Owned copy: WindowResult::rule points at it, and callers routinely
  // construct engines from temporaries. Engines must not be moved while
  // downstream consumers hold alert records referencing the rule.
  Rule rule_;
  util::SimDuration window_;
  util::SimDuration lateness_;
  std::uint32_t idle_gc_windows_;

  std::unordered_map<WindowKey, KeyState, WindowKeyHash> keys_;
  std::vector<std::unique_ptr<Detector>> free_detectors_;
  WindowEngineStats stats_;
};

}  // namespace netseer::detect
