#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.h"
#include "util/time.h"

namespace netseer::detect {

/// Which anomaly-detection family evaluates a rule's windows.
enum class Family : std::uint8_t { kThreshold, kEwma, kCusum };

/// The per-window feature a rule computes from the rows it consumes.
enum class Feature : std::uint8_t {
  kPackets,        // sum of event counters (affected packets)
  kEvents,         // row count
  kLatencyMeanUs,  // mean queue latency of the window's samples
};

/// How a rule groups events into window keys.
enum class Scope : std::uint8_t {
  kDeviceFlow,  // (switch, flow) — per-victim-flow rates
  kDevice,      // (switch) — device-wide rates
  kDeviceRule,  // (switch, acl rule id) — ACL drops aggregate by rule (§3.4)
};

[[nodiscard]] const char* to_string(Family family);
[[nodiscard]] const char* to_string(Feature feature);
[[nodiscard]] const char* to_string(Scope scope);

/// One detection rule: which events it consumes, how they are grouped
/// and featurized, which family judges them, and the alert-lifecycle
/// policy for the alerts it raises. Family knobs are a union-by-
/// convention — each family reads only its own.
struct Rule {
  std::string name;
  core::EventType type = core::EventType::kDrop;
  Family family = Family::kThreshold;
  Feature feature = Feature::kPackets;
  Scope scope = Scope::kDeviceFlow;

  // threshold family
  double threshold = 0.0;
  double clear_ratio = 0.5;  // clear level = threshold * clear_ratio

  // ewma family
  double alpha = 0.25;
  double k_sigma = 3.0;
  double min_sigma = 1.0;
  std::uint32_t warmup = 8;

  // cusum family (warmup shared with ewma)
  double cusum_slack = 1.0;
  double cusum_h = 8.0;

  // alert lifecycle policy
  std::uint32_t raise_after = 1;    // consecutive firing windows before raising
  std::uint32_t clear_after = 3;    // consecutive quiet windows before resolving
  std::uint32_t escalate_after = 4; // firing windows in one episode -> critical
  std::uint32_t damp_windows = 4;   // re-fire within this of resolution = flap, reopened
};

/// A complete detection configuration: the window model plus the rules,
/// plus the coverage waivers the verify cross-check consults. Loadable
/// from the `netseer_detect --rules` file format (see parse_rules).
struct RuleSet {
  /// Tumbling-window width over event detection time (detected_at).
  util::SimDuration window = util::milliseconds(1);
  /// Watermark slack for cross-device detection-time disorder: a window
  /// closes when max(detected_at seen) passes its end by this much.
  util::SimDuration lateness = util::microseconds(100);
  /// Keys with this many consecutive empty windows are garbage-collected
  /// (their detector instance returns to the free list).
  std::uint32_t idle_gc_windows = 16;

  std::vector<Rule> rules;

  /// Drop-class waivers for the symbolic coverage cross-check: classes
  /// (prefix match) that deliberately map to no detector rule, with the
  /// reason recorded next to the waiver.
  struct Waiver {
    std::string class_prefix;
    std::string reason;
  };
  std::vector<Waiver> waivers;

  /// The shipped configuration: drop-burst / acl-deny / congestion-shift
  /// / queue-latency / pause-storm plus the structural waivers.
  [[nodiscard]] static RuleSet defaults();

  /// The rule that consumes events of `type`, nullptr if none.
  [[nodiscard]] const Rule* rule_for(core::EventType type) const;

  /// Coverage cross-check over `netseer_verify --coverage-out` classes
  /// ("drop.route-miss", "path.blackhole", "lpm.<prefix>", ...): the
  /// rule whose event stream observes that class, or nullptr.
  [[nodiscard]] const Rule* covering(std::string_view drop_class) const;
  /// The waiver reason for `drop_class`, nullptr when not waived.
  [[nodiscard]] const char* waiver(std::string_view drop_class) const;
};

/// Parse the rules file format. Line-oriented; '#' starts a comment.
///
///   window_us 1000
///   lateness_us 100
///   idle_gc_windows 16
///   rule drop-burst type=drop family=threshold feature=packets
///        scope=device-flow threshold=20 clear_after=3
///   (one line per rule; shown wrapped here)
///   waive path.blackhole silent loss crosses no emission point
///
/// Every `key=value` pair maps to the Rule field of the same name. A
/// number must be the whole value and fit its field ("20x", "abc" and a
/// negative count are malformed). Returns nullopt and fills `error`
/// (with a line number) on the first malformed line.
[[nodiscard]] std::optional<RuleSet> parse_rules(const std::string& text,
                                                 std::string* error = nullptr);

/// parse_rules over a file's contents; nullopt on read failure too.
[[nodiscard]] std::optional<RuleSet> load_rules(const std::string& path,
                                                std::string* error = nullptr);

}  // namespace netseer::detect
