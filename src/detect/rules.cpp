#include "detect/rules.h"

#include <cstdio>
#include <limits>
#include <sstream>

#include "detect/detectors.h"
#include "util/parse.h"

namespace netseer::detect {

const char* to_string(Family family) {
  switch (family) {
    case Family::kThreshold: return "threshold";
    case Family::kEwma: return "ewma";
    case Family::kCusum: return "cusum";
  }
  return "?";
}

const char* to_string(Feature feature) {
  switch (feature) {
    case Feature::kPackets: return "packets";
    case Feature::kEvents: return "events";
    case Feature::kLatencyMeanUs: return "latency-mean-us";
  }
  return "?";
}

const char* to_string(Scope scope) {
  switch (scope) {
    case Scope::kDeviceFlow: return "device-flow";
    case Scope::kDevice: return "device";
    case Scope::kDeviceRule: return "device-rule";
  }
  return "?";
}

std::unique_ptr<Detector> make_detector(const Rule& rule) {
  switch (rule.family) {
    case Family::kThreshold:
      return std::make_unique<ThresholdDetector>(rule.threshold,
                                                 rule.threshold * rule.clear_ratio);
    case Family::kEwma:
      // Sample-statistic features must not learn from empty windows;
      // rate features treat them as genuine zeroes.
      return std::make_unique<EwmaDetector>(rule.alpha, rule.k_sigma, rule.warmup,
                                            rule.min_sigma,
                                            rule.feature == Feature::kLatencyMeanUs);
    case Family::kCusum:
      return std::make_unique<CusumDetector>(rule.cusum_slack, rule.cusum_h, rule.warmup);
  }
  return nullptr;
}

RuleSet RuleSet::defaults() {
  RuleSet set;

  // Per-(device, flow) dropped-packet bursts: the workhorse rule behind
  // the routing-error, parity-error, and congestion-drop incidents.
  Rule drop_burst;
  drop_burst.name = "drop-burst";
  drop_burst.type = core::EventType::kDrop;
  drop_burst.family = Family::kThreshold;
  drop_burst.feature = Feature::kPackets;
  drop_burst.scope = Scope::kDeviceFlow;
  drop_burst.threshold = 20;
  set.rules.push_back(drop_burst);

  // ACL drops aggregate at rule granularity in the data plane (§3.4),
  // so the alert fingerprint is (device, rule id), not (device, flow).
  Rule acl_deny;
  acl_deny.name = "acl-deny";
  acl_deny.type = core::EventType::kAclDrop;
  acl_deny.family = Family::kThreshold;
  acl_deny.feature = Feature::kPackets;
  acl_deny.scope = Scope::kDeviceRule;
  acl_deny.threshold = 8;
  set.rules.push_back(acl_deny);

  // Device-wide congestion-event rate change-point: unexpected-volume
  // incidents are a sustained mean shift, exactly CUSUM's shape.
  Rule congestion_shift;
  congestion_shift.name = "congestion-shift";
  congestion_shift.type = core::EventType::kCongestion;
  congestion_shift.family = Family::kCusum;
  congestion_shift.feature = Feature::kEvents;
  congestion_shift.scope = Scope::kDevice;
  congestion_shift.warmup = 1;
  congestion_shift.cusum_slack = 4;
  congestion_shift.cusum_h = 32;
  set.rules.push_back(congestion_shift);

  // Queue-latency EWMA residual: learns each device's normal latency
  // and flags sustained departures once warmed up.
  Rule queue_latency;
  queue_latency.name = "queue-latency";
  queue_latency.type = core::EventType::kCongestion;
  queue_latency.family = Family::kEwma;
  queue_latency.feature = Feature::kLatencyMeanUs;
  queue_latency.scope = Scope::kDevice;
  set.rules.push_back(queue_latency);

  Rule pause_storm;
  pause_storm.name = "pause-storm";
  pause_storm.type = core::EventType::kPause;
  pause_storm.family = Family::kThreshold;
  pause_storm.feature = Feature::kEvents;
  pause_storm.scope = Scope::kDevice;
  pause_storm.threshold = 16;
  set.rules.push_back(pause_storm);

  // Structural waivers, consumed by the symbolic-coverage cross-check:
  // classes that by construction emit no flow events, so no event-stream
  // detector can observe them. Each must stay explicit — an unwaived,
  // uncovered class fails the cross-check test.
  set.waivers.push_back({"path.blackhole",
                         "admitted to an unwired port: no emission point is crossed, so no "
                         "flow event exists to detect; covered by SLA probing, not telemetry"});
  set.waivers.push_back({"lpm.",
                         "a dead (fully shadowed) route can never match a packet, so it can "
                         "never generate events; surfaced by verify, not runtime detection"});
  set.waivers.push_back({"acl.rule.",
                         "a dead (shadowed) ACL rule never matches; same rationale as lpm."});
  return set;
}

const Rule* RuleSet::rule_for(core::EventType type) const {
  for (const auto& rule : rules) {
    if (rule.type == type) return &rule;
  }
  return nullptr;
}

const Rule* RuleSet::covering(std::string_view drop_class) const {
  // "drop.<reason>" classes map to the event stream that reason lands
  // in: ACL denies are exported as kAclDrop, every other pipeline/MMU/
  // wire drop as kDrop (link-loss and corruption arrive via inter-switch
  // recovery, still as drop events).
  constexpr std::string_view kDropPrefix = "drop.";
  if (drop_class.substr(0, kDropPrefix.size()) != kDropPrefix) return nullptr;
  const std::string_view reason = drop_class.substr(kDropPrefix.size());
  return rule_for(reason == "acl-deny" ? core::EventType::kAclDrop : core::EventType::kDrop);
}

const char* RuleSet::waiver(std::string_view drop_class) const {
  for (const auto& waiver : waivers) {
    if (drop_class.substr(0, waiver.class_prefix.size()) == waiver.class_prefix) {
      return waiver.reason.c_str();
    }
  }
  return nullptr;
}

namespace {

bool parse_event_type(std::string_view text, core::EventType* out) {
  if (text == "drop") *out = core::EventType::kDrop;
  else if (text == "congestion") *out = core::EventType::kCongestion;
  else if (text == "path-change") *out = core::EventType::kPathChange;
  else if (text == "pause") *out = core::EventType::kPause;
  else if (text == "acl-drop") *out = core::EventType::kAclDrop;
  else return false;
  return true;
}

bool parse_family(std::string_view text, Family* out) {
  if (text == "threshold") *out = Family::kThreshold;
  else if (text == "ewma") *out = Family::kEwma;
  else if (text == "cusum") *out = Family::kCusum;
  else return false;
  return true;
}

bool parse_feature(std::string_view text, Feature* out) {
  if (text == "packets") *out = Feature::kPackets;
  else if (text == "events") *out = Feature::kEvents;
  else if (text == "latency-mean-us") *out = Feature::kLatencyMeanUs;
  else return false;
  return true;
}

bool parse_scope(std::string_view text, Scope* out) {
  if (text == "device-flow") *out = Scope::kDeviceFlow;
  else if (text == "device") *out = Scope::kDevice;
  else if (text == "device-rule") *out = Scope::kDeviceRule;
  else return false;
  return true;
}

/// One `key=value` pair onto the matching Rule field; false when the key
/// is unknown or the value does not parse as that field's type.
bool apply_rule_kv(Rule& rule, std::string_view key, std::string_view value) {
  if (key == "type") return parse_event_type(value, &rule.type);
  if (key == "family") return parse_family(value, &rule.family);
  if (key == "feature") return parse_feature(value, &rule.feature);
  if (key == "scope") return parse_scope(value, &rule.scope);
  if (key == "threshold") return util::parse_number(value, rule.threshold);
  if (key == "clear_ratio") return util::parse_number(value, rule.clear_ratio);
  if (key == "alpha") return util::parse_number(value, rule.alpha);
  if (key == "k_sigma") return util::parse_number(value, rule.k_sigma);
  if (key == "min_sigma") return util::parse_number(value, rule.min_sigma);
  if (key == "warmup") return util::parse_number(value, rule.warmup);
  if (key == "cusum_slack") return util::parse_number(value, rule.cusum_slack);
  if (key == "cusum_h") return util::parse_number(value, rule.cusum_h);
  if (key == "raise_after") return util::parse_number(value, rule.raise_after);
  if (key == "clear_after") return util::parse_number(value, rule.clear_after);
  if (key == "escalate_after") return util::parse_number(value, rule.escalate_after);
  if (key == "damp_windows") return util::parse_number(value, rule.damp_windows);
  return false;
}

}  // namespace

std::optional<RuleSet> parse_rules(const std::string& text, std::string* error) {
  RuleSet set;
  set.rules.clear();
  set.waivers.clear();
  const auto fail = [&](int line, const std::string& what) {
    if (error) *error = "line " + std::to_string(line) + ": " + what;
    return std::nullopt;
  };

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string word;
    if (!(line >> word)) continue;

    if (word == "window_us" || word == "lateness_us" || word == "idle_gc_windows") {
      std::string number;
      line >> number;
      const auto bad_number = [&] { return fail(line_no, "expected a number after " + word); };
      if (word == "idle_gc_windows") {
        if (!util::parse_number(number, set.idle_gc_windows)) return bad_number();
      } else {
        // Whole microseconds, as many as a SimDuration holds.
        constexpr std::int64_t kMaxUs =
            std::numeric_limits<util::SimDuration>::max() / util::kMicrosecond;
        std::int64_t us = 0;
        if (!util::parse_number(number, us) || us < 0 || us > kMaxUs) return bad_number();
        (word == "window_us" ? set.window : set.lateness) = util::microseconds(us);
      }
    } else if (word == "rule") {
      Rule rule;
      if (!(line >> rule.name)) return fail(line_no, "rule needs a name");
      std::string kv;
      while (line >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) return fail(line_no, "expected key=value, got '" + kv + "'");
        const std::string_view pair = kv;
        if (!apply_rule_kv(rule, pair.substr(0, eq), pair.substr(eq + 1))) {
          return fail(line_no, "bad rule setting '" + kv + "'");
        }
      }
      set.rules.push_back(std::move(rule));
    } else if (word == "waive") {
      RuleSet::Waiver waiver;
      if (!(line >> waiver.class_prefix)) return fail(line_no, "waive needs a class prefix");
      std::getline(line, waiver.reason);
      const auto start = waiver.reason.find_first_not_of(' ');
      waiver.reason = start == std::string::npos ? "" : waiver.reason.substr(start);
      set.waivers.push_back(std::move(waiver));
    } else {
      return fail(line_no, "unknown directive '" + word + "'");
    }
  }
  if (set.window <= 0) return fail(line_no, "window_us must be positive");
  if (set.rules.empty()) return fail(line_no, "no rules defined");
  return set;
}

std::optional<RuleSet> load_rules(const std::string& path, std::string* error) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_rules(text, error);
}

}  // namespace netseer::detect
