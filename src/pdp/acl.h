#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "packet/addr.h"
#include "packet/flow_key.h"

namespace netseer::pdp {

/// One ternary ACL rule. Unset (nullopt / length-0 prefix) fields are
/// wildcards. First matching rule in priority order wins.
struct AclRule {
  std::uint16_t rule_id = 0;
  packet::Ipv4Prefix src{};   // length 0 = any
  packet::Ipv4Prefix dst{};   // length 0 = any
  std::optional<std::uint8_t> proto;
  std::uint16_t sport_lo = 0, sport_hi = 0xffff;
  std::uint16_t dport_lo = 0, dport_hi = 0xffff;
  bool permit = false;

  [[nodiscard]] bool matches(const packet::FlowKey& flow) const {
    if (!src.contains(flow.src) || !dst.contains(flow.dst)) return false;
    if (proto && *proto != flow.proto) return false;
    if (flow.sport < sport_lo || flow.sport > sport_hi) return false;
    if (flow.dport < dport_lo || flow.dport > dport_hi) return false;
    return true;
  }
};

/// Ordered ACL with a per-rule hit counter (the counters back NetSeer's
/// ACL-granularity drop aggregation, §3.4). Default action is permit.
class AclTable {
 public:
  void add_rule(AclRule rule) {
    rules_.push_back(Match{std::move(rule), 0});
  }

  struct Verdict {
    bool permit = true;
    std::uint16_t rule_id = 0;  // 0 = default rule
  };

  /// Evaluate `flow`; bumps the matched rule's hit counter.
  [[nodiscard]] Verdict evaluate(const packet::FlowKey& flow) {
    for (auto& m : rules_) {
      if (m.rule.matches(flow)) {
        ++m.hits;
        return Verdict{m.rule.permit, m.rule.rule_id};
      }
    }
    return Verdict{};
  }

  [[nodiscard]] std::uint64_t hits(std::uint16_t rule_id) const {
    for (const auto& m : rules_) {
      if (m.rule.rule_id == rule_id) return m.hits;
    }
    return 0;
  }

  [[nodiscard]] const AclRule* find(std::uint16_t rule_id) const {
    for (const auto& m : rules_) {
      if (m.rule.rule_id == rule_id) return &m.rule;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const { return rules_.size(); }

  /// Visit every rule in priority (evaluation) order — the order
  /// evaluate() consults them, so index 0 is the highest priority.
  template <typename Fn>
  void for_each_rule(Fn&& fn) const {
    for (const auto& m : rules_) fn(m.rule);
  }

 private:
  struct Match {
    AclRule rule;
    std::uint64_t hits = 0;
  };
  std::vector<Match> rules_;
};

}  // namespace netseer::pdp
