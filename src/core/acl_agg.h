#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/event.h"

namespace netseer::core {

/// ACL drops are aggregated per *rule*, not per flow (§3.4): most ACL
/// drops are intentional, and one misconfigured rule can kill thousands
/// of flows — per-flow events would flood the channel while the rule id
/// already identifies the victims (its match fields describe the flows).
class AclDropAggregator {
 public:
  explicit AclDropAggregator(std::uint32_t report_interval = 64)
      : report_interval_(report_interval) {}

  /// Account one ACL-dropped packet. Emits an event on the first hit of
  /// a rule and every report_interval hits after that. The sample flow
  /// rides along so operators can see one concrete victim. `emit` takes
  /// one `const FlowEvent&`, as GroupCache's does.
  template <typename Emit>
  void offer(std::uint16_t rule_id, const FlowEvent& sample, const Emit& emit) {
    auto& state = rules_[rule_id];
    ++state.count;
    ++offered_;
    if (state.count != 1 && state.count < state.next_report) return;
    FlowEvent event = sample;
    event.type = EventType::kAclDrop;
    event.acl_rule_id = rule_id;
    const std::uint64_t delta = state.count - state.reported;
    event.counter = delta > 0xffff ? 0xffff : static_cast<std::uint16_t>(delta);
    state.reported = state.count;
    state.next_report = state.count + report_interval_;
    ++reports_;
    emit(event);
  }

  [[nodiscard]] std::uint64_t rule_hits(std::uint16_t rule_id) const {
    const auto it = rules_.find(rule_id);
    return it == rules_.end() ? 0 : it->second.count;
  }
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t reports() const { return reports_; }

 private:
  struct RuleState {
    std::uint64_t count = 0;
    std::uint64_t reported = 0;
    std::uint64_t next_report = 1;
  };
  std::uint32_t report_interval_;
  std::unordered_map<std::uint16_t, RuleState> rules_;
  std::uint64_t offered_ = 0;
  std::uint64_t reports_ = 0;
};

}  // namespace netseer::core
