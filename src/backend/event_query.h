#pragma once

#include <optional>

#include "core/event.h"
#include "packet/flow_key.h"

namespace netseer::backend {

/// An event as persisted by the backend: what the switch reported plus
/// when the backend stored it.
struct StoredEvent {
  core::FlowEvent event;
  util::SimTime stored_at = 0;
};

/// Query by any combination of flow, event type, device, and period —
/// the operator interface in Fig. 2 ("Flow-1 E? -> E1 & E4",
/// "Device-1? -> E1~E4 & flows").
///
/// Doubles as a fluent builder so call sites compose filters inline:
///   store.scan(EventQuery{}.for_switch(3).between(t0, t1))
/// Aggregate form (designated initializers) keeps working unchanged.
struct EventQuery {
  std::optional<packet::FlowKey> flow;
  std::optional<core::EventType> type;
  std::optional<util::NodeId> switch_id;
  std::optional<util::SimTime> from;  // inclusive, on detected_at
  std::optional<util::SimTime> to;    // exclusive

  EventQuery& for_flow(const packet::FlowKey& key) {
    flow = key;
    return *this;
  }
  EventQuery& of_type(core::EventType event_type) {
    type = event_type;
    return *this;
  }
  EventQuery& for_switch(util::NodeId node) {
    switch_id = node;
    return *this;
  }
  EventQuery& since(util::SimTime inclusive_from) {
    from = inclusive_from;
    return *this;
  }
  EventQuery& until(util::SimTime exclusive_to) {
    to = exclusive_to;
    return *this;
  }
  EventQuery& between(util::SimTime inclusive_from, util::SimTime exclusive_to) {
    from = inclusive_from;
    to = exclusive_to;
    return *this;
  }

  [[nodiscard]] bool matches(const StoredEvent& stored) const {
    const auto& ev = stored.event;
    if (flow && ev.flow != *flow) return false;
    if (type && ev.type != *type) return false;
    if (switch_id && ev.switch_id != *switch_id) return false;
    if (from && ev.detected_at < *from) return false;
    if (to && ev.detected_at >= *to) return false;
    return true;
  }
};

}  // namespace netseer::backend
