#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/flow_key.h"
#include "pdp/types.h"
#include "util/ids.h"
#include "util/time.h"

namespace netseer::core {

/// Flow event families (§3.1). ACL drops are aggregated at rule
/// granularity rather than flow granularity (§3.4), so they get their own
/// type with the rule id in the detail bytes.
enum class EventType : std::uint8_t {
  kDrop = 1,
  kCongestion = 2,
  kPathChange = 3,
  kPause = 4,
  kAclDrop = 5,
};

[[nodiscard]] const char* to_string(EventType type);

/// One flow event, the unit NetSeer reports. The wire encoding
/// (FlowEvent::serialize) is exactly kWireSize = 24 bytes:
///
///   type(1) | flow 5-tuple(13) | counter(2) | flow-hash(4) | detail(4)
///
/// detail by type:
///   drop:        ingress port(1) egress port(1) drop code(1) pad(1)
///   congestion:  egress port(1) queue(1) queue latency µs, saturating(2)
///   path change: ingress port(1) egress port(1) pad(2)
///   pause:       egress port(1) queue(1) pad(2)
///   acl drop:    rule id(2) pad(2)
///
/// The paper's formats (§4) total <= 24 B; we pack congestion latency
/// into 16 bits of microseconds to include a type tag in the same budget
/// (documented in DESIGN.md).
struct FlowEvent {
  EventType type = EventType::kDrop;
  packet::FlowKey flow{};
  std::uint16_t counter = 1;
  std::uint32_t flow_hash = 0;  // CRC32 pre-computed in the pipeline (§3.6)

  std::uint8_t ingress_port = 0;
  std::uint8_t egress_port = 0;
  std::uint8_t queue = 0;
  std::uint16_t queue_latency_us = 0;
  std::uint8_t drop_code = 0;     // pdp::DropReason
  std::uint16_t acl_rule_id = 0;

  // Simulation-side metadata; not part of the wire encoding.
  util::NodeId switch_id = util::kInvalidNode;
  util::SimTime detected_at = 0;

  static constexpr std::size_t kWireSize = 24;

  [[nodiscard]] std::array<std::byte, kWireSize> serialize() const noexcept;
  [[nodiscard]] static std::optional<FlowEvent> parse(
      std::span<const std::byte, kWireSize> raw) noexcept;

  /// Type-specific detail packed into one word: part of the event's
  /// identity (a path change to a *different* port is a different event),
  /// which never includes the counter or the latency sample.
  [[nodiscard]] std::uint32_t detail_word() const noexcept;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FlowEvent&, const FlowEvent&) = default;
};

/// Helper used everywhere events are fabricated: fills the common fields
/// and stamps the pre-computed hash.
[[nodiscard]] FlowEvent make_event(EventType type, const packet::FlowKey& flow,
                                   util::NodeId switch_id, util::SimTime now);

/// Saturating conversion of a queuing delay to the 16-bit µs field.
[[nodiscard]] std::uint16_t to_latency_us(util::SimDuration delay) noexcept;

/// A batch of events as shipped from the pipeline to the switch CPU and
/// then to the backend. Wire size: 10-byte header + 24 B per event.
struct EventBatch {
  util::NodeId switch_id = util::kInvalidNode;
  std::uint32_t seq = 0;            // batch sequence, per switch
  util::SimTime emitted_at = 0;     // stamped when the batch leaves the pipeline
  std::vector<FlowEvent> events;

  static constexpr std::size_t kHeaderSize = 10;
  [[nodiscard]] std::size_t wire_size() const {
    return kHeaderSize + events.size() * FlowEvent::kWireSize;
  }
};

}  // namespace netseer::core
