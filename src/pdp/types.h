#pragma once

#include <cstdint>

#include "util/ids.h"

namespace netseer::pdp {

/// Why the data plane discarded a packet. Encoded into the 1-byte drop
/// code of NetSeer drop events (§4 event formats), so it must stay small,
/// and a reason's number never changes (2 is unassigned). The grouping
/// mirrors Figure 4 of the paper.
enum class DropReason : std::uint8_t {
  kNone = 0,

  // Pipeline drops (Figure 4 "Pipeline drop").
  kRouteMiss = 1,     // table lookup miss: blackhole or parity error
  kAclDeny = 3,       // blocked by an ACL rule
  kTtlExpired = 4,    // forwarding loop protection
  kMtuExceeded = 5,   // frame larger than egress MTU
  kParserError = 6,   // pathological packet format

  // MMU drops.
  kCongestion = 7,    // queue full, tail drop

  // Link-level losses (observable only via inter-switch detection).
  kLinkLoss = 8,      // silent drop on the wire
  kCorruption = 9,    // FCS failure at the downstream MAC
};

[[nodiscard]] const char* to_string(DropReason reason);

/// Per-packet pipeline metadata — the software analog of the PHV fields a
/// P4 program would carry between stages. Created at ingress, consumed at
/// egress; never serialized.
struct PipelineContext {
  util::PortId ingress_port = util::kInvalidPort;
  util::PortId egress_port = util::kInvalidPort;
  util::QueueId queue = 0;
  DropReason drop = DropReason::kNone;
  std::uint16_t acl_rule_id = 0;  // valid when drop == kAclDeny
};

}  // namespace netseer::pdp
