#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdp/acl.h"
#include "pdp/table.h"
#include "pdp/types.h"
#include "util/ids.h"

namespace netseer::pdp {

class Switch;

/// Pipeline stages in the order Switch::receive / run_pipeline / enqueue
/// traverse them. This is the structural skeleton the symbolic executor
/// walks; keep it in sync with the forwarding code (the differential
/// property test in tests/verify enforces agreement).
enum class Stage : std::uint8_t {
  kWire = 0,     // the attached cable (silent loss / corruption happen here)
  kMacRx,        // FCS check, PFC consumption
  kParser,       // header validation, metadata initialization
  kRoute,        // LPM lookup + ECMP member selection
  kAcl,          // ternary ACL, first match wins
  kTtl,          // TTL check / decrement
  kMtu,          // egress MTU check
  kPortHealth,   // egress port / link administrative state
  kQueueSelect,  // DSCP -> priority queue
  kMmuAdmit,     // tail-drop admission
  kEgress,       // scheduler / serialization
};

[[nodiscard]] const char* to_string(Stage stage);

/// PipelineContext fields whose def/use discipline the symbolic executor
/// tracks — the software analog of P4 PHV metadata validity. Fields are
/// "defined" once a stage writes a meaningful value; a consumer that
/// requires a meaningful value before any write is an uninitialized read.
enum class MetaField : std::uint8_t {
  kEgressPort = 0,  // written by the route stage on an LPM hit
  kQueue,           // written by queue selection after the health check
  kAclRuleId,       // written only on the ACL deny branch
};

inline constexpr std::size_t kNumMetaFields = 3;

[[nodiscard]] const char* to_string(MetaField field);

/// Administrative state of one egress port as the health check sees it.
struct PortView {
  bool up = false;       // Switch::port_up
  bool wired = false;    // a Link is attached
  bool link_up = false;  // the attached Link's admin state (false if unwired)
};

/// Read-only structural snapshot of one constructed switch: everything
/// the symbolic executor needs to enumerate paths, exposed through the
/// Switch's public surface (no friend access). Table pointers reference
/// the live deployed state, so the view is valid only while the switch
/// outlives it and the control plane is quiescent.
struct PipelineView {
  std::string name;
  util::NodeId id = util::kInvalidNode;
  std::uint16_t num_ports = 0;
  std::uint32_t mtu = 0;
  std::uint64_t ecmp_seed = 0;
  std::int64_t queue_capacity_bytes = 0;
  HardwareFault fault = HardwareFault::kNone;
  std::vector<PortView> ports;
  const LpmTable* routes = nullptr;
  const AclTable* acl = nullptr;

  [[nodiscard]] bool port_healthy(util::PortId port) const {
    // Mirrors run_pipeline's check: a down port or a downed link fails;
    // an up port with no cable passes (and blackholes — the coverage
    // pass flags reachable paths into it).
    const PortView& p = ports[port];
    return p.up && (!p.wired || p.link_up);
  }
  [[nodiscard]] bool any_port_wired() const {
    for (const PortView& p : ports) {
      if (p.wired) return true;
    }
    return false;
  }
};

[[nodiscard]] PipelineView make_pipeline_view(const Switch& sw);

}  // namespace netseer::pdp
