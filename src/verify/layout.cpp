#include "verify/layout.h"

namespace netseer::verify {

const char* to_string(Gress gress) {
  switch (gress) {
    case Gress::kIngress: return "ingress";
    case Gress::kEgress: return "egress";
  }
  return "?";
}

const char* to_string(AccessMode mode) {
  switch (mode) {
    case AccessMode::kRead: return "read";
    case AccessMode::kWrite: return "write";
    case AccessMode::kReadModifyWrite: return "rmw";
  }
  return "?";
}

PipelineLayout netseer_layout(const core::NetSeerConfig& config) {
  PipelineLayout layout;

  // Ingress: detection state, in pipeline order after the forwarding
  // tables (LPM/ACL occupy stages 0-2 but hold no register arrays).
  layout.add("detect.path_table", "path-change detect", 3, Gress::kIngress,
             AccessMode::kReadModifyWrite);
  layout.add("detect.pause_state", "pause detect", 4, Gress::kIngress,
             AccessMode::kReadModifyWrite);

  // Group caches: one array per cached event type, two stages (drop and
  // congestion, then pause) so each stage stays within its stateful-ALU
  // budget.
  layout.add("dedup.cache.drop", "group-cache drop", 5, Gress::kIngress,
             AccessMode::kReadModifyWrite);
  layout.add("dedup.cache.congestion", "group-cache congestion", 5, Gress::kIngress,
             AccessMode::kReadModifyWrite);
  layout.add("dedup.cache.pause", "group-cache pause", 6, Gress::kIngress,
             AccessMode::kReadModifyWrite);

  // The event stack: pushes (event extraction) and pops (CEBP hitting the
  // stack) are the same stateful ALU op selected by packet type, so a
  // single RMW actor owns the array.
  layout.add("batch.stack", "event-stack push/pop", 7, Gress::kIngress,
             AccessMode::kReadModifyWrite);

  // Egress: inter-switch drop detection state, per port.
  layout.add("iswitch.seq", "seq-stamp", 9, Gress::kEgress, AccessMode::kReadModifyWrite);
  if (config.interswitch.ring_slots > 0) {
    layout.add("iswitch.ring", "ring record+lookup", 10, Gress::kEgress,
               AccessMode::kReadModifyWrite);
  }

  // Congestion detection reads the queue depth the traffic manager
  // exports; the MAU never writes it.
  layout.add("detect.queue_depth", "congestion compare", 8, Gress::kEgress, AccessMode::kRead);

  return layout;
}

}  // namespace netseer::verify
