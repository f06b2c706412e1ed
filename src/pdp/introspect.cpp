#include "pdp/introspect.h"

#include "pdp/switch.h"

namespace netseer::pdp {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kWire: return "wire";
    case Stage::kMacRx: return "mac-rx";
    case Stage::kParser: return "parser";
    case Stage::kRoute: return "route";
    case Stage::kAcl: return "acl";
    case Stage::kTtl: return "ttl";
    case Stage::kMtu: return "mtu";
    case Stage::kQueueSelect: return "queue-select";
    case Stage::kMmuAdmit: return "mmu-admit";
    case Stage::kEgress: return "egress";
  }
  return "?";
}

const char* to_string(MetaField field) {
  switch (field) {
    case MetaField::kEgressPort: return "egress_port";
    case MetaField::kQueue: return "queue";
    case MetaField::kAclRuleId: return "acl_rule_id";
  }
  return "?";
}

PipelineView make_pipeline_view(const Switch& sw) {
  PipelineView view;
  view.name = sw.name();
  view.id = sw.id();
  view.num_ports = sw.config().num_ports;
  view.mtu = sw.config().mtu;
  view.ecmp_seed = sw.config().ecmp_seed;
  view.queue_capacity_bytes = sw.config().mmu.queue_capacity_bytes;
  view.ports.reserve(view.num_ports);
  for (util::PortId p = 0; p < view.num_ports; ++p) {
    view.ports.push_back(PortView{.wired = sw.link(p) != nullptr});
  }
  view.routes = &sw.routes();
  view.acl = &sw.acl();
  return view;
}

}  // namespace netseer::pdp
