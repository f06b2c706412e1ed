#pragma once

#include "packet/headers.h"
#include "packet/packet.h"
#include "pdp/types.h"
#include "util/ids.h"
#include "util/time.h"

namespace netseer::pdp {

class Switch;

/// Everything the egress pipeline knows about a departing packet.
struct EgressInfo {
  util::PortId ingress_port = util::kInvalidPort;
  util::PortId egress_port = util::kInvalidPort;
  util::QueueId queue = 0;
  util::SimDuration queue_delay = 0;
};

/// Extension surface of the programmable switch — the software analog of
/// adding NetSeer's P4 blocks to switch.p4 (§4). Agents are invoked in
/// registration order at fixed pipeline attachment points; they may keep
/// per-switch state and may inject packets back through Switch::inject().
///
/// The ground-truth recorder, the baseline monitors, and NetSeer itself
/// all implement this same interface.
class SwitchAgent {
 public:
  virtual ~SwitchAgent() = default;

  /// A frame arrived at a MAC. If `corrupted`, the MAC discards it right
  /// after this call and nothing else ever sees it.
  virtual void on_mac_rx(Switch& sw, const packet::Packet& pkt, util::PortId port,
                         bool corrupted) {
    (void)sw; (void)pkt; (void)port; (void)corrupted;
  }

  /// Start of the ingress pipeline. May mutate the packet (e.g. strip a
  /// sequence shim). Returning false consumes the packet — later agents
  /// and the forwarding pipeline never see it.
  [[nodiscard]] virtual bool on_ingress(Switch& sw, packet::Packet& pkt, PipelineContext& ctx) {
    (void)sw; (void)pkt; (void)ctx;
    return true;
  }

  /// The ingress pipeline dropped the packet (reason in ctx.drop).
  virtual void on_pipeline_drop(Switch& sw, const packet::Packet& pkt,
                                const PipelineContext& ctx) {
    (void)sw; (void)pkt; (void)ctx;
  }

  /// The MMU refused the packet (queue full). ctx.drop == kCongestion.
  virtual void on_mmu_drop(Switch& sw, const packet::Packet& pkt, const PipelineContext& ctx) {
    (void)sw; (void)pkt; (void)ctx;
  }

  /// The packet was admitted to an egress queue. `queue_paused` reports
  /// whether that queue is currently PFC-paused (pause events, §3.3).
  virtual void on_enqueue(Switch& sw, const packet::Packet& pkt, const PipelineContext& ctx,
                          bool queue_paused) {
    (void)sw; (void)pkt; (void)ctx; (void)queue_paused;
  }

  /// Egress pipeline: the packet left its queue and is about to hit the
  /// wire. May mutate (e.g. insert a sequence shim).
  virtual void on_egress(Switch& sw, packet::Packet& pkt, const EgressInfo& info) {
    (void)sw; (void)pkt; (void)info;
  }

  /// A PFC frame arrived on `port` (and was applied to that port's
  /// transmitter before this call).
  virtual void on_pfc_rx(Switch& sw, const packet::PfcFrame& pfc, util::PortId port) {
    (void)sw; (void)pfc; (void)port;
  }

  /// This switch generated a PFC pause/resume toward `port`.
  virtual void on_pfc_tx(Switch& sw, util::PortId port, util::QueueId cls, bool pause) {
    (void)sw; (void)port; (void)cls; (void)pause;
  }
};

}  // namespace netseer::pdp
