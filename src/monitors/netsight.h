#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "monitors/observation.h"
#include "net/host.h"
#include "pdp/agent.h"
#include "pdp/switch.h"

namespace netseer::monitors {

/// NetSight-style per-packet telemetry [Handigol et al., NSDI'14]: every
/// switch mirrors a 64-byte postcard for every packet at every hop, with
/// forwarding ports and latency. Full event coverage — at enormous cost
/// (the paper measures ~18% bandwidth overhead; Fig. 11).
///
/// Postcard records are kept raw; derive_*() reconstructs packet
/// histories the way the NetSight collector would: a packet whose last
/// postcard is an egress at switch S, and which never reached its
/// destination host, died on the wire after S.
class NetSightMonitor final : public pdp::SwitchAgent {
 public:
  enum class Stage : std::uint8_t { kIngress, kEgress, kDropped };

  struct Postcard {
    util::PacketUid uid;
    packet::FlowKey flow;
    util::NodeId node;
    Stage stage;
    std::uint8_t ingress_port;
    std::uint8_t egress_port;
    util::SimDuration queue_delay;
    pdp::DropReason drop_reason;
    util::SimTime at;
  };

  /// Attach to every host so delivery is known (the real NetSight
  /// shim spans the network edge as well).
  class DeliveryTracker final : public net::HostApp {
   public:
    explicit DeliveryTracker(NetSightMonitor& monitor) : monitor_(monitor) {}
    void on_receive(net::Host&, const packet::Packet& pkt) override {
      monitor_.delivered_.insert(pkt.uid);
    }

   private:
    NetSightMonitor& monitor_;
  };

  // ---- SwitchAgent ------------------------------------------------------
  // (One postcard per hop: recorded at egress or at the drop point; the
  // collector needs no separate ingress record for reconstruction.)

  void on_pipeline_drop(pdp::Switch& sw, const packet::Packet& pkt,
                        const pdp::PipelineContext& ctx) override {
    if (!pkt.is_ipv4()) return;
    add(pkt, sw.id(), Stage::kDropped, ctx.ingress_port, ctx.egress_port, 0, ctx.drop,
        sw.simulator().now());
  }

  void on_mmu_drop(pdp::Switch& sw, const packet::Packet& pkt,
                   const pdp::PipelineContext& ctx) override {
    if (!pkt.is_ipv4()) return;
    add(pkt, sw.id(), Stage::kDropped, ctx.ingress_port, ctx.egress_port, 0,
        pdp::DropReason::kCongestion, sw.simulator().now());
  }

  void on_egress(pdp::Switch& sw, packet::Packet& pkt, const pdp::EgressInfo& info) override {
    // NetSight mirrors every packet — probes included (only NetSeer's
    // non-IP link-local control frames are invisible to it).
    if (!pkt.is_ipv4()) return;
    add(pkt, sw.id(), Stage::kEgress, info.ingress_port, info.egress_port, info.queue_delay,
        pdp::DropReason::kNone, sw.simulator().now());
  }

  // ---- Collector-side reconstruction ---------------------------------------
  /// All drop groups: explicit drop postcards plus — when
  /// `infer_wire_losses` and delivery records exist — packets whose
  /// history ends at an egress without reaching the destination (link
  /// loss or downstream MAC discard, attributed upstream like NetSeer).
  [[nodiscard]] EventGroupSet drop_groups(bool infer_wire_losses = true) const {
    EventGroupSet set;
    std::unordered_map<util::PacketUid, const Postcard*> last_egress;
    for (const auto& pc : postcards_) {
      if (pc.stage == Stage::kDropped) {
        set.insert(EventGroup{pc.node, pc.flow.hash64(), core::EventType::kDrop});
      } else if (pc.stage == Stage::kEgress) {
        auto [it, inserted] = last_egress.try_emplace(pc.uid, &pc);
        if (!inserted && pc.at > it->second->at) it->second = &pc;
      }
    }
    if (!infer_wire_losses) return set;
    // Wire losses: last egress exists, never delivered, never explicitly
    // dropped downstream (the explicit case was already counted above).
    std::unordered_set<util::PacketUid> explicitly_dropped;
    for (const auto& pc : postcards_) {
      if (pc.stage == Stage::kDropped) explicitly_dropped.insert(pc.uid);
    }
    for (const auto& [uid, pc] : last_egress) {
      if (delivered_.contains(uid) || explicitly_dropped.contains(uid)) continue;
      set.insert(EventGroup{pc->node, pc->flow.hash64(), core::EventType::kDrop});
    }
    return set;
  }

  [[nodiscard]] EventGroupSet congestion_groups(util::SimDuration threshold) const {
    EventGroupSet set;
    for (const auto& pc : postcards_) {
      if (pc.stage == Stage::kEgress && pc.queue_delay > threshold) {
        set.insert(EventGroup{pc.node, pc.flow.hash64(), core::EventType::kCongestion});
      }
    }
    return set;
  }

  [[nodiscard]] EventGroupSet path_groups() const {
    EventGroupSet set;
    std::unordered_map<EventGroup, std::pair<std::uint8_t, std::uint8_t>, EventGroupHash> seen;
    for (const auto& pc : postcards_) {
      if (pc.stage != Stage::kEgress) continue;
      const EventGroup group{pc.node, pc.flow.hash64(), core::EventType::kPathChange};
      const auto ports = std::make_pair(pc.ingress_port, pc.egress_port);
      auto [it, inserted] = seen.try_emplace(group, ports);
      if (inserted || it->second != ports) {
        it->second = ports;
        set.insert(group);
      }
    }
    return set;
  }

  [[nodiscard]] std::uint64_t overhead_bytes() const { return overhead_bytes_; }

 private:
  void add(const packet::Packet& pkt, util::NodeId node, Stage stage, util::PortId in,
           util::PortId out, util::SimDuration delay, pdp::DropReason reason,
           util::SimTime now) {
    postcards_.push_back(Postcard{pkt.uid, pkt.flow(), node, stage,
                                  static_cast<std::uint8_t>(in & 0xff),
                                  static_cast<std::uint8_t>(out & 0xff), delay, reason, now});
    overhead_bytes_ += 64;  // one truncated mirror per packet per hop
  }

  std::vector<Postcard> postcards_;
  std::unordered_set<util::PacketUid> delivered_;
  std::uint64_t overhead_bytes_ = 0;
};

}  // namespace netseer::monitors
