#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/event.h"
#include "monitors/observation.h"
#include "net/link.h"
#include "pdp/agent.h"
#include "pdp/switch.h"
#include "util/annotations.h"
#include "util/hash.h"

namespace netseer::monitors {

/// One actual data-plane event, as only an omniscient observer can know
/// it. Used to score every monitor's coverage and NetSeer's FP/FN rates;
/// no monitor is allowed to read this.
struct TrueEvent {
  core::EventType type;
  packet::FlowKey flow{};
  util::NodeId node = util::kInvalidNode;  // where it happened (link faults: upstream end)
  pdp::DropReason drop_reason = pdp::DropReason::kNone;
  util::SimTime at = 0;
  util::PacketUid uid = 0;
  std::uint8_t ingress_port = 0xff;
  std::uint8_t egress_port = 0xff;
  util::SimDuration queue_delay = 0;
};

/// Ground truth's exact, unbounded path memory: the last (ingress port,
/// egress port) pair seen per (node, flow hash). Open addressing in the
/// scheme of LpmTable's index: a power-of-two slot array, linear probing,
/// at most half full so every probe chain ends at an empty slot, and
/// growth by rehash into twice the slots. Entries leave only through
/// clear(), so probing needs no tombstones.
class TruePathTable {
 public:
  /// Record that the flow hashing to `flow_hash` crossed `node` from `in`
  /// to `out`. True when that is a path event: the flow's first sighting
  /// at the node, or a port pair unlike the last one seen there. `node`
  /// must not be util::kInvalidNode, which marks an empty slot.
  NETSEER_HOT bool record(util::NodeId node, std::uint64_t flow_hash, util::PortId in,
                          util::PortId out) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = slot_of(node, flow_hash);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.node == util::kInvalidNode) {
        slot = Slot{flow_hash, node, in, out};
        ++size_;
        return true;
      }
      if (slot.node == node && slot.flow_hash == flow_hash) {
        if (slot.in == in && slot.out == out) return false;
        slot.in = in;
        slot.out = out;
        return true;
      }
    }
  }

  /// Forget every path; the slot array keeps its size.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Distinct (node, flow hash) keys held.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialSlots = 1024;

  struct Slot {
    std::uint64_t flow_hash = 0;
    util::NodeId node = util::kInvalidNode;
    util::PortId in = util::kInvalidPort;
    util::PortId out = util::kInvalidPort;
  };

  [[nodiscard]] std::size_t slot_of(util::NodeId node, std::uint64_t flow_hash) const {
    return static_cast<std::size_t>(util::mix64(util::hash_combine(node, flow_hash))) & mask_;
  }

  NETSEER_HOT_ALLOW_INIT void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.node == util::kInvalidNode) continue;
      std::size_t i = slot_of(slot.node, slot.flow_hash);
      while (slots_[i].node != util::kInvalidNode) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Omniscient event recorder: attach to every switch (FIRST, before any
/// packet-mutating agent) and to every link. Uses unbounded exact state,
/// which hardware could never afford — that is the point.
class GroundTruth final : public pdp::SwitchAgent, public net::LinkObserver {
 public:
  explicit GroundTruth(util::SimDuration congestion_threshold = util::microseconds(20))
      : congestion_threshold_(congestion_threshold) {}

  // ---- SwitchAgent ------------------------------------------------------
  void on_pipeline_drop(pdp::Switch& sw, const packet::Packet& pkt,
                        const pdp::PipelineContext& ctx) override {
    record_drop(sw.id(), pkt, ctx.drop, ctx.ingress_port, ctx.egress_port,
                sw.simulator().now());
  }

  void on_mmu_drop(pdp::Switch& sw, const packet::Packet& pkt,
                   const pdp::PipelineContext& ctx) override {
    record_drop(sw.id(), pkt, pdp::DropReason::kCongestion, ctx.ingress_port, ctx.egress_port,
                sw.simulator().now());
  }

  void on_enqueue(pdp::Switch& sw, const packet::Packet& pkt, const pdp::PipelineContext& ctx,
                  bool queue_paused) override {
    if (!queue_paused || !pkt.is_ipv4()) return;
    TrueEvent ev;
    ev.type = core::EventType::kPause;
    ev.flow = pkt.flow();
    ev.node = sw.id();
    ev.at = sw.simulator().now();
    ev.egress_port = static_cast<std::uint8_t>(ctx.egress_port);
    ev.uid = pkt.uid;
    events_.push_back(ev);
  }

  void on_egress(pdp::Switch& sw, packet::Packet& pkt, const pdp::EgressInfo& info) override {
    if (!pkt.is_ipv4() || pkt.kind != packet::PacketKind::kData) return;
    const auto now = sw.simulator().now();

    if (info.queue_delay > congestion_threshold_) {
      TrueEvent ev;
      ev.type = core::EventType::kCongestion;
      ev.flow = pkt.flow();
      ev.node = sw.id();
      ev.at = now;
      ev.egress_port = static_cast<std::uint8_t>(info.egress_port);
      ev.queue_delay = info.queue_delay;
      ev.uid = pkt.uid;
      events_.push_back(ev);
    }

    // Exact, unbounded path tracking: first packet of a flow at a switch
    // and any later port change are path events.
    if (paths_.record(sw.id(), pkt.flow_hash(), info.ingress_port, info.egress_port)) {
      TrueEvent ev;
      ev.type = core::EventType::kPathChange;
      ev.flow = pkt.flow();
      ev.node = sw.id();
      ev.at = now;
      ev.ingress_port = static_cast<std::uint8_t>(info.ingress_port);
      ev.egress_port = static_cast<std::uint8_t>(info.egress_port);
      ev.uid = pkt.uid;
      events_.push_back(ev);
    }
  }

  // ---- LinkObserver -----------------------------------------------------
  void on_link_fault(const packet::Packet& pkt, util::NodeId from, util::NodeId to,
                     net::LinkFault fault) override {
    (void)to;
    if (pkt.kind == packet::PacketKind::kLossNotify ||
        pkt.kind == packet::PacketKind::kPfc) {
      return;  // monitoring/control traffic, not a flow event
    }
    TrueEvent ev;
    ev.type = core::EventType::kDrop;
    ev.flow = pkt.flow();
    ev.node = from;  // attributed to the upstream end, like NetSeer's report
    ev.drop_reason = fault == net::LinkFault::kSilentDrop ? pdp::DropReason::kLinkLoss
                                                          : pdp::DropReason::kCorruption;
    ev.at = pkt.meta.created_time;
    ev.uid = pkt.uid;
    events_.push_back(ev);
  }

  // ---- Scoring ------------------------------------------------------------
  [[nodiscard]] const std::vector<TrueEvent>& events() const { return events_; }

  [[nodiscard]] std::size_t count(core::EventType type) const {
    std::size_t n = 0;
    for (const auto& ev : events_) n += (ev.type == type);
    return n;
  }

  /// Ground-truth (node, flow, type) groups, the denominators of every
  /// coverage figure. Inter-switch link losses and corruptions report as
  /// drop groups at the upstream node, exactly how NetSeer reports them.
  [[nodiscard]] EventGroupSet groups(std::optional<core::EventType> type = {}) const {
    EventGroupSet set;
    for (const auto& ev : events_) {
      if (type && ev.type != *type) continue;
      // Link-level corruption reports as a plain drop group: NetSeer and
      // the scoring treat loss and corruption identically (§3.3).
      set.insert(EventGroup{ev.node, ev.flow.hash64(), ev.type});
    }
    return set;
  }

  /// Drop groups restricted to one drop reason.
  [[nodiscard]] EventGroupSet drop_groups(pdp::DropReason reason) const {
    EventGroupSet set;
    for (const auto& ev : events_) {
      if (ev.type != core::EventType::kDrop || ev.drop_reason != reason) continue;
      set.insert(EventGroup{ev.node, ev.flow.hash64(), core::EventType::kDrop});
    }
    return set;
  }

  void clear() {
    events_.clear();
    paths_.clear();
  }

 private:
  void record_drop(util::NodeId node, const packet::Packet& pkt, pdp::DropReason reason,
                   util::PortId in, util::PortId out, util::SimTime now) {
    if (!pkt.is_ipv4()) return;
    TrueEvent ev;
    ev.type = core::EventType::kDrop;
    ev.flow = pkt.flow();
    ev.node = node;
    ev.drop_reason = reason;
    ev.at = now;
    ev.uid = pkt.uid;
    ev.ingress_port = static_cast<std::uint8_t>(in);
    ev.egress_port = static_cast<std::uint8_t>(out);
    events_.push_back(ev);
  }

  util::SimDuration congestion_threshold_;
  std::vector<TrueEvent> events_;
  TruePathTable paths_;
};

}  // namespace netseer::monitors
