#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "monitors/netsight.h"
#include "monitors/observation.h"
#include "pdp/agent.h"
#include "pdp/switch.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace netseer::monitors {

/// EverFlow-style match-and-mirror [Zhu et al., SIGCOMM'15], configured
/// as in the paper's evaluation (§5): switches mirror TCP SYN/FIN
/// packets via ERSPAN, and an on-demand packet-telemetry mode repeatedly
/// picks 1,000 random flows per minute and mirrors *all* their packets
/// at every hop during that window. Events hitting unselected flows at
/// unselected times are invisible — hence <1% coverage in Figure 9.
class EverflowMonitor final : public pdp::SwitchAgent {
 public:
  struct Config {
    std::size_t telemetry_flows = 1000;
    util::SimDuration reselect_interval = util::seconds(60);
  };

  EverflowMonitor(sim::Simulator& sim, const Config& config, util::Rng rng)
      : config_(config), rng_(rng) {
    task_ = sim.schedule_every(config.reselect_interval, [this] { reselect(); });
    // First selection happens as soon as flows have been observed; until
    // then the telemetry set is empty, as in a cold-started deployment.
  }
  ~EverflowMonitor() { stop(); }

  /// Cancel the periodic reselection task. Required before draining the
  /// simulator with run() — periodic tasks never let the queue empty.
  void stop() { task_.cancel(); }

  // ---- SwitchAgent ------------------------------------------------------
  bool on_ingress(pdp::Switch& sw, packet::Packet& pkt, pdp::PipelineContext& ctx) override {
    if (!pkt.is_ipv4() || pkt.kind != packet::PacketKind::kData) return true;
    const auto flow = pkt.flow();
    known_flows_.insert(flow);

    const bool syn_fin =
        pkt.is_tcp() && (pkt.l4.flags & (packet::tcp_flags::kSyn | packet::tcp_flags::kFin));
    if (syn_fin) {
      Observation obs;
      obs.node = sw.id();
      obs.flow = flow;
      obs.type = core::EventType::kPathChange;  // SYN/FIN mirrors reveal paths
      obs.at = sw.simulator().now();
      obs.ingress_port = static_cast<std::uint8_t>(ctx.ingress_port & 0xff);
      mirrors_.record(std::move(obs));
      mirrors_.add_overhead_bytes(64);
    }
    return true;
  }

  void on_pipeline_drop(pdp::Switch& sw, const packet::Packet& pkt,
                        const pdp::PipelineContext& ctx) override {
    if (selected(pkt)) telemetry_.on_pipeline_drop(sw, pkt, ctx);
  }
  void on_mmu_drop(pdp::Switch& sw, const packet::Packet& pkt,
                   const pdp::PipelineContext& ctx) override {
    if (selected(pkt)) telemetry_.on_mmu_drop(sw, pkt, ctx);
  }
  void on_egress(pdp::Switch& sw, packet::Packet& pkt, const pdp::EgressInfo& info) override {
    if (selected(pkt)) telemetry_.on_egress(sw, pkt, info);
  }

  /// Telemetry-derived groups (only selected flows during their window).
  /// No delivery records at hosts -> wire losses cannot be inferred.
  [[nodiscard]] EventGroupSet drop_groups() const {
    return telemetry_.drop_groups(/*infer_wire_losses=*/false);
  }
  [[nodiscard]] EventGroupSet congestion_groups(util::SimDuration threshold) const {
    return telemetry_.congestion_groups(threshold);
  }
  /// Paths: SYN/FIN mirrors plus telemetry windows.
  [[nodiscard]] EventGroupSet path_groups() const {
    EventGroupSet set = telemetry_.path_groups();
    for (const auto& obs : mirrors_.observations()) {
      set.insert(EventGroup{obs.node, obs.flow->hash64(), core::EventType::kPathChange});
    }
    return set;
  }

  [[nodiscard]] std::uint64_t overhead_bytes() const {
    return mirrors_.overhead_bytes() + telemetry_.overhead_bytes();
  }
  [[nodiscard]] std::size_t known_flow_count() const { return known_flows_.size(); }

  /// Re-pick the on-demand telemetry flow set (also runs periodically).
  void reselect() {
    selected_.clear();
    if (known_flows_.empty()) return;
    std::vector<packet::FlowKey> pool(known_flows_.begin(), known_flows_.end());
    const std::size_t want = std::min(config_.telemetry_flows, pool.size());
    for (std::size_t i = 0; i < want; ++i) {
      const auto j = i + rng_.uniform(pool.size() - i);
      std::swap(pool[i], pool[j]);
      selected_.insert(pool[i].hash64());
    }
  }

 private:
  [[nodiscard]] bool selected(const packet::Packet& pkt) const {
    return pkt.is_ipv4() && selected_.contains(pkt.flow().hash64());
  }

  Config config_;
  util::Rng rng_;
  sim::TaskHandle task_;
  std::unordered_set<packet::FlowKey, packet::FlowKeyHash> known_flows_;
  std::unordered_set<std::uint64_t> selected_;
  ObservationLog mirrors_;
  NetSightMonitor telemetry_;  // reused as the mirror-record store
};

}  // namespace netseer::monitors
