#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/acl_agg.h"
#include "core/cebp.h"
#include "core/cpu_runtime.h"
#include "core/detect/interswitch.h"
#include "core/detect/path_change.h"
#include "core/event.h"
#include "core/event_stack.h"
#include "core/group_cache.h"
#include "core/pcie.h"
#include "core/reliable.h"
#include "core/report.h"
#include "pdp/switch.h"

namespace netseer::core {

/// §3.4: "an exact flow 5-tuple (or other flow identifiers that can be
/// flexibly defined)". The identifier granularity used for event
/// aggregation, dedup, and reporting.
enum class FlowIdMode : std::uint8_t {
  k5Tuple = 0,   // src, dst, proto, sport, dport (default)
  kHostPair,     // src, dst only — aggregate across ports/protocols
  kDstOnly,      // destination service aggregation
};

/// Apply a flow-identifier mode: out-of-scope fields are zeroed, so two
/// packets with the same canonical key aggregate into one flow event.
[[nodiscard]] packet::FlowKey canonical_flow(const packet::FlowKey& flow, FlowIdMode mode);

/// Everything configurable about one switch's NetSeer instance, mirroring
/// Figure 6 left to right.
struct NetSeerConfig {
  GroupCacheConfig group_cache{};
  PathChangeConfig path_change{};
  InterSwitchConfig interswitch{};
  CebpConfig cebp{};
  PcieConfig pcie{};
  SwitchCpuConfig cpu{};
  ReliableReporterConfig reporter{};

  /// Queuing delay above this is a congestion event (§3.3).
  util::SimDuration congestion_threshold = util::microseconds(20);
  /// Internal-port budget shared by pause + ingress-pipeline-drop + MMU
  /// drop event packets (§4 capacity: ~100 Gb/s).
  util::BitRate internal_port_rate = util::BitRate::gbps(100);
  /// MMU's ceiling for redirecting to-be-dropped packets (§4: ~40 Gb/s).
  util::BitRate mmu_redirect_rate = util::BitRate::gbps(40);
  std::uint32_t acl_report_interval = 64;
  std::size_t event_stack_capacity = 4096;
  /// Flow identifier used for all event aggregation and reporting.
  FlowIdMode flow_id_mode = FlowIdMode::k5Tuple;
  /// Run inter-switch drop detection on every port.
  bool enable_interswitch = true;

  /// Partial deployment (§2.3): when non-empty, only packets whose
  /// source OR destination falls in one of these prefixes generate
  /// events — "a partial deployment of NetSeer to monitor flows of
  /// specific applications". Inter-switch sequencing still covers every
  /// packet (losing any packet desynchronizes the link), but recovered
  /// drops outside the filter are not reported.
  std::vector<packet::Ipv4Prefix> monitored_prefixes;
};

/// Per-step byte accounting backing Figure 13: how much monitoring
/// traffic would exist after each stage of the NetSeer funnel.
struct FunnelStats {
  std::uint64_t traffic_bytes = 0;         // all forwarded traffic seen
  std::uint64_t traffic_packets = 0;
  std::uint64_t event_packet_bytes = 0;    // step 1: packets experiencing events
  std::uint64_t event_packets = 0;
  std::uint64_t dedup_reports = 0;         // step 2: flow events after group caching
  // Dedup-eligible subset (drop/congestion/pause/ACL; path change is
  // flow-level by nature and bypasses the caches, §3.4).
  std::uint64_t eligible_event_packets = 0;
  std::uint64_t eligible_reports = 0;
  std::uint64_t extracted_bytes = 0;       // step 3: 24 B records + batch headers
  std::uint64_t cpu_forwarded_events = 0;  // step 4: after FP elimination
  std::uint64_t report_bytes = 0;          // bytes actually sent to the backend
  std::uint64_t notify_bytes = 0;          // loss-notification traffic on the data plane
  std::uint64_t shim_bytes = 0;            // 4 B sequence shims (free if VLAN bits reused)

  [[nodiscard]] double overhead_ratio() const {
    return traffic_bytes ? static_cast<double>(report_bytes) / traffic_bytes : 0.0;
  }
};

/// NetSeer on one switch: implements the full §3 pipeline as a
/// SwitchAgent. Register it LAST on the switch so baseline monitors and
/// the ground-truth recorder observe packets before NetSeer mutates them
/// (sequence shims) or consumes its own control traffic.
class NetSeerApp final : public pdp::SwitchAgent {
 public:
  /// `channel`/`backend` may be null/invalid for pipeline-only use (the
  /// events then stop at the switch CPU output, still visible in stats).
  NetSeerApp(pdp::Switch& sw, const NetSeerConfig& config, ReportChannel* channel,
             util::NodeId backend);

  // ---- SwitchAgent hooks ---------------------------------------------------
  bool on_ingress(pdp::Switch& sw, packet::Packet& pkt, pdp::PipelineContext& ctx) override;
  void on_pipeline_drop(pdp::Switch& sw, const packet::Packet& pkt,
                        const pdp::PipelineContext& ctx) override;
  void on_mmu_drop(pdp::Switch& sw, const packet::Packet& pkt,
                   const pdp::PipelineContext& ctx) override;
  void on_enqueue(pdp::Switch& sw, const packet::Packet& pkt, const pdp::PipelineContext& ctx,
                  bool queue_paused) override;
  void on_egress(pdp::Switch& sw, packet::Packet& pkt, const pdp::EgressInfo& info) override;

  /// Flush all residual state (group caches, CEBPs, CPU buffer) so
  /// end-of-run totals reconcile. Call once when traffic has drained.
  void flush();

  // ---- Introspection ---------------------------------------------------------
  [[nodiscard]] util::NodeId switch_id() const { return sw_.id(); }
  [[nodiscard]] const FunnelStats& funnel() const { return funnel_; }
  [[nodiscard]] const EventStack& stack() const { return stack_; }
  [[nodiscard]] const SwitchCpu& cpu() const { return *cpu_; }
  [[nodiscard]] bool has_reporter() const { return reporter_ != nullptr; }
  [[nodiscard]] const ReliableReporter& reporter() const { return *reporter_; }
  [[nodiscard]] const CebpBatcher& batcher() const { return *batcher_; }
  [[nodiscard]] const PcieChannel& pcie() const { return *pcie_; }
  [[nodiscard]] const InterSwitchTx& tx_module(util::PortId port) const { return *tx_[port]; }
  [[nodiscard]] const InterSwitchRx& rx_module(util::PortId port) const { return *rx_[port]; }
  [[nodiscard]] const GroupCache& cache(EventType type) const {
    return caches_[cache_index(type)];
  }
  [[nodiscard]] std::uint64_t missed_mmu_redirects() const { return missed_mmu_; }
  [[nodiscard]] std::uint64_t missed_internal_port() const { return missed_internal_; }
  [[nodiscard]] std::uint64_t filtered_events() const { return filtered_events_; }
  [[nodiscard]] const NetSeerConfig& config() const { return config_; }

 private:
  [[nodiscard]] static std::size_t cache_index(EventType type) {
    switch (type) {
      case EventType::kDrop: return 0;
      case EventType::kCongestion: return 1;
      case EventType::kPause: return 2;
      default: return 3;
    }
  }

  /// Partial-deployment filter: should events for `flow` be reported?
  [[nodiscard]] bool monitored(const packet::FlowKey& flow) const;
  /// Step-1 accounting + budget gates, then into dedup.
  void detect(const FlowEvent& event, std::uint32_t trigger_bytes);
  /// Post-dedup: extraction + stack + CEBP.
  void extract(const FlowEvent& event);
  void send_loss_notifications(pdp::Switch& sw, util::PortId port, InterSwitchRx::Gap gap);
  [[nodiscard]] bool consume_internal_budget(std::uint32_t bytes);
  [[nodiscard]] InterSwitchTx::EmitDrop link_loss_emitter(util::PortId port);
  /// Slow-path drain of queued ring-buffer lookups when the link idles
  /// (self-terminating one-shot chain, so simulations still drain).
  void schedule_idle_drain(util::PortId port);

  pdp::Switch& sw_;
  NetSeerConfig config_;

  // Detection state.
  std::vector<std::unique_ptr<InterSwitchTx>> tx_;
  std::vector<std::unique_ptr<InterSwitchRx>> rx_;
  std::vector<bool> drain_scheduled_;
  PathChangeDetector path_;
  AclDropAggregator acl_;
  util::TokenBucket internal_port_;
  util::TokenBucket mmu_redirect_;

  // Compression + batching.
  std::array<GroupCache, 4> caches_;  // drop, congestion, pause, (spare)
  EventStack stack_;
  std::unique_ptr<CebpBatcher> batcher_;
  std::unique_ptr<PcieChannel> pcie_;
  std::unique_ptr<SwitchCpu> cpu_;
  std::unique_ptr<ReliableReporter> reporter_;

  FunnelStats funnel_;
  std::uint64_t missed_mmu_ = 0;
  std::uint64_t missed_internal_ = 0;
  std::uint64_t filtered_events_ = 0;
};

}  // namespace netseer::core
