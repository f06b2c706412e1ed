#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/fat_tree.h"
#include "monitors/everflow.h"
#include "monitors/ground_truth.h"
#include "monitors/netsight.h"
#include "monitors/pingmesh.h"
#include "monitors/sampling.h"
#include "monitors/snmp.h"
#include "store/store.h"
#include "telemetry/metrics.h"
#include "traffic/generator.h"
#include "verify/verifier.h"

namespace netseer::scenarios {

struct HarnessOptions {
  fabric::TestbedConfig topo{};
  core::NetSeerConfig netseer{};
  std::uint64_t seed = 1;

  bool enable_netsight = false;
  /// Sampling denominators to instantiate (e.g. {10, 100, 1000}).
  std::vector<std::uint32_t> sampling_rates;
  bool enable_everflow = false;
  monitors::EverflowMonitor::Config everflow{};
  bool enable_pingmesh = false;
  util::SimDuration pingmesh_interval = util::seconds(1);
  bool enable_snmp = false;
  util::SimDuration snmp_interval = util::seconds(30);

  /// Backend store placement and tuning. Leave `store.dir` empty for the
  /// default in-memory run; set it (e.g. via --store-dir) to make every
  /// collected event durable under that directory.
  store::StoreOptions store{};
  /// Cadence of the store's background maintenance task (compaction,
  /// retention, WAL GC) while run_and_settle is driving the simulation.
  /// Off by default: the periodic task holds the event queue open to the
  /// full run length, which shifts the drain-phase retransmit timers and
  /// with them the golden end-to-end signatures. Durable runs (e.g.
  /// netseer_sim --store-dir) turn it on.
  util::SimDuration store_maintenance_interval = 0;
};

/// The paper's instrumented testbed (§5): the 10-switch fat-tree with
/// ground truth everywhere, NetSeer on every switch and NIC, the baseline
/// monitors on demand, and a backend collector. Agent order matters and
/// is handled here: ground truth first, baselines next, NetSeer last.
class Harness {
 public:
  explicit Harness(const HarnessOptions& options);

  [[nodiscard]] fabric::Network& net() { return *testbed_.net; }
  [[nodiscard]] sim::Simulator& simulator() { return testbed_.net->simulator(); }
  [[nodiscard]] fabric::Testbed& testbed() { return testbed_; }
  [[nodiscard]] const HarnessOptions& options() const { return options_; }

  [[nodiscard]] monitors::GroundTruth& truth() { return *truth_; }
  [[nodiscard]] store::FlowEventStore& store() { return *store_; }
  [[nodiscard]] const store::FlowEventStore& store() const { return *store_; }
  [[nodiscard]] core::NetSeerApp& app(std::size_t switch_index) { return *apps_[switch_index]; }
  [[nodiscard]] std::size_t app_count() const { return apps_.size(); }
  [[nodiscard]] core::NetSeerApp* app_for(util::NodeId switch_id);

  /// The baseline monitors the options enabled; each is null when its
  /// option was off. SamplingMonitor comes in one instance per 1/N
  /// denominator in `sampling_rates`: `harness.sampler(100)`.
  [[nodiscard]] monitors::NetSightMonitor* netsight() const { return netsight_.get(); }
  [[nodiscard]] monitors::EverflowMonitor* everflow() const { return everflow_.get(); }
  [[nodiscard]] monitors::PingmeshProber* pingmesh() const { return pingmesh_.get(); }
  [[nodiscard]] monitors::SnmpMonitor* snmp() const { return snmp_.get(); }
  [[nodiscard]] monitors::SamplingMonitor* sampler(std::uint32_t denominator) const;

  /// Attach Poisson workload generators to every host, all-to-all.
  void add_workload(const traffic::GeneratorConfig& config);
  [[nodiscard]] const std::vector<std::unique_ptr<traffic::FlowGenerator>>& generators() const {
    return generators_;
  }
  [[nodiscard]] std::uint64_t total_generated_bytes() const;

  /// Run the simulation until `until`, then drain in-flight traffic and
  /// flush every NetSeer stage so backend totals reconcile.
  void run_and_settle(util::SimTime until);

  /// NetSeer's detected (node, flow, type) groups from the backend.
  [[nodiscard]] monitors::EventGroupSet netseer_groups(
      std::optional<core::EventType> type = {}) const;

  /// Fraction of `actual` groups present in `detected`.
  [[nodiscard]] static double coverage(const monitors::EventGroupSet& detected,
                                       const monitors::EventGroupSet& actual);

  /// Aggregate funnel stats over all switches (Fig. 13 numerators).
  [[nodiscard]] core::FunnelStats total_funnel() const;

  /// Statically verify the constructed deployment (resource fitting,
  /// stage hazards, recirculation termination, ACL shadowing, capacity
  /// proofs) without running it — the --verify[=strict] entry point of
  /// the experiment drivers. Reflects the CURRENT control-plane state,
  /// so a fault that installs ACL rules mid-run changes the result.
  [[nodiscard]] verify::Report verify_deployment(
      const verify::VerifyOptions& options = {}) const;

  /// Fold every layer's counters (switches, NetSeer apps, collector,
  /// store, simulator) into `registry` — the testbed-wide metrics
  /// snapshot behind every --metrics-out flag. Additive: safe to call
  /// once per harness across several harnesses sharing one registry.
  /// Includes each switch's Fig. 7 resource model, whose overflow
  /// counters let smoke runs assert the deployment never exceeded a
  /// chip budget.
  void collect_metrics(telemetry::Registry& registry) const;

 private:
  HarnessOptions options_;
  fabric::Testbed testbed_;
  std::unique_ptr<monitors::GroundTruth> truth_;
  std::unique_ptr<core::ReportChannel> channel_;
  std::unique_ptr<store::FlowEventStore> store_;
  std::unique_ptr<backend::Collector> collector_;
  std::vector<std::unique_ptr<core::NetSeerApp>> apps_;
  std::vector<std::unique_ptr<core::NetSeerNicAgent>> nics_;
  std::unique_ptr<monitors::NetSightMonitor> netsight_;
  std::unique_ptr<monitors::NetSightMonitor::DeliveryTracker> delivery_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<monitors::SamplingMonitor>>> samplers_;
  std::unique_ptr<monitors::EverflowMonitor> everflow_;
  std::unique_ptr<monitors::PingmeshProber> pingmesh_;
  std::unique_ptr<monitors::SnmpMonitor> snmp_;
  std::vector<std::unique_ptr<traffic::FlowGenerator>> generators_;
  double wall_seconds_ = 0.0;
};

inline constexpr util::NodeId kCollectorId = 100000;

}  // namespace netseer::scenarios
