#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/netseer_app.h"
#include "scenarios/harness.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "traffic/distributions.h"
#include "util/cli.h"

namespace netseer::bench {

/// Per-monitor coverage of one event class: the fraction of ground-truth
/// (node, flow, type) groups each monitoring system explained.
struct CoverageRow {
  double netseer = 0;
  double netsight = 0;
  double everflow = 0;
  double sample10 = 0;
  double sample100 = 0;
  double sample1000 = 0;
  double pingmesh_existence = 0;  // existence only — never flow-attributed
  std::size_t truth_groups = 0;
};

/// Everything the Fig. 9/10/11/13 harnesses need from one workload run.
struct WorkloadResult {
  std::string workload;

  CoverageRow path_change;
  CoverageRow pipeline_drop;
  CoverageRow mmu_drop;
  CoverageRow interswitch_drop;
  CoverageRow congestion;

  // Overheads as a fraction of carried application traffic (Fig. 11).
  std::uint64_t traffic_bytes = 0;
  double netseer_overhead = 0;
  double netsight_overhead = 0;
  double everflow_overhead = 0;
  double sample10_overhead = 0;
  double sample100_overhead = 0;
  double sample1000_overhead = 0;
  double pingmesh_overhead = 0;
  double snmp_overhead = 0;

  core::FunnelStats funnel;  // Fig. 13 per-step accounting

  // §5.2 accuracy claim checked against omniscient ground truth.
  bool netseer_zero_fn = true;
  bool netseer_zero_fp = true;

  std::uint64_t netseer_events_stored = 0;
};

/// Static-verification behaviour of an experiment run (--verify flags).
enum class VerifyMode {
  kOff = 0,  // construct and run without checking
  kOn,       // verify the constructed deployment; abort the run on errors
  kStrict,   // also abort on warnings
};

struct ExperimentConfig {
  std::uint64_t seed = 7;
  util::SimTime duration = util::milliseconds(20);
  double load = 0.7;
  /// Scaled-down host rate keeps bench runs tractable while preserving
  /// contention ratios (hosts:fabric = 1:4, as in the paper's testbed).
  util::BitRate host_rate = util::BitRate::gbps(5);
  util::BitRate fabric_rate = util::BitRate::gbps(20);
  /// When set, the harness's full metrics snapshot is folded in here
  /// after the run (additively — share one registry across workloads).
  telemetry::Registry* metrics = nullptr;
  /// Statically verify the deployment before generating any traffic;
  /// a failed verification exits the process with status 1 so CI runs
  /// cannot silently measure an undeployable configuration.
  VerifyMode verify = VerifyMode::kOff;
};

/// The command line of every bench binary and of netseer_sim: the util
/// parser with two flags they share, --metrics-out=<path> (collect a
/// telemetry snapshot, written by write_metrics()) and --verify[=strict]
/// (statically verify deployments before running). Bind a binary's own
/// flags with flag(), then parse():
///
///   int duration_ms = 20;
///   ExperimentOptions cli{"Figure 9 — event coverage per monitor"};
///   cli.flag("duration-ms", &duration_ms, "simulated run length").parse(argc, argv);
class ExperimentOptions : public util::CommandLine {
 public:
  explicit ExperimentOptions(std::string summary);
  // The built-in flags write into this object's members.
  ExperimentOptions(const ExperimentOptions&) = delete;
  ExperimentOptions& operator=(const ExperimentOptions&) = delete;

  /// The --verify[=strict] switch as a mode.
  [[nodiscard]] VerifyMode verify() const {
    if (!verify_) return VerifyMode::kOff;
    return verify_->empty() ? VerifyMode::kOn : VerifyMode::kStrict;
  }

  [[nodiscard]] telemetry::Registry& registry() { return registry_; }
  /// Registry pointer for APIs taking an optional sink; null when
  /// --metrics-out was not given (skips collection on hot benches).
  [[nodiscard]] telemetry::Registry* sink() { return metrics_enabled() ? &registry_ : nullptr; }
  [[nodiscard]] bool metrics_enabled() const { return !metrics_path_.empty(); }

  /// Point an experiment config at this option set (metrics sink +
  /// verify mode) — the common prologue of the workload benches.
  void configure(ExperimentConfig& config) {
    config.metrics = sink();
    config.verify = verify();
  }

  /// Write the --metrics-out snapshot if one was asked for; main's exit
  /// status (see telemetry::write_metrics).
  [[nodiscard]] int write_metrics() const {
    return telemetry::write_metrics(registry_, metrics_path_);
  }

 private:
  telemetry::Registry registry_;
  std::string metrics_path_;
  std::optional<std::string> verify_;
};

/// Run the §5.2 benchmark setup on one workload: all-to-all traffic at
/// `load`, with congestion/MMU drops arising naturally and inter-switch
/// drops, pipeline drops, and path changes injected mid-run (exactly the
/// paper's methodology), all monitors attached.
[[nodiscard]] WorkloadResult run_workload_experiment(const traffic::EmpiricalCdf& workload,
                                                     const ExperimentConfig& config = {});

}  // namespace netseer::bench
