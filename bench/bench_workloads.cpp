// The §5.2 sweep: the five workloads at 70% load, with inter-switch
// drops, pipeline drops and path changes injected mid-run and every
// monitor attached. The paper draws four figures from this one setup, so
// each workload runs once and all four tables come from its result:
//  - Figure 9: event coverage per monitoring system for path change, MMU
//    drop, inter-switch drop and pipeline drop. Paper: NetSeer and
//    NetSight reach full coverage; sampling cannot capture drops at all;
//    EverFlow stays <1%.
//  - Figure 10: congestion event coverage. Paper: NetSeer & NetSight
//    full; sampling roughly proportional to its rate; EverFlow tiny;
//    Pingmesh detects only the existence of ~0.02% of congestion events
//    and never the flows.
//  - Figure 11: bandwidth overhead as a fraction of carried application
//    traffic. Paper: NetSeer <0.01%; NetSight ~18%; EverFlow and 1:1000
//    sampling comparable to NetSeer's order of magnitude; 1:10 heavy.
//  - Figure 13: (a) the fraction of traffic that is event packets (<10%)
//    and (b) how much each NetSeer step shrinks the monitoring volume:
//    selection >90%, deduplication ~95%, extraction ~98%, with the final
//    report volume <0.01% of traffic.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiment.h"
#include "scenarios/harness.h"
#include "table.h"
#include "traffic/generator.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

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

/// Everything the four tables need from one workload run.
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

constexpr std::uint64_t kSeed = 7;
constexpr double kLoad = 0.7;
/// Scaled-down host rate keeps bench runs tractable while preserving
/// contention ratios (hosts:fabric = 1:4, as in the paper's testbed).
constexpr util::BitRate kHostRate = util::BitRate::gbps(5);
constexpr util::BitRate kFabricRate = util::BitRate::gbps(20);

struct ExperimentConfig {
  util::SimTime duration = util::milliseconds(20);
  /// When set, the harness's full metrics snapshot is folded in here
  /// after the run (additively — one registry is shared across workloads).
  telemetry::Registry* metrics = nullptr;
  /// Statically verify the deployment before generating any traffic;
  /// a failed verification exits the process with status 1 so CI runs
  /// cannot silently measure an undeployable configuration.
  VerifyMode verify = VerifyMode::kOff;
};

using monitors::EventGroupSet;

double existence_fraction(const monitors::GroundTruth& truth,
                          const monitors::PingmeshProber* prober, core::EventType type,
                          util::SimDuration rtt_threshold) {
  if (prober == nullptr) return 0.0;
  std::size_t total = 0, detected = 0;
  for (const auto& ev : truth.events()) {
    if (ev.type != type) continue;
    ++total;
    if (prober->anomaly_in_window(ev.at - util::milliseconds(1), ev.at + util::milliseconds(1),
                                  rtt_threshold)) {
      ++detected;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(detected) / static_cast<double>(total);
}

/// Run the §5.2 benchmark setup on one workload: all-to-all traffic at
/// kLoad, with congestion/MMU drops arising naturally and inter-switch
/// drops, pipeline drops, and path changes injected mid-run (exactly the
/// paper's methodology), all monitors attached.
WorkloadResult run_workload_experiment(const traffic::EmpiricalCdf& workload,
                                       const ExperimentConfig& config) {
  WorkloadResult result;
  result.workload = workload.name();

  scenarios::HarnessOptions options;
  options.seed = kSeed;
  options.topo.host_rate = kHostRate;
  options.topo.fabric_rate = kFabricRate;
  options.enable_netsight = true;
  options.sampling_rates = {10, 100, 1000};
  options.enable_everflow = true;
  options.everflow.telemetry_flows = 1000;
  options.everflow.reselect_interval = util::milliseconds(5);  // scaled from 1 min
  options.enable_pingmesh = true;
  options.pingmesh_interval = util::milliseconds(2);  // scaled from 1 s
  options.enable_snmp = true;
  options.snmp_interval = util::milliseconds(5);
  scenarios::Harness harness{options};
  auto& tb = harness.testbed();
  auto& sim = harness.simulator();

  if (config.verify != VerifyMode::kOff) {
    verify::VerifyOptions verify_options;
    verify_options.strict = config.verify == VerifyMode::kStrict;
    const verify::Report report = harness.verify_deployment(verify_options);
    if (!report.ok(verify_options.strict)) {
      std::fputs(report.render_text().c_str(), stderr);
      std::fprintf(stderr, "experiment aborted: deployment failed static verification\n");
      std::exit(1);
    }
  }

  // The paper's traffic: every host talks to every other host, average
  // link utilization 70%.
  traffic::GeneratorConfig gen;
  gen.sizes = &workload;
  gen.load = kLoad;
  gen.flow_rate = util::BitRate::bps(kHostRate.bits_per_second() / 4);
  gen.stop = config.duration;
  harness.add_workload(gen);

  // Injected events (§5.2: "we manually inject inter-switch drop,
  // pipeline drop, and path change events").
  //
  // Inter-switch: a corrupting + silently dropping fabric link.
  const auto uplink_port = static_cast<util::PortId>(options.topo.hosts_per_tor);
  net::Link* bad_link = tb.tors[0]->link(uplink_port);
  (void)sim.schedule_at(config.duration / 4, [bad_link] {
    net::LinkFaultModel faults;
    faults.drop_prob = 0.005;
    faults.corrupt_prob = 0.002;
    bad_link->set_fault_model(faults);
  });
  (void)sim.schedule_at(config.duration * 3 / 4, [bad_link] {
    bad_link->set_fault_model(net::LinkFaultModel{});
  });

  // Pipeline drop: a parity-corrupted route entry on one agg blackholes
  // part of the ECMP spread toward one host.
  (void)sim.schedule_at(config.duration / 2, [&tb] {
    tb.aggs[1]->routes().set_corrupted(
        packet::Ipv4Prefix{tb.hosts[1]->addr(), 32}, true);
  });

  // Path change: a "network update" pins tor0-0's route toward hosts[8]
  // (which lives under tor0-1) to a single agg uplink; flows that were
  // ECMP'd onto the other uplink change paths.
  (void)sim.schedule_at(config.duration / 2, [&tb, uplink_port] {
    tb.tors[0]->routes().insert(packet::Ipv4Prefix{tb.hosts[8]->addr(), 32},
                                pdp::EcmpGroup{{uplink_port}});
  });

  // An incast burst guarantees MMU drops on top of natural congestion.
  std::vector<net::Host*> incast_senders(tb.hosts.begin() + 16, tb.hosts.begin() + 24);
  traffic::launch_incast(incast_senders, tb.hosts[9]->addr(), 200 * 1000, 1000,
                         config.duration / 3);

  harness.run_and_settle(config.duration + util::milliseconds(20));

  // ---- Score ---------------------------------------------------------------
  auto& truth = harness.truth();
  const auto netseer_all = harness.netseer_groups();
  auto* netsight = harness.netsight();
  auto* everflow = harness.everflow();
  auto* pingmesh = harness.pingmesh();
  auto* snmp = harness.snmp();
  const auto netsight_drops = netsight->drop_groups();
  const auto everflow_drops = everflow->drop_groups();
  const auto threshold = options.netseer.congestion_threshold;

  const auto fill = [&](CoverageRow& row, const EventGroupSet& actual,
                        const EventGroupSet& ns_detected, const EventGroupSet& nsight,
                        const EventGroupSet& ef, const EventGroupSet& s10,
                        const EventGroupSet& s100, const EventGroupSet& s1000) {
    row.truth_groups = actual.size();
    row.netseer = scenarios::Harness::coverage(ns_detected, actual);
    row.netsight = scenarios::Harness::coverage(nsight, actual);
    row.everflow = scenarios::Harness::coverage(ef, actual);
    row.sample10 = scenarios::Harness::coverage(s10, actual);
    row.sample100 = scenarios::Harness::coverage(s100, actual);
    row.sample1000 = scenarios::Harness::coverage(s1000, actual);
  };

  const EventGroupSet empty;
  auto* s10 = harness.sampler(10);
  auto* s100 = harness.sampler(100);
  auto* s1000 = harness.sampler(1000);

  fill(result.pipeline_drop, truth.drop_groups(pdp::DropReason::kRouteMiss), netseer_all,
       netsight_drops, everflow_drops, empty, empty, empty);
  fill(result.mmu_drop, truth.drop_groups(pdp::DropReason::kCongestion), netseer_all,
       netsight_drops, everflow_drops, empty, empty, empty);
  {
    auto wire = truth.drop_groups(pdp::DropReason::kLinkLoss);
    for (const auto& g : truth.drop_groups(pdp::DropReason::kCorruption)) wire.insert(g);
    fill(result.interswitch_drop, wire, netseer_all, netsight_drops, everflow_drops, empty,
         empty, empty);
  }
  fill(result.congestion, truth.groups(core::EventType::kCongestion), netseer_all,
       netsight->congestion_groups(threshold), everflow->congestion_groups(threshold),
       s10->congestion_groups(threshold), s100->congestion_groups(threshold),
       s1000->congestion_groups(threshold));
  fill(result.path_change, truth.groups(core::EventType::kPathChange), netseer_all,
       netsight->path_groups(), everflow->path_groups(), s10->path_groups(),
       s100->path_groups(), s1000->path_groups());

  result.congestion.pingmesh_existence = existence_fraction(
      truth, pingmesh, core::EventType::kCongestion, util::microseconds(100));

  // ---- Overheads -------------------------------------------------------------
  const auto funnel = harness.total_funnel();
  result.funnel = funnel;
  result.traffic_bytes = funnel.traffic_bytes;
  const double traffic = std::max<double>(1.0, static_cast<double>(funnel.traffic_bytes));
  result.netseer_overhead = static_cast<double>(funnel.report_bytes) / traffic;
  result.netsight_overhead = static_cast<double>(netsight->overhead_bytes()) / traffic;
  result.everflow_overhead = static_cast<double>(everflow->overhead_bytes()) / traffic;
  result.sample10_overhead = static_cast<double>(s10->log().overhead_bytes()) / traffic;
  result.sample100_overhead = static_cast<double>(s100->log().overhead_bytes()) / traffic;
  result.sample1000_overhead = static_cast<double>(s1000->log().overhead_bytes()) / traffic;
  result.pingmesh_overhead = static_cast<double>(pingmesh->probe_bytes()) / traffic;
  result.snmp_overhead = static_cast<double>(snmp->overhead_bytes()) / traffic;
  result.netseer_events_stored = harness.store().size();

  // ---- Accuracy: zero FN / zero FP vs omniscient ground truth ----------------
  for (const auto type :
       {core::EventType::kDrop, core::EventType::kCongestion, core::EventType::kPathChange}) {
    const auto actual = truth.groups(type);
    const auto detected = harness.netseer_groups(type);
    for (const auto& group : actual) {
      if (!detected.contains(group)) result.netseer_zero_fn = false;
    }
    if (type == core::EventType::kPathChange) continue;  // expiry re-reports are legal
    for (const auto& group : detected) {
      if (!actual.contains(group)) result.netseer_zero_fp = false;
    }
  }

  if (config.metrics != nullptr) harness.collect_metrics(*config.metrics);
  return result;
}

void print_coverage(const char* event, const CoverageRow& row) {
  std::printf("  %-17s %9zu %9s %9s %9s %9s %9s %9s\n", event, row.truth_groups,
              pct(row.netseer).c_str(), pct(row.netsight).c_str(), pct(row.everflow).c_str(),
              pct(row.sample10).c_str(), pct(row.sample100).c_str(),
              pct(row.sample1000).c_str());
}

void print_fig9(const std::vector<WorkloadResult>& results) {
  print_title("Figure 9 — event coverage ratios (flow-attributed)");
  print_paper("NetSeer & NetSight 100%; EverFlow <1%; sampling ~0 for drops");
  for (const auto& result : results) {
    std::printf("\n[%s]  traffic=%.1f MB  netseer events=%llu  zeroFN=%s zeroFP=%s\n",
                result.workload.c_str(), result.traffic_bytes / 1e6,
                static_cast<unsigned long long>(result.netseer_events_stored),
                result.netseer_zero_fn ? "yes" : "NO",
                result.netseer_zero_fp ? "yes" : "NO");
    std::printf("  %-17s %9s %9s %9s %9s %9s %9s %9s\n", "event type", "groups", "NetSeer",
                "NetSight", "EverFlow", "1:10", "1:100", "1:1000");
    print_coverage("path change", result.path_change);
    print_coverage("MMU drop", result.mmu_drop);
    print_coverage("inter-switch drop", result.interswitch_drop);
    print_coverage("pipeline drop", result.pipeline_drop);
  }
}

void print_fig10(const std::vector<WorkloadResult>& results) {
  print_title("Figure 10 — congestion event coverage");
  print_paper("NetSeer/NetSight 100%; sampling ~ rate; EverFlow <1%; Pingmesh existence only");
  std::printf("\n  %-8s %9s %9s %9s %9s %9s %9s %9s %12s\n", "workload", "groups", "NetSeer",
              "NetSight", "EverFlow", "1:10", "1:100", "1:1000", "Ping(exist)");
  for (const auto& result : results) {
    const auto& row = result.congestion;
    std::printf("  %-8s %9zu %9s %9s %9s %9s %9s %9s %12s\n", result.workload.c_str(),
                row.truth_groups, pct(row.netseer).c_str(), pct(row.netsight).c_str(),
                pct(row.everflow).c_str(), pct(row.sample10).c_str(),
                pct(row.sample100).c_str(), pct(row.sample1000).c_str(),
                pct(row.pingmesh_existence).c_str());
  }
  print_note("Pingmesh column is existence-level detection; its flow-level coverage is 0.");
}

void print_fig11(const std::vector<WorkloadResult>& results) {
  print_title("Figure 11 — overall bandwidth overhead (monitoring bytes / traffic bytes)");
  print_paper("NetSeer <0.01%; NetSight ~18%; sampling scales with rate");
  std::printf("\n  %-8s %10s %10s %10s %10s %10s %10s %10s %10s\n", "workload", "NetSeer",
              "NetSight", "EverFlow", "1:10", "1:100", "1:1000", "Pingmesh", "SNMP");
  for (const auto& result : results) {
    std::printf("  %-8s %10s %10s %10s %10s %10s %10s %10s %10s\n", result.workload.c_str(),
                pct(result.netseer_overhead).c_str(), pct(result.netsight_overhead).c_str(),
                pct(result.everflow_overhead).c_str(), pct(result.sample10_overhead).c_str(),
                pct(result.sample100_overhead).c_str(),
                pct(result.sample1000_overhead).c_str(),
                pct(result.pingmesh_overhead).c_str(), pct(result.snmp_overhead).c_str());
  }
  print_note("NetSeer column counts the batched event reports leaving the switch CPU.");
}

void print_fig13(const std::vector<WorkloadResult>& results) {
  print_title("Figure 13 — per-step bandwidth overhead reduction");
  print_paper("event packets <10%; dedup -95%; extraction -98%; total <0.01%");
  std::printf("\n  %-8s %12s %12s %12s %12s %12s\n", "workload", "event-pkt%", "dedup-cut",
              "extract-cut", "fp-cut", "overall");
  for (const auto& result : results) {
    const auto& funnel = result.funnel;

    // Step volumes in bytes, as if each stage's output were shipped raw.
    const double traffic = static_cast<double>(funnel.traffic_bytes);
    const double step1 = static_cast<double>(funnel.event_packet_bytes);
    const double avg_event_pkt =
        funnel.event_packets ? step1 / static_cast<double>(funnel.event_packets) : 0.0;
    const double step2 = static_cast<double>(funnel.dedup_reports) * avg_event_pkt;
    const double step3 = static_cast<double>(funnel.extracted_bytes);
    const double step4 = static_cast<double>(funnel.report_bytes);

    // Dedup is measured over eligible events only: path changes bypass
    // the group caches by design (§3.4), so including them would
    // understate the mechanism.
    const double dedup_cut =
        funnel.eligible_event_packets
            ? 1.0 - static_cast<double>(funnel.eligible_reports) /
                        static_cast<double>(funnel.eligible_event_packets)
            : 0.0;
    const auto cut = [](double before, double after) {
      return before > 0 ? 1.0 - after / before : 0.0;
    };
    std::printf("  %-8s %12s %12s %12s %12s %12s\n", result.workload.c_str(),
                pct(step1 / traffic).c_str(), pct(dedup_cut).c_str(),
                pct(cut(step2, step3)).c_str(), pct(cut(step3, step4)).c_str(),
                pct(step4 / traffic).c_str());
  }
  print_note("step volumes: selected event packets -> deduped flow events ->");
  print_note("24B extracted records -> CPU-filtered batched reports.");
}

}  // namespace

int main(int argc, char** argv) {
  std::string only_workload;
  int duration_ms = 20;
  ExperimentOptions cli{"Figures 9, 10, 11 and 13 — the §5.2 workload sweep"};
  cli.verify_flag()
      .flag("workload", &only_workload, "run a single workload: dctcp | vl2 | cache | hadoop | web")
      .flag("duration-ms", &duration_ms, "simulated run length per workload")
      .parse(argc, argv);

  std::vector<const traffic::EmpiricalCdf*> workloads = traffic::all_workloads();
  if (!only_workload.empty()) {
    const auto* workload = traffic::find_workload(only_workload);
    if (workload == nullptr) cli.fail("unknown workload '" + only_workload + "'");
    workloads = {workload};
  }

  ExperimentConfig config;
  config.duration = util::milliseconds(duration_ms);
  config.metrics = cli.sink();
  config.verify = cli.verify();
  std::vector<WorkloadResult> results;
  results.reserve(workloads.size());
  for (const auto* workload : workloads) {
    results.push_back(run_workload_experiment(*workload, config));
  }

  print_fig9(results);
  print_fig10(results);
  print_fig11(results);
  print_fig13(results);
  return cli.write_metrics();
}
