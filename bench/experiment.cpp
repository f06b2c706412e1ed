#include "experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "traffic/generator.h"

namespace netseer::bench {

ExperimentOptions::ExperimentOptions(std::string summary) : util::CommandLine(std::move(summary)) {
  flag("metrics-out", &metrics_path_, "write a metrics snapshot (.json or .csv) on exit");
  flag("verify", &verify_, "strict", "statically verify the deployment before running");
}

namespace {

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

}  // namespace

WorkloadResult run_workload_experiment(const traffic::EmpiricalCdf& workload,
                                       const ExperimentConfig& config) {
  WorkloadResult result;
  result.workload = workload.name();

  scenarios::HarnessOptions options;
  options.seed = config.seed;
  options.topo.host_rate = config.host_rate;
  options.topo.fabric_rate = config.fabric_rate;
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
  gen.load = config.load;
  gen.flow_rate = util::BitRate::bps(config.host_rate.bits_per_second() / 4);
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
  auto* netsight = harness.monitor<monitors::NetSightMonitor>();
  auto* everflow = harness.monitor<monitors::EverflowMonitor>();
  auto* pingmesh = harness.monitor<monitors::PingmeshProber>();
  auto* snmp = harness.monitor<monitors::SnmpMonitor>();
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
  auto* s10 = harness.monitor<monitors::SamplingMonitor>(10);
  auto* s100 = harness.monitor<monitors::SamplingMonitor>(100);
  auto* s1000 = harness.monitor<monitors::SamplingMonitor>(1000);

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

}  // namespace netseer::bench
