// Scalability (§3.2 "linearly scalable with network size" and the §5.2
// extrapolation: a 3-tier network of 400 switches / 10,000 servers emits
// at most 400 x 640 Mb/s = 256 Gb/s of monitoring traffic, 3 collector
// servers, 0.03% processing overhead).
//
// Two parts: (1) measured — run the same per-host workload on growing
// fat-trees and show per-switch NetSeer overhead stays flat (events
// scale with traffic, not with topology size); (2) analytic — the
// paper's own production extrapolation from the per-switch ceiling.
#include "core/netseer_app.h"
#include "fabric/fat_tree.h"
#include "experiment.h"
#include "scenarios/harness.h"
#include "table.h"
#include "traffic/generator.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

struct ScaleResult {
  int switches;
  int hosts;
  double traffic_mb;
  double overhead_ratio;
  double events_per_switch;
  double report_mbps_per_switch;
};

ScaleResult run_scale(const char* topology, util::SimTime duration, telemetry::Registry* metrics) {
  scenarios::HarnessOptions options;
  options.seed = 13;
  fabric::TestbedConfig rates;
  rates.host_rate = util::BitRate::gbps(5);
  rates.fabric_rate = util::BitRate::gbps(20);
  options.topo = *fabric::resolve_topology(topology, rates);
  scenarios::Harness harness{options};
  auto& tb = harness.testbed();

  traffic::GeneratorConfig gen;
  gen.sizes = &traffic::web();
  gen.load = 0.5;
  gen.flow_rate = util::BitRate::gbps(1);
  gen.stop = duration;
  harness.add_workload(gen);

  // A lossy link + an incast so every event class exists at any scale.
  net::Link* bad = tb.tors[0]->link(static_cast<util::PortId>(options.topo.hosts_per_tor));
  net::LinkFaultModel faults;
  faults.drop_prob = 0.002;
  bad->set_fault_model(faults);
  std::vector<net::Host*> senders(tb.hosts.begin(),
                                  tb.hosts.begin() + std::min<std::size_t>(8, tb.hosts.size()));
  traffic::launch_incast(senders, tb.hosts.back()->addr(), 100 * 1000, 1000, duration / 2);

  harness.run_and_settle(duration + util::milliseconds(10));

  const auto funnel = harness.total_funnel();
  ScaleResult result;
  result.switches = static_cast<int>(tb.all_switches().size());
  result.hosts = static_cast<int>(tb.hosts.size());
  result.traffic_mb = static_cast<double>(funnel.traffic_bytes) / 1e6;
  result.overhead_ratio = funnel.overhead_ratio();
  result.events_per_switch =
      static_cast<double>(harness.store().size()) / result.switches;
  result.report_mbps_per_switch = static_cast<double>(funnel.report_bytes) * 8.0 /
                                  util::to_seconds(duration) / 1e6 / result.switches;
  if (metrics != nullptr) harness.collect_metrics(*metrics);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions cli{"Scalability — per-switch NetSeer cost vs network size"};
  cli.parse(argc, argv);
  print_title("Scalability — per-switch NetSeer cost vs network size");
  print_paper("distributed FET scales linearly: per-switch overhead independent of size");

  std::printf("\n  %-14s %8s %8s %12s %12s %16s\n", "topology", "switches", "hosts",
              "traffic MB", "overhead", "report Mb/s/sw");
  struct Row {
    const char* name;
    const char* topology;
    util::SimTime duration;
  };
  for (const Row& row : {Row{"testbed(10sw)", "testbed", util::milliseconds(15)},
                         Row{"fat-tree k=4", "fat4", util::milliseconds(15)},
                         Row{"fat-tree k=6", "fat6", util::milliseconds(10)},
                         Row{"fat-tree k=8", "fat8", util::milliseconds(8)}}) {
    const auto result = run_scale(row.topology, row.duration, cli.sink());
    std::printf("  %-14s %8d %8d %12.1f %12s %16.2f\n", row.name, result.switches,
                result.hosts, result.traffic_mb, pct(result.overhead_ratio).c_str(),
                result.report_mbps_per_switch);
  }

  print_title("Production extrapolation (§5.2)");
  print_paper("400 switches -> <=256 Gb/s monitoring traffic, 3 collectors, 0.03% overhead");
  const double per_switch_cap_mbps = 640.0;  // paper's 6.4 Tb/s switch at 0.01%
  const int switches = 400;
  const double total_gbps = per_switch_cap_mbps * switches / 1000.0;
  const int collectors = static_cast<int>(total_gbps / 100.0 + 1);
  std::printf("\n  %d switches x %.0f Mb/s ceiling = %.0f Gb/s monitoring traffic\n", switches,
              per_switch_cap_mbps, total_gbps);
  std::printf("  -> %d collector servers with 100G NICs; %.2f%% of 10,000 servers\n",
              collectors, 100.0 * collectors / 10000.0);
  return cli.write_metrics();
}
