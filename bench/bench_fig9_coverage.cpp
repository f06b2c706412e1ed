// Figure 9: event coverage ratios per monitoring system for path change,
// MMU drop, inter-switch drop, and pipeline drop — across the five
// workloads of §5.2. Paper result: NetSeer and NetSight reach full
// coverage; sampling cannot capture drops at all; EverFlow stays <1%.
#include <cctype>
#include <cstdlib>

#include "experiment.h"
#include "table.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

void print_rows(const char* event, const CoverageRow& row) {
  std::printf("  %-17s %9zu %9s %9s %9s %9s %9s %9s\n", event, row.truth_groups,
              pct(row.netseer).c_str(), pct(row.netsight).c_str(), pct(row.everflow).c_str(),
              pct(row.sample10).c_str(), pct(row.sample100).c_str(),
              pct(row.sample1000).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string only_workload;
  int duration_ms = 20;
  ExperimentOptions cli{"Figure 9 — event coverage ratios per monitoring system"};
  cli.flag("workload", &only_workload, "run a single workload (the ctest smoke path)")
      .flag("duration-ms", &duration_ms, "simulated run length per workload")
      .parse(argc, argv);

  print_title("Figure 9 — event coverage ratios (flow-attributed)");
  print_paper("NetSeer & NetSight 100%; EverFlow <1%; sampling ~0 for drops");

  ExperimentConfig config;
  cli.configure(config);
  config.duration = util::milliseconds(duration_ms);

  bool ran_any = false;
  for (const auto* workload : traffic::all_workloads()) {
    if (!only_workload.empty()) {
      std::string lower = workload->name();
      for (auto& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower != only_workload) continue;
    }
    ran_any = true;
    const auto result = run_workload_experiment(*workload, config);
    std::printf("\n[%s]  traffic=%.1f MB  netseer events=%llu  zeroFN=%s zeroFP=%s\n",
                result.workload.c_str(), result.traffic_bytes / 1e6,
                static_cast<unsigned long long>(result.netseer_events_stored),
                result.netseer_zero_fn ? "yes" : "NO",
                result.netseer_zero_fp ? "yes" : "NO");
    std::printf("  %-17s %9s %9s %9s %9s %9s %9s %9s\n", "event type", "groups", "NetSeer",
                "NetSight", "EverFlow", "1:10", "1:100", "1:1000");
    print_rows("path change", result.path_change);
    print_rows("MMU drop", result.mmu_drop);
    print_rows("inter-switch drop", result.interswitch_drop);
    print_rows("pipeline drop", result.pipeline_drop);
  }
  if (!ran_any) {
    std::fprintf(stderr, "unknown workload '%s'\n", only_workload.c_str());
    return 2;
  }
  return cli.write_metrics();
}
