// Figure 14: (a) PCIe channel capacity versus batch size for 1 and 2
// cores — paper: ~9.5 Gb/s / 57 Meps with one core and ~18 Gb/s /
// 110 Meps with two once batches reach ~20; (b) switch-CPU event
// processing capacity versus concurrent flows — paper: 82 Meps at 1K
// flows declining to 4.5 Meps at 1M flows — measured by wall clock on
// the real FP-elimination map, with the pipeline's pre-computed hash and
// with the CPU recomputing it per event (the §3.6 ablation: offloading
// the hash saves 71.4% of CPU cycles, a 2.5x capacity gain).
#include <algorithm>
#include <chrono>
#include <vector>

#include "core/pcie.h"
#include "core/switch_cpu.h"
#include "experiment.h"
#include "table.h"
#include "util/rng.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

/// Wall-clock Meps of the real FP-elimination map with `flows` resident
/// flows (the Fig. 14b sweep), keyed by the pipeline's pre-computed hash
/// or by a hash the CPU recomputes per event.
double measured_cpu_meps(std::size_t flows, bool precomputed_hash) {
  util::Rng rng(99);
  core::FpEliminatorConfig config;
  config.use_precomputed_hash = precomputed_hash;
  config.max_entries = flows * 2 + 1024;
  core::FpEliminator fp(config);

  std::vector<core::FlowEvent> events;
  events.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    events.push_back(core::make_event(core::EventType::kDrop, random_flow(rng), 1, 0));
  }
  // Warm the map.
  for (const auto& ev : events) (void)fp.admit(ev, 0);

  const std::size_t iterations = std::max<std::size_t>(1'000'000 / flows, 4) * flows;
  std::size_t index = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    admitted += fp.admit(events[index], static_cast<util::SimTime>(i));
    if (++index == events.size()) index = 0;
  }
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  (void)admitted;
  return static_cast<double>(iterations) / elapsed.count() / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions cli{"Figure 14 — PCIe and switch-CPU capacity"};
  cli.parse(argc, argv);
  print_title("Figure 14(a) — PCIe capacity vs batch size, 1 vs 2 cores");
  print_paper("batch>=20: ~9.5 Gb/s (57 Meps) @1 core, ~18 Gb/s (110 Meps) @2 cores");

  std::printf("\n  %-8s %12s %12s %12s %12s\n", "batch", "1core Meps", "1core Gb/s",
              "2core Meps", "2core Gb/s");
  for (int batch : {1, 5, 10, 20, 30, 40, 50, 60, 70}) {
    core::PcieConfig one;
    one.cpu_cores = 1;
    one.phys_bandwidth = util::BitRate::gbps(10);
    core::PcieConfig two;
    two.cpu_cores = 2;
    const double eps1 = core::PcieChannel::throughput_eps(one, batch);
    const double eps2 = core::PcieChannel::throughput_eps(two, batch);
    std::printf("  %-8d %12.1f %12.2f %12.1f %12.2f\n", batch, eps1 / 1e6,
                eps1 * 24 * 8 / 1e9, eps2 / 1e6, eps2 * 24 * 8 / 1e9);
  }

  print_title("Figure 14(b) — switch CPU capacity vs concurrent flows (measured)");
  print_paper("82 Meps @1K flows declining to 4.5 Meps @1M flows (2 Xeon cores)");
  print_paper("pre-computed hash: 71.4% fewer CPU cycles, 2.5x the capacity (§3.6)");
  std::printf("\n  %-12s %18s %20s %8s\n", "flows", "Meps (1 core here)", "CPU recomputes hash",
              "ratio");
  for (std::size_t flows : {1'000ul, 10'000ul, 100'000ul, 250'000ul, 500'000ul, 1'000'000ul}) {
    const double meps = measured_cpu_meps(flows, true);
    const double recomputed = measured_cpu_meps(flows, false);
    std::printf("  %-12zu %18.1f %20.1f %7.2fx\n", flows, meps, recomputed, meps / recomputed);
    if (cli.metrics_enabled()) {
      cli.registry().histogram("bench", "fig14.cpu_meps").record(meps);
    }
  }
  print_note("absolute Meps depends on this machine; the declining shape with flow count");
  print_note("(cache misses in the FP-elimination hash map) is the figure's claim.");
  print_note("ratio = pre-computed / recomputed: the gain of offloading the hash.");
  return cli.write_metrics();
}
