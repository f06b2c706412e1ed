// Figure 3 (motivation): the production mix of NPA-causing packet drops.
// The underlying ticket data is proprietary; this bench prints the
// published fractions (encoded in scenarios/production_stats.h, they
// weight the incident scenarios) and then reproduces the *simulator's*
// drop-type mix when the corresponding fault types are injected with
// those frequencies.
#include "experiment.h"
#include "scenarios/harness.h"
#include "scenarios/production_stats.h"
#include "table.h"
#include "traffic/generator.h"

using namespace netseer;
using namespace netseer::bench;

int main(int argc, char** argv) {
  ExperimentOptions cli{"Figure 3 — packet-drop mix behind NPAs, reproduced per fault class"};
  cli.parse(argc, argv);
  print_title("Figure 3 — packet drops that cause NPAs");
  print_note("published production fractions (Alibaba tickets, not reproducible):");
  std::printf("\n  %-14s %10s %18s\n", "type", "fraction", "avg locate (min)");
  for (const auto& entry : scenarios::stats::kDropMix) {
    std::printf("  %-14s %9.0f%% %18.0f\n", std::string(entry.type).c_str(),
                100 * entry.fraction, entry.avg_location_minutes);
  }
  std::printf("\n  NPAs caused by drops: %.0f%%; >180min locations that are inter-switch: %.0f%%\n",
              100 * scenarios::stats::kNpaFractionFromDrops,
              100 * scenarios::stats::kSlowLocationInterSwitchShare);

  // Simulator reproduction: inject each covered fault class and show the
  // resulting drop-reason mix as seen by NetSeer (ASIC/MMU hardware
  // failures are out of scope, §3.7).
  scenarios::HarnessOptions options;
  options.seed = 5;
  options.topo.host_rate = util::BitRate::gbps(5);
  options.topo.fabric_rate = util::BitRate::gbps(20);
  scenarios::Harness harness{options};
  auto& tb = harness.testbed();
  auto& sim = harness.simulator();

  traffic::GeneratorConfig gen;
  gen.sizes = &traffic::web();
  gen.load = 0.5;
  gen.flow_rate = util::BitRate::gbps(1);
  gen.stop = util::milliseconds(20);
  harness.add_workload(gen);

  // Pipeline drops: blackhole one host at one agg.
  (void)sim.schedule_at(util::milliseconds(4), [&tb] {
    tb.aggs[0]->routes().set_corrupted(packet::Ipv4Prefix{tb.hosts[3]->addr(), 32}, true);
  });
  // ACL drop: deny one prefix at a ToR.
  (void)sim.schedule_at(util::milliseconds(4), [&tb] {
    pdp::AclRule rule;
    rule.rule_id = 9;
    rule.dst = packet::Ipv4Prefix{tb.hosts[12]->addr(), 32};
    rule.permit = false;
    tb.tors[1]->acl().add_rule(rule);
  });
  // Inter-switch: lossy fabric link window.
  net::Link* bad = tb.tors[2]->link(static_cast<util::PortId>(options.topo.hosts_per_tor));
  (void)sim.schedule_at(util::milliseconds(6), [bad] {
    net::LinkFaultModel faults;
    faults.drop_prob = 0.01;
    bad->set_fault_model(faults);
  });
  // Congestion: a 16-way incast into one 5G host downlink.
  std::vector<net::Host*> senders(tb.hosts.begin() + 16, tb.hosts.end());
  traffic::launch_incast(senders, tb.hosts[9]->addr(), 200 * 1000, 1000,
                         util::milliseconds(4));

  harness.run_and_settle(util::milliseconds(30));

  std::uint64_t by_reason[16] = {};
  std::uint64_t acl = 0, total = 0;
  for (const auto& stored : harness.store().scan(backend::EventQuery{})) {
    if (stored.event.type == core::EventType::kAclDrop) {
      acl += stored.event.counter;
      total += stored.event.counter;
    } else if (stored.event.type == core::EventType::kDrop) {
      by_reason[stored.event.drop_code & 0xf] += stored.event.counter;
      total += stored.event.counter;
    }
  }
  std::printf("\n  simulator reproduction (dropped packets by NetSeer-reported reason):\n");
  const auto row = [&](const char* name, std::uint64_t count) {
    if (total > 0) {
      std::printf("  %-14s %9.1f%% (%llu pkts)\n", name,
                  100.0 * static_cast<double>(count) / static_cast<double>(total),
                  static_cast<unsigned long long>(count));
    }
  };
  row("route-miss", by_reason[static_cast<int>(pdp::DropReason::kRouteMiss)]);
  row("acl", acl);
  row("congestion", by_reason[static_cast<int>(pdp::DropReason::kCongestion)]);
  row("inter-switch", by_reason[static_cast<int>(pdp::DropReason::kLinkLoss)]);
  if (cli.metrics_enabled()) harness.collect_metrics(cli.registry());
  return cli.write_metrics();
}
