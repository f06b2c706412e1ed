// netseer_sim — command-line experiment driver. Assemble a topology, a
// workload, and a fault from flags; run it with NetSeer deployed
// everywhere; print what the backend knows.
//
//   ./build/examples/netseer_sim --topology testbed --workload web
//       --load 0.6 --duration-ms 15 --fault lossy-link --seed 7
//
// Faults: none | lossy-link | blackhole | parity | acl | incast
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "experiment.h"
#include "packet/builder.h"
#include "scenarios/harness.h"
#include "store/subscription.h"
#include "telemetry/collect.h"
#include "traffic/generator.h"

using namespace netseer;

namespace {

struct Args {
  std::string topology = "testbed";
  std::string workload = "web";
  double load = 0.6;
  int duration_ms = 15;
  std::string fault = "lossy-link";
  std::uint64_t seed = 7;
  std::string store_dir;
  std::string store_query;
  bool store_tail = false;
};

const traffic::EmpiricalCdf* workload_by_name(const std::string& name) {
  for (const auto* cdf : traffic::all_workloads()) {
    std::string lower = cdf->name();
    for (auto& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name) return cdf;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bench::ExperimentOptions cli{
      "netseer_sim — assemble a topology, workload, and fault from flags; run it\n"
      "with NetSeer deployed everywhere; print what the backend knows."};
  cli.flag("topology", &args.topology, "testbed | fat4 | fat6 | fat8")
      .flag("workload", &args.workload, "dctcp | vl2 | cache | hadoop | web")
      .flag("load", &args.load, "average link utilization, 0..1")
      .flag("duration-ms", &args.duration_ms, "simulated run length")
      .flag("fault", &args.fault, "none | lossy-link | blackhole | parity | acl | incast")
      .flag("seed", &args.seed, "simulation seed")
      .flag("store-dir", &args.store_dir,
            "persist backend events (WAL + segments) under this directory")
      .flag("store-query", &args.store_query,
            "run a store query after the run, e.g. type=drop,switch=3,from=0,to=5000000")
      .flag("store-tail", &args.store_tail,
            "after the run, stream the stored events back through a subscription")
      .parse(argc, argv);

  const auto* workload = workload_by_name(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n\n%s", args.workload.c_str(),
                 cli.usage().c_str());
    return 2;
  }

  scenarios::HarnessOptions options;
  options.seed = args.seed;
  options.store.dir = args.store_dir;
  if (!args.store_dir.empty()) {
    options.store_maintenance_interval = util::milliseconds(1);
  }
  std::optional<backend::EventQuery> store_query;
  if (!args.store_query.empty()) {
    std::string error;
    store_query = store::parse_query(args.store_query, &error);
    if (!store_query) {
      std::fprintf(stderr, "bad --store-query: %s\n", error.c_str());
      return 2;
    }
  }
  options.topo.host_rate = util::BitRate::gbps(5);
  options.topo.fabric_rate = util::BitRate::gbps(20);
  if (args.topology.starts_with("fat")) {
    const int k = std::atoi(args.topology.c_str() + 3);
    if (k < 2 || k % 2) {
      std::fprintf(stderr, "bad fat-tree arity in '%s'\n", args.topology.c_str());
      return 2;
    }
    options.topo.num_pods = k;
    options.topo.aggs_per_pod = k / 2;
    options.topo.tors_per_pod = k / 2;
    options.topo.num_cores = (k / 2) * (k / 2);
    options.topo.hosts_per_tor = k / 2;
  } else if (args.topology != "testbed") {
    std::fprintf(stderr, "unknown topology '%s'\n", args.topology.c_str());
    return 2;
  }

  scenarios::Harness harness{options};
  auto& tb = harness.testbed();
  const auto duration = util::milliseconds(args.duration_ms);

  if (cli.verify() != bench::VerifyMode::kOff) {
    verify::VerifyOptions verify_options;
    verify_options.strict = cli.verify() == bench::VerifyMode::kStrict;
    const verify::Report report = harness.verify_deployment(verify_options);
    std::fprintf(stderr, "static verification (%zu switches): %s",
                 tb.all_switches().size(), report.render_text().c_str());
    if (!report.ok(verify_options.strict)) return 1;
  }

  traffic::GeneratorConfig gen;
  gen.sizes = workload;
  gen.load = args.load;
  gen.flow_rate = util::BitRate::gbps(1);
  gen.stop = duration;
  harness.add_workload(gen);

  const util::SimTime onset = duration / 3;
  std::string fault_desc = "none";
  if (args.fault == "lossy-link") {
    net::Link* bad =
        tb.tors[0]->link(static_cast<util::PortId>(options.topo.hosts_per_tor));
    (void)harness.simulator().schedule_at(onset, [bad] {
      net::LinkFaultModel faults;
      faults.drop_prob = 0.005;
      faults.corrupt_prob = 0.002;
      bad->set_fault_model(faults);
    });
    fault_desc = "silent loss+corruption on tor0-0 uplink";
  } else if (args.fault == "blackhole") {
    (void)harness.simulator().schedule_at(onset, [&tb] {
      tb.aggs[0]->routes().remove(packet::Ipv4Prefix{tb.hosts[1]->addr(), 32});
    });
    fault_desc = "route removed for " + tb.hosts[1]->addr().to_string() + " at agg0-0";
  } else if (args.fault == "parity") {
    (void)harness.simulator().schedule_at(onset, [&tb] {
      tb.aggs[0]->routes().set_corrupted(packet::Ipv4Prefix{tb.hosts[1]->addr(), 32}, true);
    });
    fault_desc = "parity-corrupted route entry at agg0-0";
  } else if (args.fault == "acl") {
    (void)harness.simulator().schedule_at(onset, [&tb] {
      pdp::AclRule rule;
      rule.rule_id = 700;
      rule.dst = packet::Ipv4Prefix{tb.hosts[2]->addr(), 32};
      rule.permit = false;
      tb.tors[0]->acl().add_rule(rule);
    });
    fault_desc = "deny rule 700 installed at tor0-0";
  } else if (args.fault == "incast") {
    std::vector<net::Host*> senders(
        tb.hosts.begin() + static_cast<std::ptrdiff_t>(tb.hosts.size() / 2), tb.hosts.end());
    traffic::launch_incast(senders, tb.hosts[0]->addr(), 150 * 1000, 1000, onset);
    fault_desc = "incast into " + tb.hosts[0]->addr().to_string();
  } else if (args.fault != "none") {
    std::fprintf(stderr, "unknown fault '%s'\n", args.fault.c_str());
    return 2;
  }

  std::printf("topology=%s (%zu switches, %zu hosts)  workload=%s load=%.0f%%  fault=%s\n",
              args.topology.c_str(), tb.all_switches().size(), tb.hosts.size(),
              workload->name().c_str(), 100 * args.load, fault_desc.c_str());

  harness.run_and_settle(duration + util::milliseconds(15));

  const auto funnel = harness.total_funnel();
  std::printf("\ntraffic: %.1f MB across %llu packets; monitoring overhead %.4f%%\n",
              static_cast<double>(funnel.traffic_bytes) / 1e6,
              static_cast<unsigned long long>(funnel.traffic_packets),
              100 * funnel.overhead_ratio());

  // Event summary by type.
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> by_type;
  for (const auto& stored : harness.store().scan(backend::EventQuery{})) {
    auto& entry = by_type[core::to_string(stored.event.type)];
    ++entry.first;
    entry.second += stored.event.counter;
  }
  std::printf("\nbackend events (%zu total):\n", harness.store().size());
  for (const auto& [type, counts] : by_type) {
    std::printf("  %-12s %8zu events  %10llu packets\n", type.c_str(), counts.first,
                static_cast<unsigned long long>(counts.second));
  }

  // Top affected flows (drops + congestion).
  std::map<std::uint64_t, std::pair<packet::FlowKey, std::uint64_t>> per_flow;
  for (const auto& stored : harness.store().scan(backend::EventQuery{})) {
    if (stored.event.type == core::EventType::kPathChange) continue;
    auto& entry = per_flow[stored.event.flow.hash64()];
    entry.first = stored.event.flow;
    entry.second += stored.event.counter;
  }
  std::vector<std::pair<packet::FlowKey, std::uint64_t>> ranked;
  for (auto& [_, entry] : per_flow) ranked.push_back(entry);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (!ranked.empty()) {
    std::printf("\ntop affected flows:\n");
    for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
      std::printf("  %-36s %8llu packets\n", ranked[i].first.to_string().c_str(),
                  static_cast<unsigned long long>(ranked[i].second));
    }
  }

  // Per-device anomaly counts.
  std::printf("\nanomaly events by device:\n");
  for (auto* sw : tb.all_switches()) {
    backend::EventQuery query;
    query.switch_id = sw->id();
    std::size_t anomalies = 0;
    for (const auto& stored : harness.store().scan(query)) {
      anomalies += (stored.event.type != core::EventType::kPathChange);
    }
    if (anomalies > 0) std::printf("  %-10s %zu\n", sw->name().c_str(), anomalies);
  }
  const auto actual = harness.truth().groups(core::EventType::kDrop);
  const auto detected = harness.netseer_groups(core::EventType::kDrop);
  std::printf("\ndrop coverage vs ground truth: %.1f%% (%zu groups)\n",
              100 * scenarios::Harness::coverage(detected, actual), actual.size());

  if (store_query) {
    const auto& store = harness.store();
    const auto scanned_before = store.stats().segments_scanned;
    const auto pruned_before = store.stats().segments_pruned;
    // The count heads the listing, so keep the first ten rows aside.
    std::vector<const backend::StoredEvent*> shown;
    std::size_t matches = 0;
    for (const auto& stored : store.scan(*store_query)) {
      if (shown.size() < 10) shown.push_back(&stored);
      ++matches;
    }
    std::printf("\nstore query '%s': %zu events\n", args.store_query.c_str(), matches);
    for (const auto* stored : shown) {
      const auto& ev = stored->event;
      std::printf("  t=%-12lld sw=%-6u %-12s %s x%llu\n",
                  static_cast<long long>(ev.detected_at), ev.switch_id,
                  core::to_string(ev.type), ev.flow.to_string().c_str(),
                  static_cast<unsigned long long>(ev.counter));
    }
    std::printf("  plan: %llu segments scanned, %llu pruned\n",
                static_cast<unsigned long long>(store.stats().segments_scanned -
                                                scanned_before),
                static_cast<unsigned long long>(store.stats().segments_pruned -
                                                pruned_before));
  }
  if (args.store_tail) {
    // Subscription demo: replay everything the durable watermark covers,
    // exactly once in LSN order — the same API an online tailer polls as
    // ingest publishes the watermark.
    auto sub = harness.store().subscribe();
    std::size_t tail_rows = 0;
    while (sub.poll([&](const backend::StoredEvent&, std::uint64_t) { ++tail_rows; },
                    4096) > 0) {
    }
    std::printf("\nstore tail: %zu rows replayed, %llu lagged, cursor at LSN %llu "
                "(watermark %llu)\n",
                tail_rows, static_cast<unsigned long long>(sub.lagged()),
                static_cast<unsigned long long>(sub.cursor_lsn()),
                static_cast<unsigned long long>(harness.store().durable_watermark()));
  }
  if (!args.store_dir.empty()) {
    harness.store().checkpoint();
    std::printf("\nstore checkpointed to %s (%zu segments, %zu events)\n",
                args.store_dir.c_str(), harness.store().segment_count(),
                harness.store().size());
  }

  if (cli.metrics_enabled()) harness.collect_metrics(cli.registry());
  return cli.write_metrics();
}
