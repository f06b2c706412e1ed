#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "fabric/network.h"

namespace netseer::fabric {

/// Parameters for the paper's testbed topology (§5): a 4-ary fat-tree cut
/// down to 10 Tofino switches — 2 cores, 2 pods of (2 aggregation + 2
/// ToR), 8 hosts per ToR at 25G, 100G fabric links.
struct TestbedConfig {
  int num_pods = 2;
  int aggs_per_pod = 2;
  int tors_per_pod = 2;
  int num_cores = 2;
  int hosts_per_tor = 8;
  util::BitRate fabric_rate = util::BitRate::gbps(100);
  util::BitRate host_rate = util::BitRate::gbps(25);
  pdp::MmuConfig mmu{};
  util::SimDuration pipeline_latency = util::nanoseconds(400);
};

/// Handles to the constructed topology (the Network owns the objects).
struct Testbed {
  std::unique_ptr<Network> net;
  std::vector<pdp::Switch*> cores;
  std::vector<pdp::Switch*> aggs;  // pod-major order
  std::vector<pdp::Switch*> tors;  // pod-major order
  std::vector<net::Host*> hosts;   // tor-major order

  [[nodiscard]] std::vector<pdp::Switch*> all_switches() const {
    std::vector<pdp::Switch*> all = cores;
    all.insert(all.end(), aggs.begin(), aggs.end());
    all.insert(all.end(), tors.begin(), tors.end());
    return all;
  }
};

/// Build the testbed topology with routes installed. Every link has a
/// 1 us propagation delay. Host addresses are 10.<pod>.<tor-in-pod>.<host+1>.
[[nodiscard]] Testbed make_testbed(const TestbedConfig& config = {}, std::uint64_t seed = 1);

/// The topology a command line names, built on `base`: "testbed" is
/// `base` as given; "fat<k>" is the canonical k-ary fat-tree, with k even
/// and at least 2: (k/2)^2 cores, k pods of k/2 aggregation and k/2 edge
/// switches, k/2 hosts per edge switch, and `base`'s rates, MMU and
/// pipeline latency. Any other name ("fat3", "fat4abc") is nullopt.
[[nodiscard]] std::optional<TestbedConfig> resolve_topology(std::string_view name,
                                                            const TestbedConfig& base = {});

}  // namespace netseer::fabric
