// Property tests of Algorithm 1's invariants under randomized workloads,
// swept across table sizes and report intervals (TEST_P).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/group_cache.h"
#include "util/rng.h"

namespace netseer::core {
namespace {

// gtest prints a parameter's raw bytes into the test name, so Params
// has no implicit padding: the tail gap would print whatever the stack
// held at registration, and the names would differ from build to build.
struct Params {
  std::size_t entries;
  std::uint32_t report_interval;
  int flows;
  int packets;
  std::uint32_t pad = 0;
};
static_assert(sizeof(Params) == 24, "Params must stay free of implicit padding");

class GroupCacheProperty : public ::testing::TestWithParam<Params> {};

packet::FlowKey random_flow(util::Rng& rng, int universe) {
  packet::FlowKey flow;
  flow.src = packet::Ipv4Addr::from_octets(10, 0, 0, 1);
  flow.dst = packet::Ipv4Addr::from_octets(10, 0, 0, 2);
  flow.proto = 6;
  flow.sport = static_cast<std::uint16_t>(rng.uniform(static_cast<std::uint64_t>(universe)));
  flow.dport = 80;
  return flow;
}

TEST_P(GroupCacheProperty, NeverMissesAFlowAndCountersReconcile) {
  const auto params = GetParam();
  GroupCache cache(
      GroupCacheConfig{.entries = params.entries, .report_interval = params.report_interval});
  util::Rng rng(params.entries * 31 + params.report_interval);

  std::unordered_map<std::uint64_t, std::uint64_t> offered_per_flow;
  std::unordered_map<std::uint64_t, std::uint64_t> reported_per_flow;

  const auto emit = [&](const FlowEvent& out) {
    reported_per_flow[out.flow.hash64()] += out.counter;
  };
  for (int i = 0; i < params.packets; ++i) {
    const auto flow = random_flow(rng, params.flows);
    ++offered_per_flow[flow.hash64()];
    cache.offer(make_event(EventType::kDrop, flow, 1, 0), emit);
  }
  cache.flush(emit);

  // Invariant 1 (zero FN): every offered flow was reported at least once.
  // Invariant 2 (lossless counting): per-flow counters reconcile exactly.
  for (const auto& [hash, offered] : offered_per_flow) {
    const auto it = reported_per_flow.find(hash);
    ASSERT_NE(it, reported_per_flow.end()) << "flow never reported";
    EXPECT_EQ(it->second, offered) << "counter mismatch";
  }
  // Invariant 3: no phantom flows.
  for (const auto& [hash, reported] : reported_per_flow) {
    EXPECT_TRUE(offered_per_flow.contains(hash));
    (void)reported;
  }
  EXPECT_EQ(cache.offered(), static_cast<std::uint64_t>(params.packets));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupCacheProperty,
    ::testing::Values(
        // Plenty of space: no collisions.
        Params{4096, 64, 100, 20000},
        // Heavy collision pressure: more flows than entries.
        Params{64, 64, 1000, 20000},
        // Pathological: single entry.
        Params{1, 16, 50, 5000},
        // Tiny report interval: counter reports dominate.
        Params{1024, 1, 200, 10000},
        // Huge report interval: flush recovers everything.
        Params{1024, 1000000, 200, 10000},
        // Degenerate: zero-entry cache reports per packet.
        Params{0, 64, 100, 2000}),
    [](const auto& info) {
      // Appended, not chained with +: GCC 12 at -O3 warns -Wrestrict
      // (a false positive) on the chain.
      std::string name = "e";
      name += std::to_string(info.param.entries);
      name += "_c";
      name += std::to_string(info.param.report_interval);
      name += "_f";
      name += std::to_string(info.param.flows);
      return name;
    });

}  // namespace
}  // namespace netseer::core
