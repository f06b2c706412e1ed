// End-to-end golden signatures: a faulty, congested testbed run whose
// observable outputs (events processed, final virtual time, event-store
// population, funnel byte totals) are order-sensitive all the way down —
// any change to event ordering, RNG consumption, or monitor sampling
// shifts them. The constants were recorded from the pre-rewrite engine
// (std::function + binary heap); the zero-allocation engine must
// reproduce them exactly, which is what licenses reusing every Fig. 9-15
// result across the rewrite. The events column alone was re-recorded
// when a link traversal became one engine event and a TX port began to
// wake only while backlogged: the run fires fewer events to the same
// outcome. Regenerate only for an intentional behaviour change, and say
// why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scenarios/harness.h"
#include "traffic/generator.h"

namespace netseer {
namespace {

struct Signature {
  std::uint64_t seed;
  std::uint64_t events;
  std::int64_t now;
  std::size_t store;
  std::uint64_t traffic_bytes;
  std::uint64_t report_bytes;
  std::uint64_t notify_bytes;
};

TEST(HarnessGolden, EndToEndSignaturesAreBitIdentical) {
  constexpr Signature kGolden[] = {
      {1, 293087, 40378785, 2979, 108846224, 74896, 4416},
      {2, 120183, 23027382, 2753, 41530827, 69322, 1728},
      {3, 183941, 47366886, 2811, 60684804, 70764, 2688},
  };
  for (const auto& golden : kGolden) {
    scenarios::HarnessOptions options;
    options.seed = golden.seed;
    options.topo.host_rate = util::BitRate::gbps(5);
    options.topo.fabric_rate = util::BitRate::gbps(20);
    scenarios::Harness harness{options};
    auto& tb = harness.testbed();

    traffic::GeneratorConfig gen;
    gen.sizes = &traffic::web();
    gen.load = 0.6;
    gen.flow_rate = util::BitRate::gbps(1);
    gen.stop = util::milliseconds(2);
    harness.add_workload(gen);

    // A lossy+corrupting ToR uplink exercises the drop/corruption paths.
    net::Link* bad = tb.tors[0]->link(static_cast<util::PortId>(options.topo.hosts_per_tor));
    net::LinkFaultModel faults;
    faults.drop_prob = 0.01;
    faults.corrupt_prob = 0.002;
    bad->set_fault_model(faults);

    // An 8-way incast guarantees congestion drops and notify traffic.
    std::vector<net::Host*> senders(tb.hosts.begin(), tb.hosts.begin() + 8);
    traffic::launch_incast(senders, tb.hosts.back()->addr(), 50 * 1000, 1000,
                           util::milliseconds(1));

    harness.run_and_settle(util::milliseconds(12));

    const auto funnel = harness.total_funnel();
    EXPECT_EQ(harness.simulator().events_processed(), golden.events)
        << "seed " << golden.seed;
    EXPECT_EQ(harness.simulator().now(), golden.now) << "seed " << golden.seed;
    EXPECT_EQ(harness.store().size(), golden.store) << "seed " << golden.seed;
    EXPECT_EQ(funnel.traffic_bytes, golden.traffic_bytes) << "seed " << golden.seed;
    EXPECT_EQ(funnel.report_bytes, golden.report_bytes) << "seed " << golden.seed;
    EXPECT_EQ(funnel.notify_bytes, golden.notify_bytes) << "seed " << golden.seed;
  }
}

}  // namespace
}  // namespace netseer
