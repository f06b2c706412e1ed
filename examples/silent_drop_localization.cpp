// Silent-drop localization: the §5.1 Case-#3 class of incident. A
// bit-flipped SRAM entry on ONE aggregation switch blackholes the subset
// of flows that ECMP hashes onto it — no counter increments anywhere a
// Syslog would see, and the service sees "probabilistic request
// timeouts". This example shows the operator workflow with NetSeer:
// start from the victim service address, find the drops, localize the
// device, and show the probabilistic ECMP signature.
#include <cstdio>
#include <map>

#include "packet/builder.h"
#include "scenarios/harness.h"

using namespace netseer;

int main() {
  scenarios::HarnessOptions options;
  options.seed = 21;
  scenarios::Harness harness{options};
  auto& tb = harness.testbed();
  auto& sim = harness.simulator();

  net::Host& redis = *tb.hosts[2];  // the victim service VM

  // 40 PHP clients across the other pod hammer the service.
  for (std::uint16_t c = 0; c < 40; ++c) {
    net::Host& client = *tb.hosts[16 + (c % 16)];
    const packet::FlowKey flow{client.addr(), redis.addr(), 6,
                               static_cast<std::uint16_t>(6000 + c), 6379};
    for (int i = 0; i < 40; ++i) {
      (void)sim.schedule_at(i * util::microseconds(25), [&client, flow] {
        client.send(packet::make_tcp(flow, 300));
      });
    }
  }

  // The parity error: one /32 entry in agg0-0's route SRAM flips a bit.
  (void)sim.schedule_at(util::microseconds(100), [&tb, &redis] {
    tb.aggs[0]->routes().set_corrupted(packet::Ipv4Prefix{redis.addr(), 32}, true);
  });

  harness.run_and_settle(util::milliseconds(5));

  // --- Operator workflow ----------------------------------------------------
  // Step 1: query by destination-service events.
  backend::EventQuery drops;
  drops.type = core::EventType::kDrop;
  std::map<util::NodeId, std::uint64_t> per_device;
  std::map<std::uint64_t, std::uint64_t> per_flow;
  std::size_t victim_flows = 0;
  for (const auto& stored : harness.store().scan(drops)) {
    if (stored.event.flow.dst != redis.addr()) continue;
    per_device[stored.event.switch_id] += stored.event.counter;
    if (per_flow[stored.event.flow.hash64()] == 0) ++victim_flows;
    per_flow[stored.event.flow.hash64()] += stored.event.counter;
  }

  std::printf("drops toward the Redis service by device:\n");
  for (const auto& [node, count] : per_device) {
    const char* name = "?";
    for (auto* sw : tb.all_switches()) {
      if (sw->id() == node) name = sw->name().c_str();
    }
    std::printf("  %-10s %llu packets  (drop code: table lookup miss)\n", name,
                static_cast<unsigned long long>(count));
  }

  // Step 2: the ECMP signature — only SOME flows die, all at one device.
  std::printf("\n%zu of 40 client flows are being blackholed (ECMP slice through agg0-0);\n",
              victim_flows);
  std::printf("the others are healthy -> consistent with a corrupted table entry,\n");
  std::printf("not a downed link. Paper Case-#3 took %.0f hours without this; the first\n",
              1008.0 / 60);
  backend::EventQuery first_query;
  first_query.type = core::EventType::kDrop;
  util::SimTime first = -1;
  for (const auto& stored : harness.store().scan(first_query)) {
    if (stored.event.flow.dst != redis.addr()) continue;
    if (first < 0 || stored.event.detected_at < first) first = stored.event.detected_at;
  }
  std::printf("attributable event was in the backend %s after the bit flip.\n",
              util::format_duration(first - util::microseconds(100)).c_str());
  return per_device.size() == 1 ? 0 : 1;
}
