// Incast debugging: the §2.1 Case-#2 situation. A customer reports
// occasional packet loss; SNMP shows the ToR dropped packets but cannot
// say WHOSE. With NetSeer, one backend query answers (a) were the
// customer's packets among the drops, and (b) which flows caused the
// burst — on the paper's full 10-switch testbed.
#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "monitors/snmp.h"
#include "packet/builder.h"
#include "scenarios/harness.h"
#include "traffic/generator.h"

using namespace netseer;

int main() {
  scenarios::HarnessOptions options;
  options.seed = 11;
  scenarios::Harness harness{options};
  auto& tb = harness.testbed();
  auto& sim = harness.simulator();

  monitors::SnmpMonitor snmp(sim, tb.all_switches(), util::milliseconds(2));

  // The customer's flow: steady small requests h[24] -> h[0].
  net::Host& customer = *tb.hosts[24];
  net::Host& service = *tb.hosts[0];
  const packet::FlowKey customer_flow{customer.addr(), service.addr(), 6, 5555, 443};
  for (int i = 0; i < 800; ++i) {
    (void)sim.schedule_at(i * util::microseconds(10), [&customer, customer_flow] {
      customer.send(packet::make_tcp(customer_flow, 400));
    });
  }

  // The incast: eight batch workers blast the same service VM.
  std::vector<net::Host*> workers(tb.hosts.begin() + 16, tb.hosts.begin() + 24);
  traffic::launch_incast(workers, service.addr(), 300 * 1000, 1000, util::milliseconds(3));

  snmp.stop();
  harness.run_and_settle(util::milliseconds(12));

  // --- What SNMP can tell the operator -------------------------------------
  std::printf("SNMP view (per-device counters):\n");
  for (auto* sw : tb.all_switches()) {
    if (sw->total_drops() > 0) {
      std::printf("  %s dropped %llu packets  <- but whose?\n", sw->name().c_str(),
                  static_cast<unsigned long long>(sw->total_drops()));
    }
  }

  // --- What NetSeer can tell the operator ----------------------------------
  std::printf("\nNetSeer view (backend queries):\n");

  backend::EventQuery customer_query;
  customer_query.flow = customer_flow;
  std::uint64_t customer_dropped = 0, customer_congested = 0;
  for (const auto& stored : harness.store().scan(customer_query)) {
    if (stored.event.type == core::EventType::kDrop) customer_dropped += stored.event.counter;
    if (stored.event.type == core::EventType::kCongestion) {
      customer_congested += stored.event.counter;
    }
  }
  std::printf("  customer flow %s: %llu packets dropped, %llu congested\n",
              customer_flow.to_string().c_str(),
              static_cast<unsigned long long>(customer_dropped),
              static_cast<unsigned long long>(customer_congested));

  // Rank flows by congestion-drop volume at the victim ToR.
  backend::EventQuery at_tor;
  at_tor.switch_id = tb.tors[0]->id();
  std::unordered_map<std::uint64_t, std::pair<packet::FlowKey, std::uint64_t>> by_flow;
  for (const auto& stored : harness.store().scan(at_tor)) {
    if (stored.event.type != core::EventType::kDrop &&
        stored.event.type != core::EventType::kCongestion) {
      continue;
    }
    auto& entry = by_flow[stored.event.flow.hash64()];
    entry.first = stored.event.flow;
    entry.second += stored.event.counter;
  }
  std::vector<std::pair<packet::FlowKey, std::uint64_t>> ranked;
  for (auto& [_, entry] : by_flow) ranked.push_back(entry);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  std::printf("  top flows disturbing %s:\n", tb.tors[0]->name().c_str());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
    std::printf("    %-34s %8llu packets%s\n", ranked[i].first.to_string().c_str(),
                static_cast<unsigned long long>(ranked[i].second),
                ranked[i].first.sport >= 20000 && ranked[i].first.sport < 20008
                    ? "  <- incast worker"
                    : "");
  }
  std::printf("\n=> the incast workers are identified by name; reschedule or rate-limit them.\n");
  return ranked.empty() ? 1 : 0;
}
