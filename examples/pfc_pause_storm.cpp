// PFC pause visibility: lossless-Ethernet fabrics (RDMA) use 802.1Qbb
// priority flow control; congestion then shows up as PAUSE propagation
// instead of drops, and pause trees are notoriously hard to see. The
// paper's testbed NIC lacked PFC so §5 could not evaluate pauses — this
// simulator can: an incast on a PFC-enabled fabric generates pause
// events that NetSeer captures per flow.
#include <cstdio>
#include <map>

#include "packet/builder.h"
#include "scenarios/harness.h"
#include "traffic/generator.h"

using namespace netseer;

int main() {
  scenarios::HarnessOptions options;
  options.seed = 31;
  // Lossless-ish fabric: big queues, PFC thresholds armed.
  options.topo.mmu.queue_capacity_bytes = 2 * 1024 * 1024;
  options.topo.mmu.pfc_xoff_bytes = 120 * 1024;
  options.topo.mmu.pfc_xon_bytes = 40 * 1024;
  scenarios::Harness harness{options};
  auto& tb = harness.testbed();

  // Incast into one host: the ToR's ingress buffers cross XOFF and pause
  // the upstream aggs, which pause the cores...
  std::vector<net::Host*> senders(tb.hosts.begin() + 16, tb.hosts.begin() + 32);
  traffic::launch_incast(senders, tb.hosts[0]->addr(), 400 * 1000, 1000,
                         util::microseconds(100));
  // An innocent-bystander flow shares the paused queues.
  net::Host& bystander = *tb.hosts[8];
  const packet::FlowKey victim{bystander.addr(), tb.hosts[0]->addr(), 6, 4242, 443};
  for (int i = 0; i < 200; ++i) {
    (void)harness.simulator().schedule_at(i * util::microseconds(20), [&bystander, victim] {
      bystander.send(packet::make_tcp(victim, 600));
    });
  }

  harness.run_and_settle(util::milliseconds(20));

  backend::EventQuery pauses;
  pauses.type = core::EventType::kPause;
  std::map<util::NodeId, std::uint64_t> pause_by_device;
  std::uint64_t victim_paused = 0;
  for (const auto& stored : harness.store().scan(pauses)) {
    pause_by_device[stored.event.switch_id] += stored.event.counter;
    if (stored.event.flow == victim) victim_paused += stored.event.counter;
  }

  std::printf("pause events by device (packets arriving to paused queues):\n");
  for (const auto& [node, count] : pause_by_device) {
    for (auto* sw : tb.all_switches()) {
      if (sw->id() == node) {
        std::printf("  %-10s %llu\n", sw->name().c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }
  std::printf("\nbystander flow %s hit paused queues %llu times\n", victim.to_string().c_str(),
              static_cast<unsigned long long>(victim_paused));

  backend::EventQuery drops;
  drops.type = core::EventType::kDrop;
  std::size_t drop_events = 0;
  for (auto cursor = harness.store().scan(drops); cursor.next() != nullptr;) ++drop_events;
  std::printf("drops recorded: %zu (a lossless fabric trades drops for pauses)\n",
              drop_events);
  std::printf("%s\n", pause_by_device.empty()
                          ? "=> no pause propagation (unexpected)"
                          : "=> pause propagation visible per flow, per device");
  return pause_by_device.empty() ? 1 : 0;
}
