// Quickstart: build a tiny two-switch network, attach NetSeer, break a
// link, and query the backend for what happened — the whole public API
// in ~80 lines of user code.
//
//   h1 ── s1 ══(lossy)══ s2 ── h2
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/network.h"
#include "packet/builder.h"
#include "store/store.h"

using namespace netseer;

int main() {
  // 1. A network: two switches, two hosts, routes computed automatically.
  fabric::Network net(/*seed=*/1);
  pdp::SwitchConfig sc;
  sc.num_ports = 4;
  sc.port_rate = util::BitRate::gbps(10);
  auto& s1 = net.add_switch("s1", sc);
  auto& s2 = net.add_switch("s2", sc);
  auto& h1 = net.add_host("h1", packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                          util::BitRate::gbps(10));
  auto& h2 = net.add_host("h2", packet::Ipv4Addr::from_octets(10, 0, 1, 1),
                          util::BitRate::gbps(10));
  net.connect_host(s1, 0, h1, util::microseconds(1));
  net.connect_host(s2, 0, h2, util::microseconds(1));
  auto [s1_to_s2, s2_to_s1] = net.connect_switches(s1, 1, s2, 1, util::microseconds(1));
  net.compute_routes();

  // 2. NetSeer: a backend collector plus one app per switch and a NIC
  //    agent per host. That's the whole deployment.
  core::ReportChannel channel(net.simulator(), util::Rng(2), util::milliseconds(1),
                              /*loss=*/0.0);
  store::FlowEventStore store;  // in memory; StoreOptions::dir makes it durable
  backend::Collector collector(net.simulator(), /*id=*/1000, channel, store);
  core::NetSeerConfig config;
  core::NetSeerApp app1(s1, config, &channel, collector.id());
  core::NetSeerApp app2(s2, config, &channel, collector.id());
  core::NetSeerNicAgent nic1, nic2;
  h1.set_nic_agent(&nic1);
  h2.set_nic_agent(&nic2);

  // 3. Traffic, then a silently lossy link — the failure mode operators
  //    hate most (§3.3: no counter anywhere will show these drops).
  const packet::FlowKey flow{h1.addr(), h2.addr(), 6, 40001, 443};
  for (int i = 0; i < 50; ++i) h1.send(packet::make_tcp(flow, 1000));
  net.simulator().run();

  net::LinkFaultModel faults;
  faults.drop_prob = 0.08;
  s1_to_s2->set_fault_model(faults);
  for (int i = 0; i < 500; ++i) h1.send(packet::make_tcp(flow, 1000));
  net.simulator().run();
  s1_to_s2->set_fault_model({});  // link heals
  for (int i = 0; i < 50; ++i) h1.send(packet::make_tcp(flow, 1000));

  // 4. Drain and flush so all events reach the backend.
  net.simulator().run();
  app1.flush();
  app2.flush();
  net.simulator().run();

  // 5. Query the backend like an operator would (Fig. 2 step 4).
  std::printf("link silently dropped %llu packets\n",
              static_cast<unsigned long long>(s1_to_s2->packets_dropped()));

  backend::EventQuery by_flow;
  by_flow.flow = flow;
  std::uint64_t recovered = 0;
  for (const auto& stored : store.scan(by_flow)) {
    if (stored.event.type == core::EventType::kDrop) recovered += stored.event.counter;
  }
  std::printf("NetSeer reported %llu drops for flow %s\n",
              static_cast<unsigned long long>(recovered), flow.to_string().c_str());

  backend::EventQuery by_device;
  by_device.switch_id = s1.id();
  std::size_t at_s1 = 0;
  for (auto cursor = store.scan(by_device); cursor.next() != nullptr;) ++at_s1;
  std::printf("events attributed to upstream switch '%s': %zu\n", s1.name().c_str(), at_s1);

  std::printf("%s\n", recovered == s1_to_s2->packets_dropped()
                          ? "=> every silent drop recovered, with full flow identity"
                          : "=> MISMATCH (unexpected)");
  return recovered == s1_to_s2->packets_dropped() ? 0 : 1;
}
