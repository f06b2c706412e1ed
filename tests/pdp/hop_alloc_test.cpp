// The steady-state hop makes no heap allocation. This binary replaces
// the global operator new with a counting one, so it runs alone: every
// allocation in the process, from any library, is counted.
//
// host -> sw1 -> sw2 -> host with ground truth on both switches. Warm-up
// bursts teach ground truth the flows and take every ring, slab and free
// list to its high-water mark; the measured bursts then forward 10K more
// frames of the same flows, wrapping the TX rings, and may not allocate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "monitors/ground_truth.h"
#include "net/host.h"
#include "packet/builder.h"
#include "pdp/switch.h"

namespace {
std::uint64_t g_allocations = 0;  // the simulator is single-threaded

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace netseer::pdp {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

TEST(SteadyStateHop, ForwardsWithoutHeapAllocation) {
  sim::Simulator sim;
  const Ipv4Addr dst_addr = Ipv4Addr::from_octets(10, 0, 9, 1);
  // The hosts send at 100G into 40G switch ports, so every burst backs
  // up in the first switch's egress queue as well as in the sending NIC.
  net::Host src(sim, 10, "src", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(100));
  net::Host dst(sim, 11, "dst", dst_addr, util::BitRate::gbps(100));
  SwitchConfig config;
  config.num_ports = 2;
  config.port_rate = util::BitRate::gbps(40);
  Switch sw1(sim, 1, "sw1", config);
  Switch sw2(sim, 2, "sw2", config);
  // Queueing stays far below a second, so ground truth records no
  // congestion events, whose log would grow.
  monitors::GroundTruth truth(util::seconds(1));
  sw1.add_agent(&truth);
  sw2.add_agent(&truth);
  std::vector<std::unique_ptr<net::Link>> links;
  const auto cable = [&](net::Node& peer, util::NodeId from) {
    links.push_back(std::make_unique<net::Link>(sim, util::Rng(links.size() + 1), peer, 0,
                                                util::microseconds(1), from));
    return links.back().get();
  };
  src.set_uplink(cable(sw1, src.id()));
  sw1.connect(1, cable(sw2, sw1.id()));
  sw2.connect(1, cable(dst, sw2.id()));
  sw1.routes().insert(Ipv4Prefix{dst_addr, 32}, EcmpGroup{{1}});
  sw2.routes().insert(Ipv4Prefix{dst_addr, 32}, EcmpGroup{{1}});

  // 50 frames a burst: not a power of two, so the ring heads move around
  // the arrays from burst to burst.
  constexpr int kBurst = 50;
  constexpr int kFlows = 5;
  std::size_t peak_nic_depth = 0;
  const auto burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      src.send(packet::make_tcp(
          FlowKey{src.addr(), dst_addr, 6, static_cast<std::uint16_t>(1000 + i % kFlows), 80},
          500));
    }
    peak_nic_depth = std::max(peak_nic_depth, src.nic().queue_depth(0));
    sim.run();
  };

  for (int round = 0; round < 4; ++round) burst();
  const std::size_t truth_events = truth.events().size();
  const std::uint64_t before = g_allocations;
  constexpr int kRounds = 10000 / kBurst;
  for (int round = 0; round < kRounds; ++round) burst();
  const std::uint64_t allocations = g_allocations - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(dst.rx_packets(), static_cast<std::uint64_t>((4 + kRounds) * kBurst));
  EXPECT_EQ(truth.events().size(), truth_events);  // path events were all learned in warm-up
  EXPECT_EQ(sw1.total_drops() + sw2.total_drops(), 0u);
  // Both queues held more frames than a ring's first 16 slots.
  EXPECT_GT(peak_nic_depth, 16u);
  EXPECT_GT(sw1.queue_counters(0).peak_bytes, 16 * 558);  // 558-byte frames
}

}  // namespace
}  // namespace netseer::pdp
