// Microbenchmark for the discrete-event engine hot path. A fixed amount
// of simulated work — packet hop chains riding the packet pool exactly
// like net::Link / net::TxPort hops, self-rescheduling timers, and
// periodic tasks with occasional cancel/re-arm — runs to a fixed virtual
// time while the wall clock measures it. Fixing simulated time makes the
// event count deterministic, so events/sec comparisons across engine
// versions measure the engine alone, and the count doubles as a
// determinism check across reps.
//
//   bench_engine --duration-ms 500 --reps 5
//
// The run exits 1 if two reps process different event counts. Wall time
// is min-over-reps: the minimum is the run least disturbed by the
// machine, which is the right estimator for throughput.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "experiment.h"
#include "packet/builder.h"
#include "packet/pool.h"
#include "sim/simulator.h"
#include "table.h"
#include "telemetry/collect.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

// The churn mix: 1024 packets forever in flight (each hop re-schedules
// the next), 512 one-shot timers that re-arm themselves, 128 periodics
// that the timers occasionally cancel and replace. The population and
// delays model a loaded testbed: ~1.7k pending events, hop delays of
// 16 ns – 8.2 us (store-and-forward serialization across link speeds),
// timers an order of magnitude further out so many ride the overflow
// heap. Packet hops are ~83% of events — in a loaded run nearly every
// event carries a frame across link -> switch -> link — with the same
// capture sizes as the real hops.
struct EngineBench {
  sim::Simulator sim;
  std::uint64_t state = 99;  // deterministic LCG, independent of util::Rng
  std::uint64_t hops = 0;
  std::vector<sim::TaskHandle> periodics;

  std::uint64_t rnd() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }

  static packet::Packet make_packet() {
    packet::Packet pkt;
    pkt.uid = packet::next_packet_uid();
    pkt.ip = packet::Ipv4Header{};
    pkt.ip->ttl = 64;
    pkt.l4.sport = 1234;
    pkt.l4.dport = 80;
    pkt.payload_bytes = 1000;
    return pkt;
  }

  void hop(packet::PooledPacket slot) {
    ++hops;
    slot->l4.seq = static_cast<std::uint32_t>(64 + (rnd() & 1023));
    slot->meta.enqueue_time = sim.now();
    // Identical shape to Link::send: this + the frame's pool handle, 24 B
    // inline, handed on without a copy.
    (void)sim.schedule_after(static_cast<util::SimDuration>(16 * (1 + (rnd() % 512))),
                             [this, slot = std::move(slot)]() mutable { hop(std::move(slot)); });
  }

  void timer_fire(std::uint32_t idx) {
    const auto r = rnd();
    if ((r & 1023u) == 0 && !periodics.empty()) {
      const std::size_t victim = r % periodics.size();
      periodics[victim].cancel();
      periodics[victim] = sim.schedule_every(
          static_cast<util::SimDuration>(16 * (128 + (rnd() % 512))), [this] { rnd(); });
    }
    (void)sim.schedule_after(static_cast<util::SimDuration>(16 * (64 + (r % 2048))),
                       [this, idx] { timer_fire(idx); });
  }

  void setup() {
    for (int i = 0; i < 1024; ++i) {
      (void)sim.schedule_at(static_cast<util::SimTime>(rnd() % 1024),
                            [this, slot = packet::Pool::local().acquire(make_packet())]() mutable {
                              hop(std::move(slot));
                            });
    }
    for (std::uint32_t i = 0; i < 512; ++i) {
      (void)sim.schedule_at(static_cast<util::SimTime>(rnd() % 1024), [this, i] { timer_fire(i); });
    }
    for (int i = 0; i < 128; ++i) {
      periodics.push_back(sim.schedule_every(
          static_cast<util::SimDuration>(16 * (128 + (rnd() % 512))), [this] { rnd(); }));
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 1000;
  int reps = 5;
  ExperimentOptions cli{"Engine microbench — events/sec on the simulator hot path"};
  cli.flag("duration-ms", &duration_ms, "simulated time per rep")
      .flag("reps", &reps, "take the best wall time over this many reps")
      .parse(argc, argv);
  if (duration_ms < 1) duration_ms = 1;
  if (reps < 1) reps = 1;

  print_title("Event-engine microbench (fixed simulated work, min-wall over reps)");

  std::uint64_t events = 0;
  std::uint64_t heap_allocs = 0;
  double best_wall = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    EngineBench bench;
    bench.setup();
    const auto start = std::chrono::steady_clock::now();
    bench.sim.run_until(util::milliseconds(duration_ms));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    if (rep == 0) {
      events = bench.sim.events_processed();
    } else if (bench.sim.events_processed() != events) {
      std::fprintf(stderr,
                   "non-deterministic run: rep %d processed %llu events, rep 0 %llu\n", rep,
                   static_cast<unsigned long long>(bench.sim.events_processed()),
                   static_cast<unsigned long long>(events));
      return 1;
    }
    heap_allocs = bench.sim.task_heap_allocs();
    if (best_wall < 0 || wall < best_wall) best_wall = wall;
    if (cli.metrics_enabled()) {
      // Gauges max-merge, so the folded snapshot keeps the best rep.
      telemetry::collect(cli.registry(), bench.sim, wall);
    }
    std::printf("  rep %d: wall %.3fs (%.2fM events/s)\n", rep, wall,
                static_cast<double>(events) / wall / 1e6);
  }

  const double best_eps = static_cast<double>(events) / best_wall;
  const auto& pool = packet::Pool::local();
  const double hit_rate =
      pool.acquires() > 0
          ? static_cast<double>(pool.reuses()) / static_cast<double>(pool.acquires())
          : 0.0;
  std::printf("\n  events            %llu (%d ms simulated)\n",
              static_cast<unsigned long long>(events), duration_ms);
  std::printf("  best wall         %.3f s\n", best_wall);
  std::printf("  events/sec        %.0f\n", best_eps);
  std::printf("  task heap allocs  %llu (%.2f ppm of schedules)\n",
              static_cast<unsigned long long>(heap_allocs),
              1e6 * static_cast<double>(heap_allocs) / static_cast<double>(events));
  std::printf("  pool hit rate     %.1f%%\n", 100.0 * hit_rate);
  return cli.write_metrics();
}
