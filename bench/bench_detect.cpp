// Streaming-detection microbench: tail-and-detect throughput — events
// flowing store -> subscription -> window engines -> detectors ->
// alert pipeline, with ingest and pump interleaved the way a service
// pumped on a simulator timer runs.
//
//   bench_detect --events 2000000 --reps 3
//
// The run exits 1 when the subscription ends a rep lagged or short of
// the final LSN (bounded-lag claim), when the detectors close zero
// windows (the bench would be measuring an idle pipeline), or, from
// 100k events, when the injected mid-stream burst raises no alert. A
// second phase repeats the interleave against a WAL-backed store for
// the durable-tail number.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "detect/service.h"
#include "experiment.h"
#include "store/store.h"
#include "table.h"
#include "telemetry/collect.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

// Deterministic steady-state event mix: 64 switches x 64 flows each
// (4096 window keys), monotone detected_at at 100ns spacing so the 1ms
// default window closes every ~10k events. Counters stay small enough
// that no per-flow window crosses the drop-burst threshold and the
// congestion rate per device is exactly constant — the shipped rules
// see a healthy fabric, which is what a tail keeps up with for weeks.
// One 4000-event burst at the stream's midpoint hammers a single flow
// with large drop counters: the alert pipeline must raise (and later
// resolve) against it, proving the bench drives the full path and not
// an idle filter.
struct EventGen {
  std::uint64_t burst_begin, burst_end;
  std::uint64_t state = 7;
  std::uint64_t rnd() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  core::FlowEvent next(std::uint64_t i) {
    const auto r = rnd();
    const auto t = static_cast<util::SimTime>(i * 100);
    if (i >= burst_begin && i < burst_end && i % 2 == 0) {
      packet::FlowKey hot{packet::Ipv4Addr::from_octets(10, 7, 7, 1),
                          packet::Ipv4Addr::from_octets(10, 128, 7, 2), 6, 7777, 80};
      auto ev = core::make_event(core::EventType::kDrop, hot, 7, t);
      ev.counter = 50;
      return ev;
    }
    if (i % 5 == 0) {
      // Exactly one congestion event per device per 32us: constant rate
      // by construction, so the CUSUM/EWMA device rules stay quiet.
      const auto sw = static_cast<util::NodeId>((i / 5) % 64);
      packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, sw, 1),
                           packet::Ipv4Addr::from_octets(10, 128, sw, 2), 6, 5000, 80};
      return core::make_event(core::EventType::kCongestion, flow, sw, t);
    }
    const auto sw = static_cast<util::NodeId>(r % 64);
    const auto fl = static_cast<std::uint16_t>((r >> 8) & 63);
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, sw, 1),
                         packet::Ipv4Addr::from_octets(10, 128, fl, 2), 6,
                         static_cast<std::uint16_t>(1024 + fl), 80};
    auto ev = core::make_event(core::EventType::kDrop, flow, sw, t);
    ev.counter = static_cast<std::uint16_t>(1 + (r & 1));
    return ev;
  }
};

struct RepResult {
  double wall = 0;             // ingest + pump + finish, one clock
  std::uint64_t windows = 0;   // non-empty windows closed across engines
  std::uint64_t raised = 0;    // alerts raised
  std::uint64_t last_lsn = 0;  // subscription cursor after the final pump
  std::uint64_t lagged = 0;    // rows evicted before delivery (must be 0)
};

/// One tail-and-detect rep: feed pre-generated events through add_batch
/// in `chunk`-sized slices, pumping the service after every slice — the
/// store and the detection tier share the clock, like production.
RepResult tail_detect_run(store::FlowEventStore& fs, std::span<const core::FlowEvent> pregen,
                          std::uint64_t chunk) {
  detect::DetectService service(fs);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t events = pregen.size();
  for (std::uint64_t off = 0; off < events; off += chunk) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(chunk, events - off));
    fs.add_batch(pregen.subspan(off, n), pregen[off].detected_at + 50);
    service.pump();
  }
  (void)fs.sync();
  service.pump();  // rows the final sync made visible
  service.finish();
  RepResult r;
  r.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (const auto& engine : service.engines()) r.windows += engine.stats().windows_closed;
  r.raised = service.alerts().stats().raised;
  r.last_lsn = service.subscription().last_lsn();
  r.lagged = service.subscription().lagged();
  return r;
}

/// The bounded-lag claim, asserted per rep: after the final pump the
/// subscription has consumed every LSN the store assigned and lost none
/// to retention. A lagging detection tier is a correctness bug here,
/// not a slow run.
bool check_drained(const char* phase, const RepResult& r, std::uint64_t events) {
  if (r.last_lsn == events && r.lagged == 0) return true;
  std::fprintf(stderr, "FAIL: %s rep ended lagged (last LSN %llu of %llu, %llu evicted)\n",
               phase, static_cast<unsigned long long>(r.last_lsn),
               static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(r.lagged));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  int reps = 3;
  std::uint64_t chunk = 8192;
  ExperimentOptions cli{"Detection microbench — tail-and-detect events/sec and lag"};
  cli.flag("events", &events, "events per rep")
      .flag("reps", &reps, "take the best rate over this many reps")
      .flag("chunk", &chunk, "events per add_batch/pump interleave step")
      .parse(argc, argv);
  if (events < 1) events = 1;
  if (reps < 1) reps = 1;
  if (chunk < 1) chunk = 1;

  print_title("Streaming-detection microbench");

  std::vector<core::FlowEvent> pregen;
  pregen.reserve(events);
  {
    EventGen gen{events / 2, events / 2 + std::min<std::uint64_t>(4000, events / 2)};
    for (std::uint64_t i = 0; i < events; ++i) pregen.push_back(gen.next(i));
  }

  // Phase 1: in-memory tail-and-detect. Measures the detection tier
  // itself (windowing, detectors, alert state machine)
  // with the store's ingest cost but no WAL in the loop.
  double best_mem = -1.0;
  RepResult best_mem_rep;
  for (int rep = 0; rep < reps; ++rep) {
    store::FlowEventStore fs;
    const RepResult r = tail_detect_run(fs, pregen, chunk);
    if (!check_drained("mem", r, events)) return 1;
    const double eps = static_cast<double>(events) / r.wall;
    std::printf("  mem tail-detect rep %d: %.3fs (%.2fM events/s, %llu windows, %llu alerts)\n",
                rep, r.wall, eps / 1e6, static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.raised));
    if (eps > best_mem) {
      best_mem = eps;
      best_mem_rep = r;
    }
  }
  if (best_mem_rep.windows == 0) {
    std::fprintf(stderr, "FAIL: detectors closed zero windows — idle pipeline measured\n");
    return 1;
  }
  if (events >= 100'000 && best_mem_rep.raised == 0) {
    std::fprintf(stderr, "FAIL: the injected burst raised no alert — dead detection path\n");
    return 1;
  }

  // Phase 2: the same interleave over a group-commit durable store.
  // Its rate is informational (disk variance is the WAL's), but the lag
  // assertion still holds: durability must not make the tail fall
  // behind.
  const auto dir = std::filesystem::temp_directory_path() / "netseer_bench_detect";
  double best_wal = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::filesystem::remove_all(dir);
    store::StoreOptions options;
    options.dir = dir.string();
    options.shard_batch = 2048;
    options.writer_queue = 128;
    store::FlowEventStore fs(options);
    const RepResult r = tail_detect_run(fs, pregen, chunk);
    if (!check_drained("wal", r, events)) return 1;
    const double eps = static_cast<double>(events) / r.wall;
    std::printf("  wal tail-detect rep %d: %.3fs (%.2fM events/s, %llu windows, %llu alerts)\n",
                rep, r.wall, eps / 1e6, static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.raised));
    if (eps > best_wal) best_wal = eps;
  }
  std::filesystem::remove_all(dir);

  std::printf("  tail-detect mem   %.2fM events/s (%llu windows, %llu alerts, lag 0)\n",
              best_mem / 1e6, static_cast<unsigned long long>(best_mem_rep.windows),
              static_cast<unsigned long long>(best_mem_rep.raised));
  std::printf("  tail-detect wal   %.2fM events/s (group-commit durable store)\n",
              best_wal / 1e6);

  if (cli.metrics_enabled()) {
    auto& reg = cli.registry();
    reg.gauge("bench_detect", "tail_detect_mem_eps")
        .update_max(static_cast<std::int64_t>(best_mem));
    reg.gauge("bench_detect", "tail_detect_wal_eps")
        .update_max(static_cast<std::int64_t>(best_wal));
    reg.gauge("bench_detect", "windows_closed")
        .update_max(static_cast<std::int64_t>(best_mem_rep.windows));
    reg.gauge("bench_detect", "alerts_raised")
        .update_max(static_cast<std::int64_t>(best_mem_rep.raised));
    reg.gauge("bench_detect", "final_lag_rows").set(0);
  }

  return cli.write_metrics();
}
