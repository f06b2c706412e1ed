// Flow-event store microbench: ingest throughput (in-memory and
// group-commit durable), plus the query engine's index/pruning behaviour
// over a sealed store.
//
//   bench_store --events 2000000 --reps 3
//
// The run exits 1 when the final group-commit sync() leaves events
// outside the durable watermark, when the query phase's time-windowed
// queries prune no segment (the whole point of the per-segment time
// fences), or when a group-commit phase of at least 64 x
// --gc-shard-batch events never covered more than one batch with one
// fsync. The rates land in the --metrics-out snapshot.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "experiment.h"
#include "store/store.h"
#include "table.h"
#include "telemetry/collect.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

// Deterministic event mix: kSwitches switches, 4096 flows, monotonically
// increasing detected_at so segments get disjoint time fences (the
// realistic shape — events arrive roughly in detection order).
constexpr std::uint64_t kSwitches = 64;

struct EventGen {
  std::uint64_t state = 7;
  std::uint64_t rnd() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  core::FlowEvent next(std::uint64_t i) {
    const auto r = rnd();
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, (r >> 8) & 15, (r >> 4) & 255, 1),
                         packet::Ipv4Addr::from_octets(10, 128, (r >> 12) & 255, 2), 6,
                         static_cast<std::uint16_t>(1024 + (r & 4095)), 80};
    auto ev = core::make_event(
        r % 5 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
        static_cast<util::NodeId>(r % kSwitches), static_cast<util::SimTime>(i * 100));
    ev.counter = static_cast<std::uint16_t>(1 + (r % 50));
    return ev;
  }
};

double ingest_run(store::FlowEventStore& fs, std::uint64_t events) {
  EventGen gen;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const auto ev = gen.next(i);
    fs.add(ev, ev.detected_at + 50);
  }
  fs.flush();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The 2000-query time-window workload: narrow windows (span/256) over
/// the sealed store, every second one type-filtered.
std::size_t query_sweep(const store::FlowEventStore& fs, util::SimTime span, double* wall_out) {
  EventGen qgen;
  constexpr int kQueries = 2000;
  const auto start = std::chrono::steady_clock::now();
  std::size_t total_matches = 0;
  for (int q = 0; q < kQueries; ++q) {
    backend::EventQuery query;
    const auto r = qgen.rnd();
    const auto from = static_cast<util::SimTime>(r % static_cast<std::uint64_t>(span));
    query.since(from).until(from + span / 256);
    if (q % 2 == 0) query.of_type(core::EventType::kCongestion);
    for (auto cursor = fs.scan(query); cursor.next() != nullptr;) ++total_matches;
  }
  *wall_out = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return total_matches;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  int reps = 3;
  std::uint64_t gc_shard_batch = 2048;
  std::uint64_t gc_chunk = 2048;
  ExperimentOptions cli{"Store microbench — ingest events/sec and query pruning"};
  cli.flag("events", &events, "events per ingest rep")
      .flag("reps", &reps, "take the best rate over this many reps")
      .flag("gc-shard-batch", &gc_shard_batch, "shard batch for the group-commit phase")
      .flag("gc-chunk", &gc_chunk, "add_batch chunk size for the group-commit phase")
      .parse(argc, argv);
  if (events < 1) events = 1;
  if (reps < 1) reps = 1;
  if (gc_chunk < 1) gc_chunk = 1;

  print_title("Flow-event store microbench");

  // Phase 1: in-memory ingest (shard buffers -> memtable -> seal ->
  // compaction, no WAL), per-event add().
  double best_mem = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    store::FlowEventStore fs;
    const double wall = ingest_run(fs, events);
    const double eps = static_cast<double>(events) / wall;
    std::printf("  mem ingest rep %d: %.3fs (%.2fM events/s, %zu segments)\n", rep, wall,
                eps / 1e6, fs.segment_count());
    if (eps > best_mem) best_mem = eps;
  }

  // Phase 2: group-commit durable ingest — the batch-first API fed
  // pre-generated events (the clock sees the store, not the generator),
  // acknowledged ONLY by the durable watermark: no inline fsync, one
  // blocking sync() at the end, and the run fails unless every event is
  // inside the watermark afterwards.
  const auto dir = std::filesystem::temp_directory_path() / "netseer_bench_store";
  std::vector<core::FlowEvent> pregen;
  pregen.reserve(events);
  {
    EventGen gen;
    for (std::uint64_t i = 0; i < events; ++i) pregen.push_back(gen.next(i));
  }
  double best_gc = -1.0;
  std::uint64_t gc_groups = 0, gc_max_group = 0, gc_queue_waits = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::filesystem::remove_all(dir);
    store::StoreOptions options;
    options.dir = dir.string();
    options.shard_batch = gc_shard_batch;
    options.writer_queue = 128;
    options.wal_segment_bytes = 16ull << 20u;
    store::FlowEventStore fs(options);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t off = 0; off < events; off += gc_chunk) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(gc_chunk, events - off));
      fs.add_batch(std::span<const core::FlowEvent>{pregen.data() + off, n},
                   pregen[off].detected_at + 50);
    }
    const bool synced = fs.sync();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!synced || fs.durable_watermark() < events) {
      std::fprintf(stderr, "FAIL: group-commit sync did not cover the run (watermark %llu)\n",
                   static_cast<unsigned long long>(fs.durable_watermark()));
      return 1;
    }
    const double eps = static_cast<double>(events) / wall;
    const auto& s = fs.stats();
    std::printf(
        "  gc  ingest rep %d: %.3fs (%.2fM events/s, %llu fsync groups, max %llu batches)\n",
        rep, wall, eps / 1e6, static_cast<unsigned long long>(s.groups_committed),
        static_cast<unsigned long long>(s.max_group_batches));
    if (cli.metrics_enabled()) telemetry::collect(cli.registry(), fs);
    if (eps > best_gc) {
      best_gc = eps;
      gc_groups = s.groups_committed;
      gc_max_group = s.max_group_batches;
      gc_queue_waits = s.writer_queue_waits;
    }
  }
  std::filesystem::remove_all(dir);
  // With enough events to fill each switch's shard batch (on average),
  // batches reach the writer while it syncs earlier ones, so some commit
  // group must hold more than one batch. Smaller runs hand most rows
  // over at the final sync, so the check skips them.
  if (events >= kSwitches * gc_shard_batch && gc_max_group <= 1) {
    std::fprintf(stderr, "FAIL: group commit never grouped fsyncs (max %llu batches/group)\n",
                 static_cast<unsigned long long>(gc_max_group));
    return 1;
  }

  // Phase 3: query engine over a sealed in-memory store. Narrow time
  // windows must prune most segments via the min/max fences.
  store::FlowEventStore fs;
  (void)ingest_run(fs, events);
  fs.seal_active();
  const util::SimTime span = static_cast<util::SimTime>(events) * 100;
  double serial_qwall = 0;
  const std::size_t serial_matches = query_sweep(fs, span, &serial_qwall);
  const auto& stats = fs.stats();
  std::printf("\n  queries           2000 time-windowed (%.0f/s), %zu matches\n",
              2000 / serial_qwall, serial_matches);
  std::printf("  segments          %zu; scanned %llu, pruned %llu (%.1f%% pruned)\n",
              fs.segment_count(), static_cast<unsigned long long>(stats.segments_scanned),
              static_cast<unsigned long long>(stats.segments_pruned),
              100.0 * static_cast<double>(stats.segments_pruned) /
                  static_cast<double>(stats.segments_scanned + stats.segments_pruned));
  if (stats.segments_pruned == 0) {
    std::fprintf(stderr, "FAIL: time-windowed queries pruned zero segments\n");
    return 1;
  }

  std::printf("  ingest mem        %.2fM events/s\n", best_mem / 1e6);
  std::printf("  ingest gc         %.2fM events/s (group commit, watermark acks, "
              "%llu groups, %llu queue waits)\n",
              best_gc / 1e6, static_cast<unsigned long long>(gc_groups),
              static_cast<unsigned long long>(gc_queue_waits));

  if (cli.metrics_enabled()) {
    telemetry::collect(cli.registry(), fs);
    auto& reg = cli.registry();
    reg.gauge("bench_store", "ingest_mem_eps").update_max(static_cast<std::int64_t>(best_mem));
    reg.gauge("bench_store", "ingest_gc_eps").update_max(static_cast<std::int64_t>(best_gc));
    reg.gauge("bench_store", "gc_fsync_groups")
        .update_max(static_cast<std::int64_t>(gc_groups));
    reg.gauge("bench_store", "gc_max_group_batches")
        .update_max(static_cast<std::int64_t>(gc_max_group));
    reg.gauge("bench_store", "query_serial_per_sec")
        .update_max(static_cast<std::int64_t>(2000 / serial_qwall));
  }

  return cli.write_metrics();
}
