// netseer_store — operate on a flow-event store directory offline:
// inspect, recover, compact, query, tail (a subscription demo that prints
// subscription health on exit) and gen (synthesize a deterministic store,
// optionally with a WAL torn mid-record, or mid-group through group
// commit). --help lists each command's arguments.
//
// `recover` is what an operator (or the CI recovery job) runs over a
// directory left behind by a crash: it replays the log to the last valid
// record, reports what was recovered and whether the tail was torn, and
// rewrites the directory into a clean checkpointed state. `inspect`,
// `query` and `tail` leave a clean directory as they found it, and a
// command line that does not parse exits 2 before anything is opened.
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "store/store.h"
#include "store/subscription.h"
#include "telemetry/collect.h"
#include "telemetry/snapshot.h"
#include "util/cli.h"
#include "util/parse.h"

using namespace netseer;

namespace {

void print_recovery(const store::FlowEventStore& fs) {
  const auto& r = fs.recovery();
  std::printf("recovery: %llu segments (%llu rows), %llu corrupt segment file(s)\n",
              static_cast<unsigned long long>(r.segments_loaded),
              static_cast<unsigned long long>(r.segment_rows),
              static_cast<unsigned long long>(r.segments_corrupt));
  std::printf("          WAL: %llu records replayed, %llu rows (%llu already sealed)%s\n",
              static_cast<unsigned long long>(r.wal_records_replayed),
              static_cast<unsigned long long>(r.wal_rows_replayed),
              static_cast<unsigned long long>(r.wal_rows_skipped),
              r.torn_tail ? ", TORN TAIL discarded" : "");
  if (r.segments_superseded > 0) {
    std::printf("          %llu superseded segment file(s) dropped (interrupted compaction)\n",
                static_cast<unsigned long long>(r.segments_superseded));
  }
  if (r.wal_files_repaired > 0) {
    std::printf("          %llu torn WAL file(s) truncated to their valid prefix\n",
                static_cast<unsigned long long>(r.wal_files_repaired));
  }
  std::printf("          max LSN %llu, %zu events live\n",
              static_cast<unsigned long long>(r.max_lsn), fs.size());
}

void print_segments(const store::FlowEventStore& fs) {
  std::printf("%zu segment(s):\n", fs.segment_count());
  for (const auto& seg : fs.segments()) {
    std::printf("  seg-%08u  %8zu rows  lsn [%llu, %llu]  time [%lld, %lld]\n",
                seg->file_id(), seg->size(),
                static_cast<unsigned long long>(seg->min_lsn()),
                static_cast<unsigned long long>(seg->max_lsn()),
                static_cast<long long>(seg->min_time()),
                static_cast<long long>(seg->max_time()));
  }
  std::printf("%zu WAL file(s):\n", store::list_wal_files(fs.options().dir).size());
  for (const auto& ref : store::list_wal_files(fs.options().dir)) {
    std::printf("  %s  %llu bytes\n", ref.path.c_str(),
                static_cast<unsigned long long>(ref.bytes));
  }
}

int cmd_query(const store::FlowEventStore& fs, const backend::EventQuery& query) {
  const auto scanned_before = fs.stats().segments_scanned;
  const auto pruned_before = fs.stats().segments_pruned;
  std::size_t matches = 0;
  auto cursor = fs.scan(query);
  while (const backend::StoredEvent* stored = cursor.next()) {
    const auto& ev = stored->event;
    if (matches < 50) {
      std::printf("t=%-14lld sw=%-6u %-12s %s x%u\n",
                  static_cast<long long>(ev.detected_at), ev.switch_id,
                  core::to_string(ev.type), ev.flow.to_string().c_str(), ev.counter);
    }
    ++matches;
  }
  if (matches > 50) std::printf("... and %zu more\n", matches - 50);
  std::printf("%zu event(s); %llu segment(s) scanned, %llu pruned\n", matches,
              static_cast<unsigned long long>(fs.stats().segments_scanned - scanned_before),
              static_cast<unsigned long long>(fs.stats().segments_pruned - pruned_before));
  return 0;
}

/// Stream every durable row after `from_lsn` through the subscription
/// API. On an offline directory one poll drains to the watermark; the
/// exit summary is the subscription-health block an online tailer would
/// watch: rows delivered, rows evicted into lag, and the last-delivered
/// LSN a checkpoint would persist as the resume point.
int cmd_tail(store::FlowEventStore& fs, std::uint64_t from_lsn,
             const std::string& metrics_out) {
  auto sub = fs.subscribe(backend::EventQuery{}, from_lsn);
  std::size_t shown = 0;
  while (sub.poll(
             [&](const backend::StoredEvent& stored, std::uint64_t lsn) {
               if (shown < 50) {
                 const auto& ev = stored.event;
                 std::printf("lsn=%-10llu t=%-14lld sw=%-6u %-12s %s x%u\n",
                             static_cast<unsigned long long>(lsn),
                             static_cast<long long>(ev.detected_at), ev.switch_id,
                             core::to_string(ev.type), ev.flow.to_string().c_str(), ev.counter);
               }
               ++shown;
             },
             4096) > 0) {
  }
  if (shown > 50) std::printf("... and %zu more\n", shown - 50);

  const std::uint64_t watermark = fs.durable_watermark();
  const std::uint64_t lag = watermark - sub.last_lsn();
  std::printf("subscription health:\n"
              "  rows delivered     %llu\n"
              "  rows evicted (lag) %llu\n"
              "  last-delivered LSN %llu (resume point)\n"
              "  durable watermark  %llu (%llu behind)\n",
              static_cast<unsigned long long>(sub.delivered()),
              static_cast<unsigned long long>(sub.lagged()),
              static_cast<unsigned long long>(sub.last_lsn()),
              static_cast<unsigned long long>(watermark),
              static_cast<unsigned long long>(lag));

  telemetry::Registry registry;
  telemetry::collect(registry, fs);
  registry.counter("store", "tail.rows_delivered").add(sub.delivered());
  registry.counter("store", "tail.rows_evicted").add(sub.lagged());
  registry.gauge("store", "tail.last_lsn").set(static_cast<std::int64_t>(sub.last_lsn()));
  registry.gauge("store", "tail.lag").set(static_cast<std::int64_t>(lag));
  return telemetry::write_metrics(registry, metrics_out);
}

/// Synthesize a deterministic store for fixtures and demos. With a torn
/// byte budget, the WAL is cut off mid-record partway through ingest and
/// the directory is left WITHOUT a clean shutdown — exactly the on-disk
/// state an ingest crash leaves behind. `group_commit` routes ingest
/// through add_batch with watermark-only acks, so the tear lands in the
/// middle of an open fsync group (the writer_crash fixture shape).
int cmd_gen(const std::string& dir, std::uint64_t events, long long torn_after,
            bool group_commit) {
  store::StoreOptions options;
  options.dir = dir;
  options.shard_batch = 16;
  options.sync_every_batch = !group_commit;
  // Torn mode keeps every row in the WAL (no sealing) so recovery has to
  // replay the log itself, not just reload sealed segments.
  options.segment_events = torn_after >= 0 ? events + 1 : 256;
  store::FlowEventStore fs(options);
  std::uint64_t state = 42;
  std::vector<core::FlowEvent> batch;
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    fs.add_batch(std::span<const core::FlowEvent>{batch.data(), batch.size()},
                 batch.back().detected_at + 50);
    batch.clear();
  };
  for (std::uint64_t i = 0; i < events; ++i) {
    if (torn_after >= 0 && i == events / 2) {
      flush_batch();
      fs.flush();
      fs.crash_after_wal_bytes(static_cast<std::uint64_t>(torn_after));
    }
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto r = state >> 33;
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, 1 + (r % 8)),
                         packet::Ipv4Addr::from_octets(10, 0, 1, 1 + (r % 16)), 6,
                         static_cast<std::uint16_t>(1024 + (r % 64)), 80};
    auto ev = core::make_event(
        r % 3 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
        static_cast<util::NodeId>(1 + (r % 4)), static_cast<util::SimTime>(i * 1000));
    ev.counter = static_cast<std::uint16_t>(1 + (r % 100));
    if (group_commit) {
      batch.push_back(ev);
      if (batch.size() == 64) flush_batch();
    } else {
      fs.add(ev, static_cast<util::SimTime>(i * 1000 + 50));
    }
  }
  flush_batch();
  if (torn_after >= 0) {
    // Crash path: flush through the dead WAL (tears the tail), then leak
    // nothing — the destructor skips the clean-shutdown sync on a dead
    // WAL, so the torn record stays on disk.
    fs.flush();
    std::printf("generated %llu events into %s with a torn WAL tail%s\n",
                static_cast<unsigned long long>(events), dir.c_str(),
                group_commit ? " (torn mid-group-commit)" : "");
  } else {
    fs.checkpoint();
    std::printf("generated %llu events into %s (%zu segments)\n",
                static_cast<unsigned long long>(events), dir.c_str(), fs.segment_count());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string metrics_out;
  util::CommandLine cli{
      "netseer_store — operate on a flow-event store directory offline.\n\n"
      "  inspect <dir>                      list segments, WAL files and recovery\n"
      "  recover <dir>                      replay the WAL, seal, checkpoint\n"
      "  compact <dir>                      force compaction, checkpoint\n"
      "  query <dir> <spec>                 run a query; spec is e.g. type=drop,switch=3,\n"
      "                                     from=0,to=1000000,flow=10.0.0.1:1234>10.0.0.2:80/6\n"
      "  tail <dir> [from-lsn]              stream every durable row after from-lsn\n"
      "  gen <dir> [events] [torn] [group]  synthesize a store; `torn` cuts the WAL after\n"
      "                                     that many bytes, `group` ingests through group\n"
      "                                     commit"};
  cli.flag("metrics-out", &metrics_out, "tail: write a JSON metrics snapshot on exit")
      .positionals(&args, "<command> <dir> [args]")
      .parse(argc, argv);

  // Check the whole command line before opening the store: opening
  // creates the directory, so a typo must not leave one behind.
  if (args.size() < 2) cli.fail("need a command and a store directory");
  const std::string& cmd = args[0];
  const std::string& dir = args[1];
  const std::size_t extra = args.size() - 2;
  if (!metrics_out.empty() && cmd != "tail") cli.fail("--metrics-out applies to tail only");

  if (cmd == "gen") {
    std::uint64_t events = 2000;
    long long torn = -1;
    if (extra > 3 || (extra > 0 && !util::parse_number(args[2], events)) ||
        (extra > 1 && !util::parse_number(args[3], torn)) || (extra > 2 && args[4] != "group")) {
      cli.fail("gen takes [events] [torn-after-bytes] [group]");
    }
    return cmd_gen(dir, events, torn, /*group_commit=*/extra > 2);
  }

  std::optional<backend::EventQuery> query;
  std::uint64_t from = 0;
  if (cmd == "query") {
    if (extra != 1) cli.fail("query takes one spec");
    std::string error;
    query = store::parse_query(args[2], &error);
    if (!query) cli.fail("bad query '" + args[2] + "': " + error);
  } else if (cmd == "tail") {
    if (extra > 1 || (extra == 1 && !util::parse_number(args[2], from))) {
      cli.fail("tail takes [from-lsn]");
    }
  } else if (cmd != "inspect" && cmd != "recover" && cmd != "compact") {
    cli.fail("unknown command '" + cmd + "'");
  } else if (extra != 0) {
    cli.fail(cmd + " takes no argument after the directory");
  }

  store::StoreOptions options;
  options.dir = dir;
  store::FlowEventStore fs(options);

  if (cmd == "inspect") {
    print_recovery(fs);
    print_segments(fs);
    return 0;
  }
  if (cmd == "recover") {
    print_recovery(fs);
    fs.checkpoint();
    std::printf("checkpointed: %zu segment(s), %zu events, durable LSN %llu\n",
                fs.segment_count(), fs.size(),
                static_cast<unsigned long long>(fs.durable_lsn()));
    return 0;
  }
  if (cmd == "compact") {
    const std::size_t merges = fs.compact();
    fs.checkpoint();
    std::printf("%zu merge(s); now %zu segment(s), %zu events\n", merges,
                fs.segment_count(), fs.size());
    return 0;
  }
  if (cmd == "query") return cmd_query(fs, *query);
  return cmd_tail(fs, from, metrics_out);
}
