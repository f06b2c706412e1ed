#include "telemetry/collect.h"

#include <string>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "packet/pool.h"
#include "pdp/resources.h"
#include "pdp/switch.h"
#include "detect/service.h"
#include "sim/simulator.h"
#include "store/store.h"

namespace netseer::telemetry {

namespace {
constexpr std::string_view kPdp = "pdp";
constexpr std::string_view kCore = "core";
constexpr std::string_view kBackend = "backend";
constexpr std::string_view kStore = "store";
constexpr std::string_view kDetect = "detect";
constexpr std::string_view kSim = "sim";
}  // namespace

void collect(Registry& registry, const pdp::Switch& sw) {
  const util::NodeId node = sw.id();

  // Drops, by reason plus the headline MMU series.
  registry.counter(kPdp, "mmu.drops", node).add(sw.drops(pdp::DropReason::kCongestion));
  for (const auto reason :
       {pdp::DropReason::kRouteMiss, pdp::DropReason::kPortDown, pdp::DropReason::kAclDeny,
        pdp::DropReason::kTtlExpired, pdp::DropReason::kMtuExceeded,
        pdp::DropReason::kParserError, pdp::DropReason::kCongestion}) {
    const auto count = sw.drops(reason);
    if (count == 0) continue;
    registry.counter(kPdp, std::string("drops.") + pdp::to_string(reason), node).add(count);
  }
  registry.counter(kPdp, "hardware_discards", node).add(sw.hardware_discards());

  // Per-stage table hits.
  const auto& stages = sw.stages();
  registry.counter(kPdp, "stage.parsed", node).add(stages.parsed);
  registry.counter(kPdp, "stage.lpm_hits", node).add(stages.lpm_hits);
  registry.counter(kPdp, "stage.lpm_misses", node).add(stages.lpm_misses);
  registry.counter(kPdp, "stage.acl_evaluated", node).add(stages.acl_evaluated);
  registry.counter(kPdp, "stage.acl_denied", node).add(stages.acl_denied);
  registry.counter(kPdp, "stage.ecn_marked", node).add(stages.ecn_marked);

  // Per-queue-class counters (only classes that saw traffic).
  for (util::QueueId q = 0; q < util::kNumQueues; ++q) {
    const auto& qc = sw.queue_counters(q);
    if (qc.enqueues == 0 && qc.drops == 0) continue;
    const std::string prefix = "queue." + std::to_string(q);
    registry.counter(kPdp, prefix + ".enqueues", node).add(qc.enqueues);
    registry.counter(kPdp, prefix + ".drops", node).add(qc.drops);
    registry.gauge(kPdp, prefix + ".peak_bytes", node).update_max(qc.peak_bytes);
  }

  // Port totals (aggregated: per-port series would explode the snapshot).
  std::uint64_t rx_packets = 0, rx_bytes = 0, fcs = 0, egress_drops = 0;
  for (util::PortId p = 0; p < sw.config().num_ports; ++p) {
    const auto& c = sw.counters(p);
    rx_packets += c.rx_packets;
    rx_bytes += c.rx_bytes;
    fcs += c.rx_fcs_errors;
    egress_drops += c.egress_drops;
  }
  registry.counter(kPdp, "port.rx_packets", node).add(rx_packets);
  registry.counter(kPdp, "port.rx_bytes", node).add(rx_bytes);
  registry.counter(kPdp, "port.rx_fcs_errors", node).add(fcs);
  registry.counter(kPdp, "port.egress_drops", node).add(egress_drops);

  // PFC generation from the MMU's ingress accounting.
  const auto& mmu = sw.mmu();
  registry.counter(kPdp, "mmu.pfc_pauses", node).add(mmu.pauses_generated());
  registry.counter(kPdp, "mmu.pfc_resumes", node).add(mmu.resumes_generated());
  registry.gauge(kPdp, "mmu.ingress_peak_bytes", node).update_max(mmu.peak_ingress_bytes());
}

void collect(Registry& registry, const pdp::ResourceModel& model, util::NodeId node) {
  std::uint64_t overflow_total = 0;
  for (std::size_t i = 0; i < pdp::kNumResources; ++i) {
    const auto resource = static_cast<pdp::Resource>(i);
    const std::string name = pdp::to_string(resource);
    // Utilization in basis points of the chip, unclamped: 10000 = full.
    registry.gauge(kPdp, "resources.usage_bp." + name, node)
        .update_max(static_cast<std::int64_t>(model.raw_total(resource) * 10000.0));
    const auto overflows = model.overflows(resource);
    overflow_total += overflows;
    if (overflows > 0) {
      registry.counter(kPdp, "resources.overflows." + name, node).add(overflows);
    }
  }
  // Always emitted, so "zero overflows" is assertable from a snapshot.
  registry.counter(kPdp, "resources.overflows", node).add(overflow_total);
}

void collect(Registry& registry, const core::NetSeerApp& app) {
  const util::NodeId node = app.switch_id();

  // Group caches (drop/congestion/pause/spare folded together).
  std::uint64_t hits = 0, misses = 0, evictions = 0, offered = 0, reports = 0;
  for (const auto type : {core::EventType::kDrop, core::EventType::kCongestion,
                          core::EventType::kPause, core::EventType::kPathChange}) {
    const auto& cache = app.cache(type);
    hits += cache.hits();
    misses += cache.misses();
    evictions += cache.evictions();
    offered += cache.offered();
    reports += cache.reports();
  }
  registry.counter(kCore, "group_cache.hits", node).add(hits);
  registry.counter(kCore, "group_cache.misses", node).add(misses);
  registry.counter(kCore, "group_cache.evictions", node).add(evictions);
  registry.counter(kCore, "group_cache.offered", node).add(offered);
  registry.counter(kCore, "group_cache.reports", node).add(reports);

  // Event stack — the bounded ring of register stages CEBPs pop from.
  const auto& stack = app.stack();
  registry.counter(kCore, "ring_buffer.pushes", node).add(stack.pushes());
  registry.counter(kCore, "ring_buffer.overflows", node).add(stack.overflows());
  registry.gauge(kCore, "ring_buffer.high_water", node)
      .update_max(static_cast<std::int64_t>(stack.high_watermark()));

  // CEBP recirculation loop.
  const auto& batcher = app.batcher();
  registry.counter(kCore, "cebp.recirculations", node).add(batcher.recirculations());
  registry.counter(kCore, "cebp.batches", node).add(batcher.batches_flushed());
  registry.counter(kCore, "cebp.events_batched", node).add(batcher.events_batched());

  // PCIe channel to the switch CPU.
  const auto& pcie = app.pcie();
  registry.counter(kCore, "pcie.bytes", node).add(pcie.bytes_submitted());
  registry.counter(kCore, "pcie.batches_submitted", node).add(pcie.batches_submitted());
  registry.counter(kCore, "pcie.batches_delivered", node).add(pcie.batches_delivered());
  registry.gauge(kCore, "pcie.backlog_high_water", node)
      .update_max(static_cast<std::int64_t>(pcie.high_watermark()));

  // Switch CPU: FP elimination + batch-size distribution.
  const auto& cpu = app.cpu();
  registry.counter(kCore, "cpu.events_received", node).add(cpu.events_received());
  registry.counter(kCore, "cpu.events_forwarded", node).add(cpu.events_forwarded());
  registry.counter(kCore, "cpu.reports_submitted", node).add(cpu.reports_submitted());
  registry.counter(kCore, "cpu.fp_eliminated", node).add(cpu.fp().eliminated());
  registry.histogram(kCore, "cpu.batch_size", node).merge(cpu.batch_sizes());

  // Reliable channel to the backend (absent in pipeline-only setups).
  if (app.has_reporter()) {
    const auto& reporter = app.reporter();
    registry.counter(kCore, "reliable.submitted", node).add(reporter.submitted());
    registry.counter(kCore, "reliable.segments_sent", node).add(reporter.segments_sent());
    registry.counter(kCore, "reliable.retransmits", node).add(reporter.retransmits());
    registry.counter(kCore, "reliable.acks", node).add(reporter.acked());
  }

  // Funnel byte accounting (Fig. 13's numerators) + capacity misses.
  const auto& funnel = app.funnel();
  registry.counter(kCore, "funnel.traffic_bytes", node).add(funnel.traffic_bytes);
  registry.counter(kCore, "funnel.traffic_packets", node).add(funnel.traffic_packets);
  registry.counter(kCore, "funnel.event_packets", node).add(funnel.event_packets);
  registry.counter(kCore, "funnel.dedup_reports", node).add(funnel.dedup_reports);
  registry.counter(kCore, "funnel.report_bytes", node).add(funnel.report_bytes);
  registry.counter(kCore, "funnel.notify_bytes", node).add(funnel.notify_bytes);
  registry.counter(kCore, "missed_mmu_redirects", node).add(app.missed_mmu_redirects());
  registry.counter(kCore, "missed_internal_port", node).add(app.missed_internal_port());
}

void collect(Registry& registry, const backend::Collector& collector) {
  const util::NodeId node = collector.id();
  registry.counter(kBackend, "segments_received", node).add(collector.segments_received());
  registry.counter(kBackend, "duplicate_segments", node).add(collector.duplicate_segments());
  registry.counter(kBackend, "events_ingested", node).add(collector.events_stored());
  registry.counter(kBackend, "window_drops", node).add(collector.window_dropped_segments());
}

void collect(Registry& registry, const store::FlowEventStore& flow_store) {
  const auto& s = flow_store.stats();
  registry.counter(kStore, "appended").add(s.appended);
  registry.counter(kStore, "batches_flushed").add(s.batches_flushed);
  registry.counter(kStore, "wal.records").add(s.wal_records);
  registry.counter(kStore, "wal.bytes").add(s.wal_bytes);
  registry.counter(kStore, "wal.syncs").add(s.wal_syncs);
  registry.counter(kStore, "wal.files_deleted").add(s.wal_files_deleted);
  registry.counter(kStore, "wal.append_failures").add(s.wal_append_failures);
  registry.counter(kStore, "group_commit.groups").add(s.groups_committed);
  registry.counter(kStore, "group_commit.batches").add(s.group_batches);
  registry.gauge(kStore, "group_commit.max_group_batches")
      .update_max(static_cast<std::int64_t>(s.max_group_batches));
  registry.counter(kStore, "group_commit.queue_waits").add(s.writer_queue_waits);
  registry.gauge(kStore, "durable_lsn")
      .update_max(static_cast<std::int64_t>(flow_store.durable_lsn()));
  registry.counter(kStore, "segments_sealed").add(s.segments_sealed);
  registry.counter(kStore, "compactions").add(s.compactions);
  registry.counter(kStore, "segments_compacted").add(s.segments_compacted);
  registry.counter(kStore, "segments_evicted").add(s.segments_evicted);
  registry.counter(kStore, "events_evicted").add(s.events_evicted);
  registry.counter(kStore, "query.queries").add(s.queries);
  registry.counter(kStore, "query.segments_scanned").add(s.segments_scanned);
  registry.counter(kStore, "query.segments_pruned").add(s.segments_pruned);
  registry.counter(kStore, "query.index_hits").add(s.index_hits);
  registry.counter(kStore, "query.full_segment_scans").add(s.full_segment_scans);
  registry.counter(kStore, "query.rows_examined").add(s.rows_examined);
  registry.counter(kStore, "query.rows_matched").add(s.rows_matched);
  registry.counter(kStore, "subscription.polls").add(s.subscription_polls);
  registry.counter(kStore, "subscription.rows").add(s.subscription_rows);
  registry.counter(kStore, "subscription.lagged_rows").add(s.subscription_lagged_rows);
  registry.gauge(kStore, "store.events")
      .update_max(static_cast<std::int64_t>(flow_store.size()));
  registry.gauge(kStore, "store.segments")
      .update_max(static_cast<std::int64_t>(flow_store.segment_count()));
}

void collect(Registry& registry, const detect::DetectService& service) {
  const auto& s = service.stats();
  registry.counter(kDetect, "rows").add(s.rows);
  registry.counter(kDetect, "pumps").add(s.pumps);
  registry.counter(kDetect, "checkpoints").add(s.checkpoints);
  registry.counter(kDetect, "rows_delivered").add(service.subscription().delivered());
  registry.counter(kDetect, "rows_lagged").add(service.subscription().lagged());
  registry.gauge(kDetect, "last_lsn")
      .update_max(static_cast<std::int64_t>(service.subscription().last_lsn()));
  registry.gauge(kDetect, "watermark_ns").update_max(service.watermark());

  std::uint64_t closed = 0;
  std::uint64_t empty = 0;
  std::uint64_t late = 0;
  std::uint64_t keys = 0;
  std::uint64_t recycled = 0;
  for (const auto& engine : service.engines()) {
    const auto& es = engine.stats();
    closed += es.windows_closed;
    empty += es.windows_empty;
    late += es.late_rows;
    keys += es.keys_active;
    recycled += es.keys_recycled;
  }
  registry.counter(kDetect, "windows_closed").add(closed);
  registry.counter(kDetect, "windows_empty").add(empty);
  registry.counter(kDetect, "rows_late").add(late);
  registry.counter(kDetect, "keys_recycled").add(recycled);
  registry.gauge(kDetect, "keys_active").update_max(static_cast<std::int64_t>(keys));

  const auto& a = service.alerts().stats();
  registry.counter(kDetect, "alerts.raised").add(a.raised);
  registry.counter(kDetect, "alerts.reopened").add(a.reopened);
  registry.counter(kDetect, "alerts.escalated").add(a.escalated);
  registry.counter(kDetect, "alerts.resolved").add(a.resolved);
  registry.gauge(kDetect, "alerts.active").update_max(static_cast<std::int64_t>(a.active));
}

void collect(Registry& registry, const sim::Simulator& sim, double wall_seconds) {
  registry.counter(kSim, "events_processed").add(sim.events_processed());
  registry.gauge(kSim, "virtual_time_ns").update_max(sim.now());
  registry.counter(kSim, "wall_time_us")
      .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
  const double sim_seconds = static_cast<double>(sim.now()) / 1e9;
  if (sim_seconds > 0) {
    registry.gauge(kSim, "wall_us_per_sim_s")
        .update_max(static_cast<std::int64_t>(wall_seconds * 1e6 / sim_seconds));
  }
  if (wall_seconds > 0) {
    registry.gauge(kSim, "events_per_sec")
        .update_max(static_cast<std::int64_t>(static_cast<double>(sim.events_processed()) /
                                              wall_seconds));
  }
  // Task captures that spilled past the inline buffer, in parts per
  // million of schedules. Zero on the intended hot paths; a rising value
  // points at an oversized capture somewhere.
  if (sim.tasks_scheduled() > 0) {
    registry.gauge(kSim, "alloc_per_event_ppm")
        .update_max(static_cast<std::int64_t>(sim.task_heap_allocs() * 1'000'000 /
                                              sim.tasks_scheduled()));
  }
  const auto& pool = packet::Pool::local();
  if (pool.acquires() > 0) {
    // Basis points, like the pdp resource-utilization gauges.
    registry.gauge(kSim, "pool.hit_rate_bps")
        .update_max(static_cast<std::int64_t>(pool.reuses() * 10'000 / pool.acquires()));
    registry.gauge(kSim, "pool.slots")
        .update_max(static_cast<std::int64_t>(pool.slots()));
  }
}

}  // namespace netseer::telemetry
