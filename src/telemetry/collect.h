#pragma once

#include "telemetry/metrics.h"

namespace netseer::pdp {
class Switch;
class ResourceModel;
}
namespace netseer::core {
class NetSeerApp;
}
namespace netseer::backend {
class Collector;
}
namespace netseer::store {
class FlowEventStore;
}
namespace netseer::detect {
class DetectService;
}
namespace netseer::sim {
class Simulator;
}

namespace netseer::telemetry {

/// Fold one component's introspection counters into `registry`, keyed by
/// (subsystem, name, node). Counter collection is ADDITIVE and gauge
/// high-water collection is MAX-merging, so collecting several fresh
/// harness runs (one per workload, say) into one registry accumulates
/// totals instead of overwriting.

/// Subsystem "pdp": per-reason drops (incl. mmu.drops), per-queue
/// enqueue/drop/occupancy-peak, per-stage table hits, PFC generation,
/// port totals. Node = the switch's id.
void collect(Registry& registry, const pdp::Switch& sw);

/// Subsystem "pdp": per-resource-class chip utilization in basis points
/// (gauge, max-merged) and overflow counters — the number of times a
/// component pushed a resource class past 100% of the chip. The series
/// "resources.overflows" is always present so smoke runs can assert it
/// is zero. Node = the owning switch's id.
void collect(Registry& registry, const pdp::ResourceModel& model, util::NodeId node);

/// Subsystem "core": group-cache hit/miss/evict, ring-buffer (event
/// stack) high-water & overflow, CEBP recirculations, PCIe bytes,
/// switch-CPU batch sizes & FP elimination, reliable-channel
/// retransmits/acks, funnel byte accounting. Node = the switch's id.
void collect(Registry& registry, const core::NetSeerApp& app);

/// Subsystem "backend": segments/events ingested, duplicates removed,
/// reorder-window drops.
void collect(Registry& registry, const backend::Collector& collector);

/// Subsystem "store": the durable store's lifecycle counters — ingest
/// (events appended, batches flushed), WAL traffic (records/bytes/syncs,
/// files GC'd, injected append failures), segment lifecycle (sealed,
/// compactions, evicted), query-engine work (queries, segments
/// scanned/pruned, index hits, full scans, rows examined/matched) — plus
/// population gauges store.events / store.segments.
void collect(Registry& registry, const store::FlowEventStore& store);

/// Subsystem "detect": the anomaly-detection service — rows pumped,
/// subscription health (delivered/lagged, last LSN), per-engine window
/// lifecycle (closed/empty/late, active keys), and the alert pipeline
/// (raised/reopened/escalated/resolved/active). The series
/// "detect.alerts.active" and "detect.rows_lagged" are always present so
/// smoke runs can assert them.
void collect(Registry& registry, const detect::DetectService& service);

/// Subsystem "sim": events processed, virtual time, wall-clock cost per
/// simulated second (pass the wall time the caller measured), engine
/// throughput (sim.events_per_sec), Task heap-spill rate
/// (sim.alloc_per_event_ppm, parts per million of schedules), and packet
/// pool recycling (sim.pool.hit_rate_bps / sim.pool.slots).
void collect(Registry& registry, const sim::Simulator& sim, double wall_seconds);

}  // namespace netseer::telemetry
