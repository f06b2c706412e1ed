#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/event_query.h"
#include "backend/event_sink.h"
#include "sim/simulator.h"
#include "store/segment.h"
#include "store/wal.h"
#include "util/annotations.h"
#include "util/thread_annotations.h"

namespace netseer::store {

class GroupCommitWriter;
class Subscription;

/// Tuning and placement knobs for FlowEventStore. An empty `dir` runs
/// the store fully in memory (same sharding/sealing/compaction
/// lifecycle, no WAL, no segment files) — the default for simulations;
/// a directory makes every ingested event durable.
struct StoreOptions {
  std::string dir;

  /// Per-switch ingest buffer: one WAL record (and one memtable append
  /// run) per `shard_batch` events from the same reporting switch.
  std::size_t shard_batch = 128;

  /// Seal the memtable into an immutable segment at this many rows.
  std::size_t segment_events = 4096;

  /// Compaction trigger/shape: once more than `compact_min_segments`
  /// are sealed, merge the `compact_fanin` oldest into one.
  std::size_t compact_min_segments = 8;
  std::size_t compact_fanin = 4;

  /// Retention budget over sealed rows; 0 keeps everything. Eviction
  /// drops whole oldest segments and counts every dropped event.
  std::uint64_t retain_events = 0;

  /// WAL file rotation threshold (smaller files = finer checkpointing).
  std::uint64_t wal_segment_bytes = 1ull << 20u;

  /// Make every flushed batch an fsync point (slower, smallest possible
  /// loss window). With the group-commit writer this means the ingest
  /// thread blocks on the durable watermark after every batch.
  bool sync_every_batch = false;

  /// Ignored: scan() always walks on the caller's thread. Kept only
  /// because the paper-path benchmark (perfbench/e2e.cpp) still assigns
  /// it; it goes once that assignment does.
  std::size_t query_threads = 1;

  /// Group-commit handoff depth, in shard batches. Ingest blocks
  /// (bounded memory) while this many wait for the writer thread.
  std::size_t writer_queue = 64;
};

/// Everything the store counts, exported via telemetry::collect. The
/// query-side counters live here too (a cursor over a const store still
/// accounts its pruning), hence the mutable registration in the store.
struct StoreStats {
  // Ingest.
  std::uint64_t appended = 0;
  std::uint64_t batches_flushed = 0;

  // Durability.
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_files_deleted = 0;
  std::uint64_t wal_append_failures = 0;

  // Group commit (the async writer thread).
  std::uint64_t groups_committed = 0;    // fsync rounds that advanced the watermark
  std::uint64_t group_batches = 0;       // shard batches through the writer
  std::uint64_t max_group_batches = 0;   // largest single commit group
  std::uint64_t writer_queue_waits = 0;  // times ingest blocked on a full handoff

  // Storage lifecycle.
  std::uint64_t segments_sealed = 0;
  std::uint64_t compactions = 0;
  std::uint64_t segments_compacted = 0;
  std::uint64_t segments_evicted = 0;
  std::uint64_t events_evicted = 0;

  // Query engine.
  std::uint64_t queries = 0;
  std::uint64_t segments_scanned = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t full_segment_scans = 0;
  std::uint64_t rows_examined = 0;
  std::uint64_t rows_matched = 0;

  // Subscriptions.
  std::uint64_t subscription_polls = 0;
  std::uint64_t subscription_rows = 0;         // rows delivered to subscribers
  std::uint64_t subscription_lagged_rows = 0;  // evicted before delivery
};

/// What opening a store directory found and replayed.
struct RecoveryInfo {
  bool ran = false;
  std::uint64_t segments_loaded = 0;
  std::uint64_t segments_corrupt = 0;
  /// Dropped because another segment's LSN range fully covers them —
  /// inputs of a compaction that crashed between rename and delete.
  std::uint64_t segments_superseded = 0;
  std::uint64_t segment_rows = 0;  // rows in the kept segments
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_rows_replayed = 0;
  std::uint64_t wal_rows_skipped = 0;  // already sealed into segments
  std::uint64_t wal_files_repaired = 0;  // torn tails truncated in place
  bool torn_tail = false;
  std::uint64_t max_lsn = 0;
};

class FlowEventStore;

/// Streaming view over one query's matches, in the store's total order
/// (LSN order for flushed rows, then append order for rows still in
/// shard buffers). The plan is fixed at construction: runs of rows in
/// LSN order — each sealed segment whose time fences overlap the query,
/// then the memtable — each walked along the shortest RowChains chain
/// the query's flow, switch or type names, or row by row when it names
/// none; a run whose chain is empty is pruned. Every visited row is
/// re-checked with EventQuery::matches, since chain buckets may mix
/// keys. Rows are filtered lazily as next() advances.
///
/// A cursor is valid only until the store is mutated (append, flush,
/// seal, compaction, retention): it snapshots the store's generation
/// counter and any use afterwards aborts with a diagnostic instead of
/// reading freed rows.
///
/// Range-for compatible: `for (const auto& stored : store.scan(q))`.
class QueryCursor {
 public:
  /// The next matching event, or nullptr when exhausted.
  [[nodiscard]] const backend::StoredEvent* next();

  /// Single-pass input iterator over next(). end() is a sentinel.
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = backend::StoredEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const backend::StoredEvent*;
    using reference = const backend::StoredEvent&;

    reference operator*() const { return *current_; }
    pointer operator->() const { return current_; }
    iterator& operator++() {
      current_ = cursor_->next();
      return *this;
    }
    [[nodiscard]] bool operator==(std::default_sentinel_t /*end*/) const {
      return current_ == nullptr;
    }

   private:
    friend class QueryCursor;
    iterator(QueryCursor* cursor, const backend::StoredEvent* current)
        : cursor_(cursor), current_(current) {}
    QueryCursor* cursor_ = nullptr;
    const backend::StoredEvent* current_ = nullptr;
  };

  [[nodiscard]] iterator begin() { return iterator(this, next()); }
  [[nodiscard]] std::default_sentinel_t end() const { return {}; }

 private:
  friend class FlowEventStore;
  /// One run of rows in LSN order and how to walk it: along `chain`,
  /// or every row when `chains` is null.
  struct RunPlan {
    const std::vector<Row>* rows = nullptr;
    const RowChains* chains = nullptr;
    RowChains::Chain chain;

    [[nodiscard]] std::uint32_t first() const {
      if (chains != nullptr) return chain.head;
      return rows->empty() ? RowChains::kEnd : 0;
    }
    [[nodiscard]] std::uint32_t after(std::uint32_t row) const {
      if (chains != nullptr) return chains->next(chain.key, row);
      return row + 1 < rows->size() ? row + 1 : RowChains::kEnd;
    }
  };

  QueryCursor(const FlowEventStore& store, const backend::EventQuery& query);

  /// Plan `rows` on the shortest chain the query names (`chains` is
  /// null when it names none); false when that chain is empty.
  bool plan_run(const std::vector<Row>& rows, const RowChains* chains);
  void start_run(std::size_t run);

  /// Abort (with a diagnostic) if the store mutated under this cursor.
  void check_generation() const;

  const FlowEventStore* store_ = nullptr;
  backend::EventQuery query_;
  std::uint64_t generation_ = 0;
  std::vector<RunPlan> runs_;
  // Matching shard-buffer rows, sorted by global append order.
  std::vector<std::pair<std::uint64_t, const backend::StoredEvent*>> pending_;
  std::size_t run_idx_ = 0;
  std::uint32_t row_ = RowChains::kEnd;  // next row of the current run
  std::size_t pending_idx_ = 0;
};

/// The durable, sharded flow-event store behind the backend collector:
/// per-switch batch buffers feed a CRC-framed write-ahead log, rows
/// accumulate in a memtable that seals into immutable time-partitioned
/// segments, background maintenance compacts and applies retention, and
/// queries walk row-chain indexes — kept by the memtable as it fills and
/// handed to the segment it seals into — instead of scanning.
class FlowEventStore final : public backend::EventSink {
 public:
  NETSEER_BLOCKING explicit FlowEventStore(StoreOptions options = {});
  NETSEER_BLOCKING ~FlowEventStore() override;

  FlowEventStore(const FlowEventStore&) = delete;
  FlowEventStore& operator=(const FlowEventStore&) = delete;

  // ---- Ingest ----------------------------------------------------------
  /// Append a batch through the per-switch shard buffers (the primary
  /// EventSink entry point; add() is the inherited one-element wrapper).
  void add_batch(std::span<const core::FlowEvent> events, util::SimTime now) override;

  /// Flush every shard buffer into the memtable and hand the rows to
  /// the group-commit writer (appended, not necessarily fsynced).
  void flush();

  /// flush() plus a blocking wait on the durable watermark: everything
  /// appended so far is acknowledged durable on return (in-memory
  /// stores trivially return true). False once the WAL is dead.
  [[nodiscard]] NETSEER_BLOCKING bool sync();

  /// Highest LSN known durable: the group-commit watermark, sealed
  /// durable segments, or explicit syncs — whichever is furthest.
  [[nodiscard]] std::uint64_t durable_lsn() const;
  [[nodiscard]] std::uint64_t durable_watermark() const override { return durable_lsn(); }

  // ---- Lifecycle -------------------------------------------------------
  // The maintenance entry points serialize on maint_mu_ (annotated,
  // enforced by the clang -Wthread-safety CI legs), so a background
  // maintenance thread could run compaction/retention/WAL-GC against
  // the ingest path without corrupting the segment-file bookkeeping.

  /// Seal the memtable into an immutable segment now (no-op when empty).
  void seal_active() NETSEER_EXCLUDES(maint_mu_);

  /// Merge the oldest segments while over the compaction threshold;
  /// returns the number of merges performed.
  NETSEER_BLOCKING std::size_t compact() NETSEER_EXCLUDES(maint_mu_);

  /// Enforce the retention budget; returns segments evicted.
  NETSEER_BLOCKING std::size_t enforce_retention() NETSEER_EXCLUDES(maint_mu_);

  /// One background maintenance round: compaction, retention, WAL GC.
  NETSEER_BLOCKING void maintain() NETSEER_EXCLUDES(maint_mu_);

  /// Clean shutdown / `netseer_store recover`: flush, seal, sync, and
  /// garbage-collect every WAL file made obsolete by sealed segments.
  NETSEER_BLOCKING void checkpoint() NETSEER_EXCLUDES(maint_mu_);

  /// Schedule maintain() every `interval` on `sim`. Cancel the returned
  /// handle before draining the simulation (a periodic task keeps the
  /// event queue alive).
  [[nodiscard]] sim::TaskHandle start_maintenance(sim::Simulator& sim,
                                                  util::SimDuration interval);

  // ---- Query -----------------------------------------------------------
  /// The query surface: build an EventQuery (aggregate or fluent),
  /// scan() it, iterate the cursor.
  [[nodiscard]] QueryCursor scan(const backend::EventQuery& query) const;

  /// Tail the durable watermark: a pull-model subscription delivering
  /// every matching row exactly once in LSN order, across flush, seal
  /// and compaction boundaries. `from_lsn` = deliver rows with LSN >
  /// from_lsn (0 replays everything still retained). The subscription
  /// must not outlive the store; a subscriber that stops polling never
  /// blocks ingest (rows it missed past retention count as lag).
  [[nodiscard]] Subscription subscribe(backend::EventQuery query = {},
                                       std::uint64_t from_lsn = 0) const;

  /// Rows held, wherever they are: segments, memtable, shard buffers.
  [[nodiscard]] std::size_t size() const;

  // ---- Introspection ---------------------------------------------------
  /// Refreshes the WAL/group-commit counters from the writer side.
  [[nodiscard]] const StoreStats& stats() const;
  /// Bumped by every mutation; open cursors assert it stayed put.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const RecoveryInfo& recovery() const { return recovery_; }
  [[nodiscard]] const StoreOptions& options() const { return options_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const std::vector<std::unique_ptr<Segment>>& segments() const {
    return segments_;
  }
  [[nodiscard]] bool durable() const { return !options_.dir.empty(); }

  // ---- Crash fault injection (recovery property tests) -----------------
  /// Let only `budget` more bytes reach the WAL, then tear it off
  /// mid-write — the store keeps running in memory as if the disk died.
  void crash_after_wal_bytes(std::uint64_t budget);
  [[nodiscard]] bool wal_dead() const { return wal_ && wal_->dead(); }

 private:
  friend class QueryCursor;
  friend class Subscription;

  struct Pending {
    backend::StoredEvent stored;
    std::uint64_t order = 0;  // global append sequence, pre-LSN
  };
  struct Shard {
    std::vector<Pending> rows;
  };

  void flush_shard(Shard& shard);
  NETSEER_BLOCKING void recover_from_dir() NETSEER_REQUIRES(maint_mu_);
  /// Save memory-only sealed segments to disk (full fsync discipline);
  /// returns segments persisted. Called from maintain()/checkpoint() so
  /// segment-file creation stays off the seal (ingest) path. Segments
  /// on disk are therefore always fully durable, which is what keeps
  /// recovery and the WAL-GC contiguity walk unchanged.
  NETSEER_BLOCKING std::size_t persist_segments_locked() NETSEER_REQUIRES(maint_mu_);

  // The _locked split of the maintenance entry points: the public
  // methods take maint_mu_ and delegate here, and composite rounds
  // (maintain, checkpoint) call these directly so the whole round runs
  // under one acquisition of the non-recursive mutex.
  NETSEER_BLOCKING std::size_t compact_locked() NETSEER_REQUIRES(maint_mu_);
  NETSEER_BLOCKING std::size_t enforce_retention_locked() NETSEER_REQUIRES(maint_mu_);
  /// Delete WAL files fully covered by sealed durable segments.
  NETSEER_BLOCKING void wal_gc_locked() NETSEER_REQUIRES(maint_mu_);
  /// Watermark for WAL GC: max LSN sealed into *durable* segments.
  [[nodiscard]] std::uint64_t sealed_durable_watermark_locked() const
      NETSEER_REQUIRES(maint_mu_);

  StoreOptions options_;
  std::unique_ptr<WalWriter> wal_;
  /// Declared after wal_ so it is destroyed (thread joined) first.
  std::unique_ptr<GroupCommitWriter> writer_;
  RecoveryInfo recovery_;
  mutable StoreStats stats_;  // query counters tick under const

  std::unordered_map<util::NodeId, Shard> shards_;
  std::uint64_t append_seq_ = 0;  // orders rows not yet assigned an LSN
  std::uint64_t next_lsn_ = 1;
  std::uint64_t durable_lsn_ = 0;
  std::uint64_t generation_ = 0;  // mutation counter for cursor validity

  std::vector<Row> memtable_;
  /// Indexes memtable_ as rows arrive; seal_active() hands it over.
  RowChains memtable_chains_;
  std::vector<std::unique_ptr<Segment>> segments_;  // oldest first (LSN order)

  /// Serializes the maintenance paths (seal/compact/retention/WAL-GC)
  /// and guards their segment-file bookkeeping. The memtable, shard
  /// buffers, and segments_ vector stay under the store's single-writer
  /// ingest contract (the simulator is single-threaded); this mutex is
  /// scoped to the state a background maintenance pass would touch.
  mutable util::Mutex maint_mu_;
  std::uint32_t next_segment_file_ NETSEER_GUARDED_BY(maint_mu_) = 1;
  /// Max LSN of evicted durable segments: the WAL-GC walk resumes here.
  std::uint64_t sealed_watermark_floor_ NETSEER_GUARDED_BY(maint_mu_) = 0;
};

/// Parse a compact query spec, shared by `netseer_sim --store-query` and
/// `netseer_store query`. Comma-separated key=value terms:
///
///   type=drop|congestion|path-change|pause|acl-drop
///   switch=<node id>
///   from=<ns>   to=<ns>        (detected_at window, to exclusive)
///   flow=<src>:<sport> ">" <dst>:<dport>/<proto>
///       e.g. flow=10.0.0.1:1234>10.0.0.2:80/6
///
/// Returns nullopt and fills `error` on a malformed spec.
[[nodiscard]] std::optional<backend::EventQuery> parse_query(const std::string& spec,
                                                             std::string* error = nullptr);

}  // namespace netseer::store
