#include "store/store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "packet/addr.h"
#include "store/subscription.h"
#include "store/writer.h"
#include "util/parse.h"

namespace netseer::store {

namespace fs = std::filesystem;

// ---- QueryCursor ---------------------------------------------------------

QueryCursor::QueryCursor(const FlowEventStore& event_store, const backend::EventQuery& query)
    : store_(&event_store), query_(query), generation_(event_store.generation_) {
  StoreStats& stats = store_->stats_;
  ++stats.queries;

  // A query that names no flow, switch or type is answered by full
  // walks, and must not make a compaction output build its index.
  const bool keyed = query_.flow || query_.switch_id || query_.type;
  for (const auto& segment : store_->segments_) {
    if (!segment->overlaps(query_.from, query_.to) ||
        !plan_run(segment->rows(), keyed ? &segment->chains() : nullptr)) {
      ++stats.segments_pruned;
      continue;
    }
    ++stats.segments_scanned;
    ++(keyed ? stats.index_hits : stats.full_segment_scans);
  }
  if (!store_->memtable_.empty()) {
    (void)plan_run(store_->memtable_, keyed ? &store_->memtable_chains_ : nullptr);
  }
  start_run(0);

  // Rows still in shard buffers come last, in global append order.
  // Shard iteration order is a hash-map artifact, so the matches are
  // sorted by the append sequence for determinism. A shard holds one
  // switch's rows, so a switch query filters only that shard.
  const auto filter = [&](const FlowEventStore::Shard& shard) {
    stats.rows_examined += shard.rows.size();
    for (const auto& pending : shard.rows) {
      if (query_.matches(pending.stored)) pending_.emplace_back(pending.order, &pending.stored);
    }
  };
  if (query_.switch_id) {
    const auto it = store_->shards_.find(*query_.switch_id);
    if (it != store_->shards_.end()) filter(it->second);
  } else {
    for (const auto& [node, shard] : store_->shards_) {
      (void)node;
      filter(shard);
    }
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

bool QueryCursor::plan_run(const std::vector<Row>& rows, const RowChains* chains) {
  RunPlan run{&rows, nullptr, {}};
  if (chains != nullptr) {
    const auto chain = chains->shortest(query_);
    if (chain->count == 0) return false;
    run.chains = chains;
    run.chain = *chain;
  }
  runs_.push_back(run);
  return true;
}

void QueryCursor::start_run(std::size_t run) {
  run_idx_ = run;
  row_ = run < runs_.size() ? runs_[run].first() : RowChains::kEnd;
}

void QueryCursor::check_generation() const {
  if (store_->generation_ == generation_) return;
  std::fprintf(stderr,
               "QueryCursor used after store mutation (generation %llu -> %llu): "
               "cursors do not survive append/flush/seal/compaction\n",
               static_cast<unsigned long long>(generation_),
               static_cast<unsigned long long>(store_->generation_));
  std::abort();
}

const backend::StoredEvent* QueryCursor::next() {
  check_generation();
  StoreStats& stats = store_->stats_;
  while (run_idx_ < runs_.size()) {
    const RunPlan& run = runs_[run_idx_];
    if (row_ == RowChains::kEnd) {
      start_run(run_idx_ + 1);
      continue;
    }
    const backend::StoredEvent& stored = (*run.rows)[row_].stored;
    row_ = run.after(row_);
    ++stats.rows_examined;
    if (query_.matches(stored)) {
      ++stats.rows_matched;
      return &stored;
    }
  }
  if (pending_idx_ < pending_.size()) {
    ++stats.rows_matched;
    return pending_[pending_idx_++].second;
  }
  return nullptr;
}

// ---- FlowEventStore ------------------------------------------------------

FlowEventStore::FlowEventStore(StoreOptions options) : options_(std::move(options)) {
  if (options_.shard_batch == 0) options_.shard_batch = 1;
  if (options_.segment_events == 0) options_.segment_events = 1;
  if (options_.compact_fanin < 2) options_.compact_fanin = 2;
  if (options_.writer_queue == 0) options_.writer_queue = 1;
  if (durable()) {
    util::MutexLock lock(maint_mu_);
    recover_from_dir();
  }
}

FlowEventStore::~FlowEventStore() {
  // Clean shutdown makes everything appended durable; a crash between
  // the last sync and here is what the WAL is for. writer_ is declared
  // after wal_, so its thread joins before the WAL closes.
  if (durable() && !wal_dead()) {
    flush();
    if (writer_ && writer_->sync_to(next_lsn_ - 1)) {
      durable_lsn_ = std::max(durable_lsn_, next_lsn_ - 1);
    }
  }
}

void FlowEventStore::add_batch(std::span<const core::FlowEvent> events, util::SimTime now) {
  if (events.empty()) return;
  ++generation_;
  for (const core::FlowEvent& event : events) {
    Shard& shard = shards_[event.switch_id];
    shard.rows.push_back(Pending{backend::StoredEvent{event, now}, append_seq_++});
    if (shard.rows.size() >= options_.shard_batch) flush_shard(shard);
  }
  stats_.appended += events.size();
}

void FlowEventStore::flush_shard(Shard& shard) {
  if (shard.rows.empty()) return;
  ++generation_;
  const std::size_t n = shard.rows.size();

  // Rows go straight into the memtable; a copy rides a recycled vector
  // to the writer thread, which keeps the WAL framing (one record per
  // shard batch, consecutive LSNs) byte-identical to the old inline
  // path while the fsync happens off the ingest thread.
  memtable_.reserve(std::max(memtable_.size() + n, options_.segment_events));
  if (writer_) {
    std::vector<Row> batch = writer_->take_buffer();
    batch.reserve(n);
    for (const Pending& pending : shard.rows) {
      batch.push_back(Row{pending.stored, next_lsn_++});
    }
    // Bulk-copy into the memtable (Row is trivially copyable, so this
    // is one memmove) rather than pushing each row twice.
    memtable_.insert(memtable_.end(), batch.begin(), batch.end());
    writer_->submit(std::move(batch));
  } else {
    for (const Pending& pending : shard.rows) {
      memtable_.push_back(Row{pending.stored, next_lsn_++});
    }
  }
  memtable_chains_.extend(memtable_);
  const std::uint64_t last_lsn = next_lsn_ - 1;
  shard.rows.clear();
  ++stats_.batches_flushed;

  if (!durable()) {
    // No WAL: flushed rows are as durable as an in-memory store gets,
    // which is what lets subscriptions tail them.
    durable_lsn_ = std::max(durable_lsn_, last_lsn);
  } else if (options_.sync_every_batch && writer_ && writer_->sync_to(last_lsn)) {
    durable_lsn_ = std::max(durable_lsn_, last_lsn);
  }

  if (memtable_.size() >= options_.segment_events) seal_active();
}

void FlowEventStore::flush() {
  // Hash-map iteration order is not deterministic across platforms;
  // flush shards in switch-id order so LSN assignment is reproducible.
  std::vector<util::NodeId> ids;
  ids.reserve(shards_.size());
  for (const auto& [node, shard] : shards_) {
    if (!shard.rows.empty()) ids.push_back(node);
  }
  std::sort(ids.begin(), ids.end());
  for (const util::NodeId node : ids) flush_shard(shards_[node]);
  // Everything handed off is appended (not necessarily fsynced) on
  // return, preserving flush()'s pre-async contract.
  if (writer_) writer_->drain();
}

bool FlowEventStore::sync() {
  flush();
  if (!durable()) {
    durable_lsn_ = next_lsn_ - 1;
    return true;
  }
  if (!wal_ || !writer_ || wal_->dead()) return false;
  if (!writer_->sync_to(next_lsn_ - 1)) return false;
  durable_lsn_ = std::max(durable_lsn_, next_lsn_ - 1);
  return true;
}

std::uint64_t FlowEventStore::durable_lsn() const {
  std::uint64_t lsn = durable_lsn_;
  if (writer_) lsn = std::max(lsn, writer_->watermark());
  return lsn;
}

void FlowEventStore::seal_active() {
  if (memtable_.empty()) return;
  ++generation_;
  util::MutexLock lock(maint_mu_);
  // The memtable's index already covers every row: hand it over rather
  // than re-index. The next flush builds fresh tables.
  auto segment = std::make_unique<Segment>(
      Segment::seal(std::move(memtable_), std::move(memtable_chains_)));
  memtable_.clear();
  memtable_chains_ = RowChains{};
  // Segment-file creation is deferred to persist_segments_locked()
  // (maintenance/checkpoint), keeping the seal on the ingest path a
  // pure in-memory operation; the WAL covers the rows until then.
  segments_.push_back(std::move(segment));
  ++stats_.segments_sealed;
}

std::uint64_t FlowEventStore::sealed_durable_watermark_locked() const {
  // Advance only across contiguously durable segments: a memory-only
  // segment in the middle (failed save) still needs its WAL rows.
  std::uint64_t watermark = sealed_watermark_floor_;
  for (const auto& segment : segments_) {
    if (segment->file_id() == 0) break;
    watermark = segment->max_lsn();
  }
  return watermark;
}

void FlowEventStore::wal_gc_locked() {
  if (wal_) wal_->remove_obsolete(sealed_durable_watermark_locked());
}

std::size_t FlowEventStore::persist_segments_locked() {
  if (!durable()) return 0;
  std::size_t persisted = 0;
  // Durable segments always form a prefix of segments_ (seal appends,
  // retention evicts from the front, compaction only merges durable
  // inputs), so saving front-to-back and stopping at the first failure
  // keeps the durable-LSN range contiguous.
  for (const auto& segment : segments_) {
    if (segment->file_id() != 0) continue;
    const std::uint32_t file_id = next_segment_file_++;
    if (!segment->save(segment_path(options_.dir, file_id))) break;
    segment->set_file_id(file_id);
    durable_lsn_ = std::max(durable_lsn_, segment->max_lsn());
    ++persisted;
  }
  return persisted;
}

std::size_t FlowEventStore::compact() {
  util::MutexLock lock(maint_mu_);
  return compact_locked();
}

std::size_t FlowEventStore::compact_locked() {
  std::size_t merges = 0;
  while (segments_.size() > options_.compact_min_segments) {
    const std::size_t fanin = std::min(options_.compact_fanin, segments_.size());
    if (fanin < 2) break;
    bool inputs_durable = true;
    for (std::size_t i = 0; i < fanin; ++i) {
      inputs_durable = inputs_durable && segments_[i]->file_id() != 0;
    }
    // Segment persistence is deferred to maintenance: on a durable
    // store, never merge a memory-only segment — wait for
    // persist_segments_locked() to catch up, so the output's
    // save-then-delete-inputs sequence stays crash-safe.
    if (durable() && !inputs_durable) break;
    std::vector<Row> merged;
    std::size_t total = 0;
    for (std::size_t i = 0; i < fanin; ++i) total += segments_[i]->size();
    merged.reserve(total);
    for (std::size_t i = 0; i < fanin; ++i) {
      const auto& seg_rows = segments_[i]->rows();
      merged.insert(merged.end(), seg_rows.begin(), seg_rows.end());
    }
    auto segment = std::make_unique<Segment>(Segment::build(std::move(merged)));
    if (durable()) {
      const std::uint32_t file_id = next_segment_file_++;
      if (!segment->save(segment_path(options_.dir, file_id))) break;  // keep the originals
      segment->set_file_id(file_id);
      for (std::size_t i = 0; i < fanin; ++i) {
        std::error_code ec;
        fs::remove(segment_path(options_.dir, segments_[i]->file_id()), ec);
      }
    }
    segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(fanin));
    segments_.insert(segments_.begin(), std::move(segment));
    ++generation_;
    ++merges;
    ++stats_.compactions;
    stats_.segments_compacted += fanin;
  }
  return merges;
}

std::size_t FlowEventStore::enforce_retention() {
  util::MutexLock lock(maint_mu_);
  return enforce_retention_locked();
}

std::size_t FlowEventStore::enforce_retention_locked() {
  if (options_.retain_events == 0) return 0;
  std::uint64_t sealed_rows = 0;
  for (const auto& segment : segments_) sealed_rows += segment->size();
  std::size_t evicted = 0;
  while (sealed_rows > options_.retain_events && !segments_.empty()) {
    const auto& victim = segments_.front();
    sealed_rows -= victim->size();
    stats_.events_evicted += victim->size();
    ++stats_.segments_evicted;
    sealed_watermark_floor_ = std::max(sealed_watermark_floor_, victim->max_lsn());
    if (victim->file_id() != 0) {
      std::error_code ec;
      fs::remove(segment_path(options_.dir, victim->file_id()), ec);
    }
    segments_.erase(segments_.begin());
    ++generation_;
    ++evicted;
  }
  return evicted;
}

void FlowEventStore::maintain() {
  // One acquisition for the whole round (the mutex is non-recursive).
  util::MutexLock lock(maint_mu_);
  persist_segments_locked();
  compact_locked();
  enforce_retention_locked();
  wal_gc_locked();
}

void FlowEventStore::checkpoint() {
  flush();
  seal_active();
  // A dead WAL still lets checkpoint persist sealed segments; the
  // durable watermark simply stops advancing.
  (void)sync();
  util::MutexLock lock(maint_mu_);
  persist_segments_locked();
  compact_locked();
  enforce_retention_locked();
  wal_gc_locked();
  const std::uint64_t watermark = sealed_durable_watermark_locked();
  if (!legacy_wal_files_.empty() && watermark >= legacy_wal_max_lsn_) {
    for (const auto& path : legacy_wal_files_) {
      std::error_code ec;
      if (fs::remove(path, ec) && !ec) ++legacy_wal_deleted_;
    }
    legacy_wal_files_.clear();
  }
}

sim::TaskHandle FlowEventStore::start_maintenance(sim::Simulator& sim,
                                                  util::SimDuration interval) {
  return sim.schedule_every(interval, [this] { maintain(); });
}

void FlowEventStore::recover_from_dir() {
  fs::create_directories(options_.dir);
  recovery_.ran = true;

  std::uint32_t max_file_id = 0;
  std::vector<std::unique_ptr<Segment>> loaded;
  for (const auto& ref : list_segment_files(options_.dir)) {
    max_file_id = std::max(max_file_id, ref.index);
    auto segment = Segment::load(ref.path, ref.index);
    if (!segment) {
      ++recovery_.segments_corrupt;
      continue;
    }
    loaded.push_back(std::make_unique<Segment>(std::move(*segment)));
  }
  next_segment_file_ = max_file_id + 1;

  // A crash between compact()'s rename and its input deletes leaves the
  // merged segment AND its inputs on disk; loading both would duplicate
  // every merged row. Keep a segment only when no other segment's LSN
  // range fully covers it; on an identical range the newer file id (the
  // compaction output) wins. Containment is transitive, so comparing
  // against already-dropped entries is never needed.
  for (auto& candidate : loaded) {
    const bool superseded =
        std::any_of(loaded.begin(), loaded.end(), [&](const std::unique_ptr<Segment>& other) {
          if (!other || other.get() == candidate.get()) return false;
          if (other->min_lsn() > candidate->min_lsn() ||
              other->max_lsn() < candidate->max_lsn()) {
            return false;
          }
          const bool strictly_larger = other->min_lsn() < candidate->min_lsn() ||
                                       other->max_lsn() > candidate->max_lsn();
          return strictly_larger || other->file_id() > candidate->file_id();
        });
    if (superseded) {
      ++recovery_.segments_superseded;
      std::error_code ec;
      fs::remove(segment_path(options_.dir, candidate->file_id()), ec);
      candidate.reset();
      continue;
    }
    ++recovery_.segments_loaded;
    recovery_.segment_rows += candidate->size();
    segments_.push_back(std::move(candidate));
  }
  // File ids track seal time, not row age (compaction outputs get fresh
  // ids), so order the loaded segments by their LSN fences.
  std::sort(segments_.begin(), segments_.end(),
            [](const auto& a, const auto& b) { return a->min_lsn() < b->min_lsn(); });

  std::uint64_t watermark = 0;
  for (const auto& segment : segments_) watermark = std::max(watermark, segment->max_lsn());

  // Repair mode: torn files are truncated to their valid prefix, so a
  // later recovery replays past them into files this incarnation's
  // writer is about to create.
  const WalReplayResult replay = replay_wal_dir(
      options_.dir, watermark, [this](Row&& row) { memtable_.push_back(std::move(row)); },
      /*repair=*/true);
  memtable_chains_.extend(memtable_);
  recovery_.wal_records_replayed = replay.records;
  recovery_.wal_rows_replayed = replay.rows;
  recovery_.wal_rows_skipped = replay.skipped_rows;
  recovery_.wal_files_repaired = replay.repaired_files;
  recovery_.torn_tail = replay.torn_tail;
  recovery_.max_lsn = std::max(watermark, replay.max_lsn);

  next_lsn_ = recovery_.max_lsn + 1;
  durable_lsn_ = recovery_.max_lsn;
  append_seq_ = 0;

  for (const auto& ref : list_wal_files(options_.dir)) {
    legacy_wal_files_.push_back(ref.path);
  }
  legacy_wal_max_lsn_ = replay.max_lsn;

  WalWriter::Options wal_options;
  wal_options.dir = options_.dir;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  wal_ = std::make_unique<WalWriter>(wal_options, replay.last_file_index + 1);
  // Rows replayed out of the WAL are on disk already: seed the group
  // commit watermark at the recovered LSN so they count as durable.
  writer_ = std::make_unique<GroupCommitWriter>(*wal_, options_.sync_every_batch, durable_lsn_,
                                                options_.writer_queue);
}

QueryCursor FlowEventStore::scan(const backend::EventQuery& event_query) const {
  return QueryCursor(*this, event_query);
}

Subscription FlowEventStore::subscribe(backend::EventQuery event_query,
                                       std::uint64_t from_lsn) const {
  return Subscription(*this, std::move(event_query), from_lsn);
}

const StoreStats& FlowEventStore::stats() const {
  if (wal_) {
    stats_.wal_records = wal_->records_written();
    stats_.wal_bytes = wal_->bytes_written();
    stats_.wal_syncs = wal_->syncs();
    stats_.wal_files_deleted = wal_->files_deleted() + legacy_wal_deleted_;
  }
  if (writer_) {
    stats_.groups_committed = writer_->groups_committed();
    stats_.group_batches = writer_->batches_appended();
    stats_.max_group_batches = writer_->max_group_batches();
    stats_.writer_queue_waits = writer_->queue_full_waits();
    stats_.wal_append_failures = writer_->append_failures();
  }
  return stats_;
}

std::size_t FlowEventStore::size() const {
  std::size_t total = memtable_.size();
  for (const auto& segment : segments_) total += segment->size();
  for (const auto& [node, shard] : shards_) {
    (void)node;
    total += shard.rows.size();
  }
  return total;
}

void FlowEventStore::crash_after_wal_bytes(std::uint64_t budget) {
  if (wal_) wal_->fail_after_bytes(budget);
}

// ---- Query spec parsing --------------------------------------------------

namespace {

[[nodiscard]] std::optional<core::EventType> parse_type(std::string_view name) {
  for (const core::EventType type :
       {core::EventType::kDrop, core::EventType::kCongestion, core::EventType::kPathChange,
        core::EventType::kPause, core::EventType::kAclDrop}) {
    if (name == core::to_string(type)) return type;
  }
  return std::nullopt;
}

/// "<addr>:<port>" -> (addr, port).
[[nodiscard]] bool parse_endpoint(std::string_view text, packet::Ipv4Addr& addr,
                                  std::uint16_t& port) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return false;
  const auto parsed = packet::Ipv4Addr::parse(std::string(text.substr(0, colon)));
  if (!parsed || !util::parse_number(text.substr(colon + 1), port)) return false;
  addr = *parsed;
  return true;
}

[[nodiscard]] bool parse_flow(std::string_view text, packet::FlowKey& flow) {
  const auto arrow = text.find('>');
  const auto slash = text.rfind('/');
  if (arrow == std::string_view::npos || slash == std::string_view::npos || slash < arrow) {
    return false;
  }
  packet::FlowKey parsed;
  if (!util::parse_number(text.substr(slash + 1), parsed.proto)) return false;
  if (!parse_endpoint(text.substr(0, arrow), parsed.src, parsed.sport)) return false;
  if (!parse_endpoint(text.substr(arrow + 1, slash - arrow - 1), parsed.dst, parsed.dport)) {
    return false;
  }
  flow = parsed;
  return true;
}

}  // namespace

std::optional<backend::EventQuery> parse_query(const std::string& spec, std::string* error) {
  backend::EventQuery query;
  std::string_view rest = spec;
  const auto fail = [&](const std::string& message) -> std::optional<backend::EventQuery> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    std::string_view term = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (term.empty()) continue;
    const auto eq = term.find('=');
    if (eq == std::string_view::npos) return fail("expected key=value: " + std::string(term));
    const std::string_view key = term.substr(0, eq);
    const std::string_view value = term.substr(eq + 1);
    if (key == "type") {
      const auto type = parse_type(value);
      if (!type) return fail("unknown event type: " + std::string(value));
      query.type = *type;
    } else if (key == "switch") {
      util::NodeId node = 0;
      if (!util::parse_number(value, node)) return fail("bad switch id");
      query.switch_id = node;
    } else if (key == "from") {
      util::SimTime t = 0;
      if (!util::parse_number(value, t)) return fail("bad from= timestamp");
      query.from = t;
    } else if (key == "to") {
      util::SimTime t = 0;
      if (!util::parse_number(value, t)) return fail("bad to= timestamp");
      query.to = t;
    } else if (key == "flow") {
      packet::FlowKey flow;
      if (!parse_flow(value, flow)) {
        return fail("bad flow spec (want src:sport>dst:dport/proto)");
      }
      query.flow = flow;
    } else {
      return fail("unknown query key: " + std::string(key));
    }
  }
  return query;
}

}  // namespace netseer::store
