#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backend/event_query.h"
#include "store/format.h"
#include "util/annotations.h"

namespace netseer::store {

/// Allocation-free secondary index over one run of rows in LSN order:
/// the memtable while it fills, then the segment it seals into. Every
/// row sits on three chains — its flow bucket's, its switch bucket's and
/// its event type's. A chain links its rows in LSN order through one
/// `next` entry per row, and its bucket keeps head, tail and length in a
/// fixed power-of-two table, so appending a row touches three buckets
/// and writes three links with no per-key allocation.
///
/// Buckets may mix keys (two flows or two switches that land in one
/// bucket), so a chain holds a superset of its key's rows: whoever walks
/// it re-checks every row. A chain of length 0 proves the key absent.
///
/// Flow buckets are keyed by a store-local mix of the FlowKey fields,
/// not by FlowKey::hash64: the data plane's group cache and path
/// detector pick their slots with that hash, so it must not change for
/// the store's sake.
class RowChains {
 public:
  /// "No row": a chain's head when empty, a row's link at its chain's tail.
  static constexpr std::uint32_t kEnd = 0xffffffffu;

  enum class Key : std::uint8_t { kFlow, kSwitch, kType };

  /// One chain: its first row and how many rows it links.
  struct Chain {
    Key key = Key::kType;
    std::uint32_t head = kEnd;
    std::uint32_t count = 0;
  };

  /// Index rows [size(), rows.size()): the rows appended since the last
  /// call, which must have left the earlier rows untouched. The tables
  /// are sized on first use for the vector's capacity (the run's
  /// expected length) and only regrow if the run outgrows it, so
  /// steady-state appends allocate nothing.
  NETSEER_HOT void extend(const std::vector<Row>& rows);

  /// Rows indexed so far.
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Chain flow_chain(const packet::FlowKey& flow) const;
  [[nodiscard]] Chain switch_chain(util::NodeId node) const;
  [[nodiscard]] Chain type_chain(core::EventType type) const;

  /// The shortest chain among those the query names (flow, switch,
  /// type); nullopt when it names none and only a full walk answers it.
  [[nodiscard]] std::optional<Chain> shortest(const backend::EventQuery& query) const;

  /// The row after `row` on its `key` chain; kEnd past the chain's tail.
  [[nodiscard]] std::uint32_t next(Key key, std::uint32_t row) const {
    return links_[row][static_cast<std::size_t>(key)];
  }

 private:
  struct Bucket {
    std::uint32_t head = kEnd;
    std::uint32_t tail = kEnd;
    std::uint32_t count = 0;
  };
  using Links = std::array<std::uint32_t, 3>;  // next row, indexed by Key

  NETSEER_HOT void link(const core::FlowEvent& event, std::uint32_t row);
  NETSEER_HOT void append_to(Bucket& bucket, Key key, std::uint32_t row);
  /// Size the tables for `rows` (at least its capacity) and re-link the
  /// rows already indexed: the only place the index allocates.
  NETSEER_HOT_ALLOW_INIT void grow(const std::vector<Row>& rows);
  [[nodiscard]] Chain chain_of(Key key, std::size_t bucket) const;

  std::vector<Links> links_;  // one per row slot; size() is the capacity
  // Type buckets, then switch buckets, then flow buckets, in one table.
  std::vector<Bucket> buckets_;
  std::uint32_t switch_mask_ = 0;
  std::uint32_t flow_base_ = 0;
  std::uint32_t flow_mask_ = 0;
  std::uint32_t size_ = 0;
};

/// An immutable, time-partitioned run of rows in LSN order, with min/max
/// time fences over detected_at for pruning time-windowed queries and
/// the RowChains index the query planner walks instead of scanning.
///
/// A segment is sealed from the memtable, which hands over the index it
/// kept while filling, or is merged out of smaller segments by
/// compaction or loaded from a segment file; those two build their index
/// in one pass on first lookup, so the on-disk format stays a plain
/// CRC-protected row run.
class Segment {
 public:
  /// Build from rows already sorted by LSN (callers: compaction merge,
  /// segment-file load). `rows` must be non-empty.
  static Segment build(std::vector<Row> rows, std::uint32_t file_id = 0);

  /// Seal the memtable: adopt its rows together with the index that
  /// already covers them.
  static Segment seal(std::vector<Row> rows, RowChains chains);

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] std::uint64_t min_lsn() const { return min_lsn_; }
  [[nodiscard]] std::uint64_t max_lsn() const { return max_lsn_; }
  [[nodiscard]] util::SimTime min_time() const { return min_time_; }
  [[nodiscard]] util::SimTime max_time() const { return max_time_; }

  /// Id of the backing seg-NNNNNNNN.seg file; 0 for memory-only.
  [[nodiscard]] std::uint32_t file_id() const { return file_id_; }
  void set_file_id(std::uint32_t id) { file_id_ = id; }

  /// The row-chain index, built on the first call when the segment was
  /// not sealed from the memtable. NOT thread-safe: the query planner
  /// resolves indexes serially before any parallel scan fans out
  /// (workers only read).
  [[nodiscard]] const RowChains& chains() const {
    if (chains_.size() != rows_.size()) chains_.extend(rows_);
    return chains_;
  }

  /// True when [from, to) could contain rows of this segment (fences are
  /// inclusive on both ends; `to` is exclusive as in EventQuery).
  [[nodiscard]] bool overlaps(std::optional<util::SimTime> from,
                              std::optional<util::SimTime> to) const {
    if (from && max_time_ < *from) return false;
    if (to && min_time_ >= *to) return false;
    return true;
  }

  /// Write as a CRC-protected segment file (fsync'd, via a .tmp +
  /// rename + directory fsync, so a crash mid-seal never leaves a half
  /// segment under the final name and a sealed one cannot vanish).
  [[nodiscard]] bool save(const std::string& path) const;

  /// Load and fully validate a segment file (header, row encodings,
  /// CRC footer); nullopt on any corruption.
  [[nodiscard]] static std::optional<Segment> load(const std::string& path,
                                                   std::uint32_t file_id);

 private:
  Segment() = default;

  std::vector<Row> rows_;
  std::uint64_t min_lsn_ = 0;
  std::uint64_t max_lsn_ = 0;
  util::SimTime min_time_ = 0;
  util::SimTime max_time_ = 0;
  std::uint32_t file_id_ = 0;

  // Extended by chains() under the serial-planner contract.
  mutable RowChains chains_;
};

/// Segment files under `dir` ("seg-NNNNNNNN.seg"), sorted by file id.
struct SegmentFileRef {
  std::uint32_t index = 0;
  std::string path;
};
[[nodiscard]] std::vector<SegmentFileRef> list_segment_files(const std::string& dir);

[[nodiscard]] std::string segment_path(const std::string& dir, std::uint32_t index);

}  // namespace netseer::store
