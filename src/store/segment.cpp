#include "store/segment.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace netseer::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kTypeBuckets = 8;  // EventType values are 1..5
constexpr std::uint32_t kMaxSwitchBuckets = 256;
constexpr std::size_t kMinRowSlots = 16;

/// Store-local bucket hash over the FlowKey fields (see RowChains for
/// why it is not FlowKey::hash64).
[[nodiscard]] std::uint64_t flow_bucket_hash(const packet::FlowKey& flow) {
  const std::uint64_t addrs = (std::uint64_t{flow.src.value} << 32) | flow.dst.value;
  const std::uint64_t ports = (std::uint64_t{flow.sport} << 24) |
                              (std::uint64_t{flow.dport} << 8) | flow.proto;
  return util::mix64(addrs ^ (ports * 0x9e3779b97f4a7c15ULL));
}

[[nodiscard]] std::optional<std::uint32_t> seg_index(const std::string& filename) {
  constexpr const char* kPrefix = "seg-";
  constexpr const char* kSuffix = ".seg";
  const std::size_t prefix = std::strlen(kPrefix);
  const std::size_t suffix = std::strlen(kSuffix);
  if (filename.size() <= prefix + suffix) return std::nullopt;
  if (filename.compare(0, prefix, kPrefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix, suffix, kSuffix) != 0) return std::nullopt;
  std::uint32_t value = 0;
  for (std::size_t i = prefix; i < filename.size() - suffix; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(filename[i] - '0');
  }
  return value;
}

}  // namespace

std::string segment_path(const std::string& dir, std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.seg", index);
  return (fs::path(dir) / name).string();
}

std::vector<SegmentFileRef> list_segment_files(const std::string& dir) {
  std::vector<SegmentFileRef> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto index = seg_index(entry.path().filename().string());
    if (!index) continue;
    files.push_back(SegmentFileRef{*index, entry.path().string()});
  }
  std::sort(files.begin(), files.end(),
            [](const SegmentFileRef& a, const SegmentFileRef& b) { return a.index < b.index; });
  return files;
}

// ---- RowChains -------------------------------------------------------------

void RowChains::extend(const std::vector<Row>& rows) {
  if (rows.size() > links_.size()) grow(rows);
  for (std::uint32_t row = size_; row < rows.size(); ++row) link(rows[row].stored.event, row);
  size_ = static_cast<std::uint32_t>(rows.size());
}

void RowChains::link(const core::FlowEvent& event, std::uint32_t row) {
  links_[row] = Links{kEnd, kEnd, kEnd};
  append_to(buckets_[static_cast<std::uint32_t>(event.type) & (kTypeBuckets - 1)], Key::kType,
            row);
  append_to(buckets_[kTypeBuckets + (event.switch_id & switch_mask_)], Key::kSwitch, row);
  append_to(buckets_[flow_base_ + (flow_bucket_hash(event.flow) & flow_mask_)], Key::kFlow, row);
}

void RowChains::append_to(Bucket& bucket, Key key, std::uint32_t row) {
  if (bucket.count == 0) {
    bucket.head = row;
  } else {
    links_[bucket.tail][static_cast<std::size_t>(key)] = row;
  }
  bucket.tail = row;
  ++bucket.count;
}

void RowChains::grow(const std::vector<Row>& rows) {
  if (rows.size() >= kEnd) {
    std::fprintf(stderr, "RowChains: a run of %zu rows exceeds the 32-bit row index\n",
                 rows.size());
    std::abort();
  }
  // Doubling keeps re-linking amortized O(1) per row; the capacity hint
  // sizes a filling memtable once for its whole run.
  const std::size_t want =
      std::min<std::size_t>(std::max({rows.size(), rows.capacity(), 2 * links_.size(),
                                      kMinRowSlots}),
                            kEnd - 1);
  const auto slots = static_cast<std::uint32_t>(want);
  const std::uint32_t flow_buckets = std::bit_floor(slots);  // <= 2 rows per bucket on average
  const std::uint32_t switch_buckets = std::min(flow_buckets, kMaxSwitchBuckets);
  links_.resize(slots);
  buckets_.assign(kTypeBuckets + switch_buckets + flow_buckets, Bucket{});
  switch_mask_ = switch_buckets - 1;
  flow_base_ = kTypeBuckets + switch_buckets;
  flow_mask_ = flow_buckets - 1;
  for (std::uint32_t row = 0; row < size_; ++row) link(rows[row].stored.event, row);
}

RowChains::Chain RowChains::chain_of(Key key, std::size_t bucket) const {
  if (buckets_.empty()) return Chain{key, kEnd, 0};
  const Bucket& b = buckets_[bucket];
  return Chain{key, b.head, b.count};
}

RowChains::Chain RowChains::flow_chain(const packet::FlowKey& flow) const {
  return chain_of(Key::kFlow, flow_base_ + (flow_bucket_hash(flow) & flow_mask_));
}

RowChains::Chain RowChains::switch_chain(util::NodeId node) const {
  return chain_of(Key::kSwitch, kTypeBuckets + (node & switch_mask_));
}

RowChains::Chain RowChains::type_chain(core::EventType type) const {
  return chain_of(Key::kType, static_cast<std::uint32_t>(type) & (kTypeBuckets - 1));
}

std::optional<RowChains::Chain> RowChains::shortest(const backend::EventQuery& query) const {
  std::optional<Chain> best;
  const auto consider = [&best](const Chain& chain) {
    if (!best || chain.count < best->count) best = chain;
  };
  if (query.flow) consider(flow_chain(*query.flow));
  if (query.switch_id) consider(switch_chain(*query.switch_id));
  if (query.type) consider(type_chain(*query.type));
  return best;
}

// ---- Segment ----------------------------------------------------------------

Segment Segment::build(std::vector<Row> rows, std::uint32_t file_id) {
  Segment seg;
  seg.rows_ = std::move(rows);
  seg.file_id_ = file_id;
  seg.min_lsn_ = seg.rows_.front().lsn;
  seg.max_lsn_ = seg.rows_.back().lsn;
  seg.min_time_ = seg.rows_.front().stored.event.detected_at;
  seg.max_time_ = seg.min_time_;
  for (const Row& row : seg.rows_) {
    seg.min_time_ = std::min(seg.min_time_, row.stored.event.detected_at);
    seg.max_time_ = std::max(seg.max_time_, row.stored.event.detected_at);
  }
  return seg;
}

Segment Segment::seal(std::vector<Row> rows, RowChains chains) {
  Segment seg = build(std::move(rows));
  seg.chains_ = std::move(chains);
  return seg;
}

bool Segment::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;

  std::array<std::byte, kSegHeaderBytes> header{};
  std::memcpy(header.data(), kSegFileMagic, sizeof(kSegFileMagic));
  put_le<std::uint16_t>(header.data() + 4, kStoreVersion);
  put_le<std::uint16_t>(header.data() + 6, 0);
  put_le<std::uint64_t>(header.data() + 8, rows_.size());
  put_le<std::uint64_t>(header.data() + 16, min_lsn_);
  put_le<std::uint64_t>(header.data() + 24, max_lsn_);
  put_le<std::int64_t>(header.data() + 32, min_time_);
  put_le<std::int64_t>(header.data() + 40, max_time_);

  std::uint32_t crc = util::crc32_update(0, header);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const Row& row : rows_) {
    if (!ok) break;
    const auto encoded = encode_row(row.stored);
    crc = util::crc32_update(crc, encoded);
    ok = std::fwrite(encoded.data(), 1, encoded.size(), f) == encoded.size();
  }
  std::array<std::byte, 4> footer{};
  put_le<std::uint32_t>(footer.data(), crc);
  ok = ok && std::fwrite(footer.data(), 1, footer.size(), f) == footer.size();
  // fsync before the rename: the rename must never make a segment
  // visible whose bytes could still be lost to an OS crash.
  ok = ok && sync_file(f);
  std::fclose(f);
  if (!ok) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return false;
  sync_dir(fs::path(path).parent_path().string());
  return true;
}

std::optional<Segment> Segment::load(const std::string& path, std::uint32_t file_id) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;

  std::array<std::byte, kSegHeaderBytes> header{};
  if (std::fread(header.data(), 1, header.size(), f) != header.size() ||
      std::memcmp(header.data(), kSegFileMagic, sizeof(kSegFileMagic)) != 0 ||
      get_le<std::uint16_t>(header.data() + 4) != kStoreVersion) {
    std::fclose(f);
    return std::nullopt;
  }
  const std::uint64_t count = get_le<std::uint64_t>(header.data() + 8);
  const std::uint64_t first_lsn = get_le<std::uint64_t>(header.data() + 16);
  if (count == 0) {
    std::fclose(f);
    return std::nullopt;  // empty segments are never written
  }

  std::uint32_t crc = util::crc32_update(0, header);
  std::vector<Row> rows;
  rows.reserve(count);
  std::array<std::byte, kRowBytes> raw{};
  std::uint64_t lsn_cursor = first_lsn;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (std::fread(raw.data(), 1, raw.size(), f) != raw.size()) {
      std::fclose(f);
      return std::nullopt;
    }
    crc = util::crc32_update(crc, raw);
    auto stored = decode_row(raw);
    if (!stored) {
      std::fclose(f);
      return std::nullopt;
    }
    rows.push_back(Row{*stored, lsn_cursor++});
  }
  std::array<std::byte, 4> footer{};
  const bool footer_ok = std::fread(footer.data(), 1, footer.size(), f) == footer.size();
  // The footer must also be the end of the file: trailing bytes mean a
  // mangled count field (or appended garbage), not a smaller segment.
  std::byte trailing{};
  const bool at_eof = std::fread(&trailing, 1, 1, f) == 0;
  std::fclose(f);
  if (!footer_ok || !at_eof || get_le<std::uint32_t>(footer.data()) != crc) return std::nullopt;

  Segment seg = build(std::move(rows), file_id);
  // The header's fences are authoritative for the lsn range (rows only
  // carry the reconstructed consecutive run); sanity-check agreement.
  if (seg.max_lsn_ != get_le<std::uint64_t>(header.data() + 24)) return std::nullopt;
  return seg;
}

}  // namespace netseer::store
