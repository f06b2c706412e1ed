#include "store/wal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

namespace netseer::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kWalPrefix = "wal-";
constexpr const char* kWalSuffix = ".log";

[[nodiscard]] std::string wal_path(const std::string& dir, std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08u.log", index);
  return (fs::path(dir) / name).string();
}

/// Parse "wal-NNNNNNNN.log" back to its index; nullopt for other files.
[[nodiscard]] std::optional<std::uint32_t> wal_index(const std::string& filename) {
  const std::size_t prefix = std::strlen(kWalPrefix);
  const std::size_t suffix = std::strlen(kWalSuffix);
  if (filename.size() <= prefix + suffix) return std::nullopt;
  if (filename.compare(0, prefix, kWalPrefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix, suffix, kWalSuffix) != 0) return std::nullopt;
  std::uint32_t value = 0;
  for (std::size_t i = prefix; i < filename.size() - suffix; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(filename[i] - '0');
  }
  return value;
}

/// CRC over the record header (crc field zeroed) plus the payload.
[[nodiscard]] std::uint32_t record_crc(std::span<const std::byte> header,
                                       std::span<const std::byte> payload) {
  std::array<std::byte, kWalRecordHeaderBytes> scratch{};
  std::copy(header.begin(), header.end(), scratch.begin());
  put_le<std::uint32_t>(scratch.data() + 16, 0);
  std::uint32_t crc = util::crc32_update(0, scratch);
  return util::crc32_update(crc, payload);
}

}  // namespace

std::vector<WalFileRef> list_wal_files(const std::string& dir) {
  std::vector<WalFileRef> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto index = wal_index(entry.path().filename().string());
    if (!index) continue;
    WalFileRef ref;
    ref.index = *index;
    ref.path = entry.path().string();
    std::error_code size_ec;
    ref.bytes = static_cast<std::uint64_t>(fs::file_size(entry.path(), size_ec));
    files.push_back(std::move(ref));
  }
  std::sort(files.begin(), files.end(),
            [](const WalFileRef& a, const WalFileRef& b) { return a.index < b.index; });
  return files;
}

WalReplayResult replay_wal_dir(const std::string& dir, std::uint64_t watermark,
                               const std::function<void(Row&&)>& emit, bool repair) {
  WalReplayResult result;
  result.wal_files = list_wal_files(dir);
  std::vector<WalFileRef*> unreadable;
  for (WalFileRef& ref : result.wal_files) {
    std::FILE* f = std::fopen(ref.path.c_str(), "rb");
    if (f == nullptr) {
      result.torn_tail = true;
      unreadable.push_back(&ref);
      continue;
    }
    ++result.files;

    std::array<std::byte, kWalFileHeaderBytes> file_header{};
    const std::size_t header_got = std::fread(file_header.data(), 1, file_header.size(), f);
    if (header_got == 0) {
      // Zero bytes: a crash between rotation and flushing the buffered
      // file header. No record was ever visible here — a clean empty log.
      std::fclose(f);
      continue;
    }
    if (header_got != file_header.size() ||
        std::memcmp(file_header.data(), kWalFileMagic, sizeof(kWalFileMagic)) != 0 ||
        get_le<std::uint16_t>(file_header.data() + 4) != kStoreVersion) {
      std::fclose(f);
      result.torn_tail = true;
      if (repair) {
        // Nothing valid inside; empty it so future opens see it clean.
        std::error_code ec;
        fs::resize_file(ref.path, 0, ec);
        if (!ec) ++result.repaired_files;
      }
      continue;
    }

    // Offset just past the last fully validated record: where repair
    // truncates, so this tail cannot shadow later files on every reopen.
    std::uint64_t valid_bytes = kWalFileHeaderBytes;
    bool torn = false;
    std::array<std::byte, kWalRecordHeaderBytes> header{};
    std::vector<std::byte> payload;
    std::vector<Row> batch;
    for (;;) {
      const std::size_t got = std::fread(header.data(), 1, header.size(), f);
      if (got == 0) break;  // clean end of file
      if (got != header.size() ||
          get_le<std::uint16_t>(header.data()) != kWalRecordMagic ||
          header[2] != static_cast<std::byte>(kWalRecordBatch)) {
        torn = true;
        break;
      }
      const std::uint16_t count = get_le<std::uint16_t>(header.data() + 4);
      const std::uint64_t first_lsn = get_le<std::uint64_t>(header.data() + 8);
      const std::uint32_t stored_crc = get_le<std::uint32_t>(header.data() + 16);
      payload.resize(static_cast<std::size_t>(count) * kRowBytes);
      if (std::fread(payload.data(), 1, payload.size(), f) != payload.size() ||
          record_crc(header, payload) != stored_crc) {
        torn = true;
        break;
      }
      // Decode the whole record before emitting any of it: a row whose
      // encoding is invalid despite a clean CRC (writer-side corruption)
      // must not leave the record half replayed.
      batch.clear();
      for (std::uint16_t i = 0; i < count; ++i) {
        auto stored = decode_row(
            std::span<const std::byte>(payload.data() + std::size_t(i) * kRowBytes, kRowBytes));
        if (!stored) {
          torn = true;
          break;
        }
        batch.push_back(Row{*stored, first_lsn + i});
      }
      if (torn) break;
      ++result.records;
      valid_bytes += header.size() + payload.size();
      for (Row& row : batch) {
        ref.max_lsn = std::max(ref.max_lsn, row.lsn);
        if (row.lsn > result.max_lsn) result.max_lsn = row.lsn;
        if (row.lsn <= watermark) {
          ++result.skipped_rows;
          continue;
        }
        emit(std::move(row));
        ++result.rows;
      }
    }
    std::fclose(f);
    if (torn) {
      result.torn_tail = true;
      if (repair) {
        std::error_code ec;
        fs::resize_file(ref.path, valid_bytes, ec);
        if (!ec) ++result.repaired_files;
      }
    }
  }
  // Nothing is known of what an unreadable file holds: it waits until
  // everything replayed is covered.
  for (WalFileRef* ref : unreadable) ref->max_lsn = result.max_lsn;
  return result;
}

WalWriter::WalWriter(const Options& options, const std::vector<WalFileRef>& recovered)
    : options_(options) {
  for (const WalFileRef& ref : recovered) {
    files_.push_back(FileInfo{ref.index, ref.path, ref.max_lsn, /*open=*/false});
  }
  if (!recovered.empty()) next_index_ = recovered.back().index + 1;
  if (enabled()) {
    fs::create_directories(options_.dir);
    util::MutexLock lock(mu_);
    open_next_file();
  }
}

WalWriter::~WalWriter() {
  util::MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  // A file that never got past its header holds nothing to replay:
  // remove it, so opening a store and closing it again (inspect, query,
  // tail) leaves the directory as it found it. A dead writer's file may
  // hold torn bytes, which recovery must see, so it stays.
  if (!dead_ && current_bytes_ == kWalFileHeaderBytes) {
    std::error_code ec;
    fs::remove(files_.back().path, ec);
  }
}

bool WalWriter::write_raw(const std::byte* data, std::size_t n) {
  if (dead_ || file_ == nullptr) return false;
  std::size_t allowed = n;
  if (fail_armed_) {
    allowed = static_cast<std::size_t>(std::min<std::uint64_t>(n, fail_budget_));
    fail_budget_ -= allowed;
  }
  if (allowed > 0) {
    if (std::fwrite(data, 1, allowed, file_) != allowed) {
      dead_ = true;
      return false;
    }
    bytes_written_ += allowed;
    current_bytes_ += allowed;
  }
  if (allowed != n) {
    // Budget exhausted mid-write: the tail of this record is torn off,
    // exactly like a crash between write() and fsync(). Flush what made
    // it so recovery sees the torn file as a real crash would leave it.
    std::fflush(file_);
    dead_ = true;
    return false;
  }
  return true;
}

bool WalWriter::open_next_file() {
  close_current();
  FileInfo info;
  info.index = next_index_++;
  info.path = wal_path(options_.dir, info.index);
  file_ = std::fopen(info.path.c_str(), "wb");
  if (file_ == nullptr) {
    dead_ = true;
    return false;
  }
  // A large stdio buffer batches record writes into few write(2) calls;
  // durability still comes only from sync() (fflush + fsync).
  if (iobuf_.empty()) iobuf_.resize(256 * 1024);
  std::setvbuf(file_, iobuf_.data(), _IOFBF, iobuf_.size());
  info.open = true;
  files_.push_back(info);
  ++files_opened_;
  current_bytes_ = 0;
  current_dir_synced_ = false;

  std::array<std::byte, kWalFileHeaderBytes> header{};
  std::memcpy(header.data(), kWalFileMagic, sizeof(kWalFileMagic));
  put_le<std::uint16_t>(header.data() + 4, kStoreVersion);
  put_le<std::uint16_t>(header.data() + 6, 0);
  return write_raw(header.data(), header.size());
}

void WalWriter::close_current() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
  if (!files_.empty()) files_.back().open = false;
}

bool WalWriter::append(std::span<const Row> rows) {
  util::MutexLock lock(mu_);
  if (!enabled() || dead_ || rows.empty()) return false;
  // The record header's row count is a u16: frame oversized batches as
  // several records instead of letting the count wrap and misframe the
  // stream for replay.
  while (rows.size() > kWalMaxRecordRows) {
    if (!append_record(rows.first(kWalMaxRecordRows))) return false;
    rows = rows.subspan(kWalMaxRecordRows);
  }
  return append_record(rows);
}

bool WalWriter::append_record(std::span<const Row> rows) {
  if (current_bytes_ >= options_.segment_bytes) {
    if (!open_next_file()) return false;
  }

  std::array<std::byte, kWalRecordHeaderBytes> header{};
  put_le<std::uint16_t>(header.data(), kWalRecordMagic);
  header[2] = static_cast<std::byte>(kWalRecordBatch);
  header[3] = std::byte{0};
  put_le<std::uint16_t>(header.data() + 4, static_cast<std::uint16_t>(rows.size()));
  put_le<std::uint16_t>(header.data() + 6, 0);
  put_le<std::uint64_t>(header.data() + 8, rows.front().lsn);

  // Encode straight into the reusable scratch buffer: the payload is
  // rebuilt thousands of times a second on the group-commit thread, so
  // per-record allocation and per-row array copies both matter.
  payload_.resize(rows.size() * kRowBytes);
  std::byte* cursor = payload_.data();
  for (const Row& row : rows) {
    encode_row_to(cursor, row.stored);
    cursor += kRowBytes;
  }
  put_le<std::uint32_t>(header.data() + 16, record_crc(header, payload_));

  if (!write_raw(header.data(), header.size())) return false;
  if (!write_raw(payload_.data(), payload_.size())) return false;
  ++records_written_;
  if (!files_.empty()) files_.back().max_lsn = rows.back().lsn;
  return true;
}

bool WalWriter::sync() {
  util::MutexLock lock(mu_);
  if (!enabled() || dead_ || file_ == nullptr) return false;
  if (!sync_file(file_)) {
    dead_ = true;
    return false;
  }
  if (!current_dir_synced_) {
    // First sync after a rotation: make the file's dirent durable too,
    // or an OS crash could drop the whole freshly created file.
    sync_dir(options_.dir);
    current_dir_synced_ = true;
  }
  ++syncs_;
  return true;
}

std::size_t WalWriter::remove_obsolete(std::uint64_t sealed_watermark) {
  util::MutexLock lock(mu_);
  // Rotate away from the current file once everything in it is sealed,
  // so it becomes deletable below instead of pinning covered records.
  if (!dead_ && file_ != nullptr && !files_.empty() && files_.back().max_lsn > 0 &&
      files_.back().max_lsn <= sealed_watermark) {
    open_next_file();
  }
  std::size_t deleted = 0;
  for (auto it = files_.begin(); it != files_.end();) {
    // Closed files at/below the watermark go, including empty rotation
    // leftovers (max_lsn 0 = no records, nothing to lose).
    if (it->open || it->max_lsn > sealed_watermark) {
      ++it;
      continue;
    }
    std::error_code ec;
    fs::remove(it->path, ec);
    if (ec) {
      ++it;
      continue;
    }
    ++deleted;
    ++files_deleted_;
    it = files_.erase(it);
  }
  return deleted;
}

}  // namespace netseer::store
