#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "store/format.h"
#include "util/annotations.h"
#include "util/thread_annotations.h"

namespace netseer::store {

/// One WAL file on disk, as listed by list_wal_files.
struct WalFileRef {
  std::uint32_t index = 0;
  std::string path;
  std::uint64_t bytes = 0;
  /// Highest LSN replay_wal_dir read from the file (0 when none); the
  /// LSN a WalWriter that inherits the file waits on to reclaim it.
  std::uint64_t max_lsn = 0;
};

/// WAL files under `dir`, sorted by file index.
[[nodiscard]] std::vector<WalFileRef> list_wal_files(const std::string& dir);

/// Outcome of replaying a WAL directory (see replay_wal_dir).
struct WalReplayResult {
  std::uint64_t files = 0;
  std::uint64_t records = 0;       // complete, CRC-clean records replayed
  std::uint64_t rows = 0;          // rows delivered to the callback
  std::uint64_t skipped_rows = 0;  // rows at or below the segment watermark
  std::uint64_t max_lsn = 0;       // highest LSN seen (0 when empty)
  std::uint64_t repaired_files = 0;  // torn files truncated in place (repair mode)
  bool torn_tail = false;  // some file ended at an incomplete/corrupt record
  /// Every file listed, torn or not, in index order, each with the
  /// highest LSN replayed from it. A file that could not be opened
  /// counts as holding max_lsn.
  std::vector<WalFileRef> wal_files;
};

/// Replay every WAL file under `dir` in file order, delivering each row
/// with LSN > `watermark` (rows at or below it are already sealed into
/// durable segments). Within a file, replay stops — cleanly, by design —
/// at the first incomplete or CRC-failing record: everything after a
/// torn record is unordered garbage, so the file contributes its longest
/// valid prefix. Later files still replay: they were written by a writer
/// that recovered past the tear, so their records are younger, not
/// garbage. A zero-byte file (crash between rotation and the buffered
/// header write) is a clean empty log.
///
/// With `repair` set, a torn file is truncated in place to its valid
/// prefix (a file whose header never made it is emptied), so subsequent
/// opens replay the same rows with no torn tail. The store's own
/// recovery repairs; offline inspection should not.
WalReplayResult replay_wal_dir(const std::string& dir, std::uint64_t watermark,
                               const std::function<void(Row&&)>& emit, bool repair = false);

/// Segmented, CRC-framed append log. Each append() frames one shard
/// batch as a record (split at 65535 rows, the count field's width);
/// sync() fsyncs it to stable storage, which is the store's
/// acknowledgement point. Files rotate at `segment_bytes` so
/// checkpointing can reclaim whole files once their rows are sealed
/// into durable segments (remove_obsolete) — its own files and the ones
/// a recovery replayed and handed it alike.
///
/// Crash fault injection for the recovery property tests: after
/// fail_after_bytes(n), only the next n bytes reach the file — a write
/// that crosses the budget is truncated mid-record and every later byte
/// is dropped, exactly the torn tail a power cut leaves behind.
///
/// Thread safety: every public entry point serializes on an internal
/// mutex, so a future maintenance thread can checkpoint (remove_obsolete)
/// concurrently with the ingest path's append/sync without torn file
/// rotation. The guarded-by annotations below are enforced by the clang
/// -Wthread-safety CI legs.
class WalWriter {
 public:
  struct Options {
    std::string dir;                            // empty = disabled (in-memory store)
    std::uint64_t segment_bytes = 1ull << 20u;  // rotate after ~1 MiB
  };

  WalWriter() = default;
  /// `recovered` lists the files already in `options.dir`, in index
  /// order (WalReplayResult::wal_files): the writer numbers its own
  /// files after them and reclaims them like its own.
  NETSEER_BLOCKING explicit WalWriter(const Options& options,
                                      const std::vector<WalFileRef>& recovered = {});
  NETSEER_BLOCKING ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  [[nodiscard]] bool enabled() const { return !options_.dir.empty(); }

  /// Frame `rows` (which already carry consecutive LSNs) as one record
  /// — or several, in row order, when they exceed the u16 row count —
  /// and append it. Returns false once the writer is dead (fault budget
  /// exhausted or an I/O error), in which case nothing more will reach
  /// disk — the store keeps running in memory, counting the failure.
  [[nodiscard]] NETSEER_BLOCKING bool append(std::span<const Row> rows)
      NETSEER_EXCLUDES(mu_);

  /// Flush buffered bytes and fsync them (file, plus its directory entry
  /// the first time after a rotation). Rows appended before a successful
  /// sync() are the store's acknowledged (durable) set.
  [[nodiscard]] NETSEER_BLOCKING bool sync() NETSEER_EXCLUDES(mu_);

  /// Delete every closed WAL file whose rows are all at or below
  /// `sealed_watermark`, rotating away from the current file first when
  /// everything in it is covered too. Returns files deleted.
  NETSEER_BLOCKING std::size_t remove_obsolete(std::uint64_t sealed_watermark)
      NETSEER_EXCLUDES(mu_);

  /// Fault injection: allow only `budget` more bytes to reach disk.
  void fail_after_bytes(std::uint64_t budget) NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    fail_armed_ = true;
    fail_budget_ = budget;
  }
  [[nodiscard]] bool dead() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return dead_;
  }

  [[nodiscard]] std::uint64_t bytes_written() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t records_written() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return records_written_;
  }
  [[nodiscard]] std::uint64_t syncs() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return syncs_;
  }
  [[nodiscard]] std::uint64_t files_opened() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return files_opened_;
  }
  [[nodiscard]] std::uint64_t files_deleted() const NETSEER_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return files_deleted_;
  }

 private:
  struct FileInfo {
    std::uint32_t index = 0;
    std::string path;
    std::uint64_t max_lsn = 0;
    bool open = false;
  };

  NETSEER_BLOCKING bool open_next_file() NETSEER_REQUIRES(mu_);
  NETSEER_BLOCKING void close_current() NETSEER_REQUIRES(mu_);
  /// Frame up to kWalMaxRecordRows rows as one record (append's unit).
  [[nodiscard]] NETSEER_BLOCKING bool append_record(std::span<const Row> rows)
      NETSEER_REQUIRES(mu_);
  /// Write through the fault gate; flips dead_ when the budget runs out.
  NETSEER_BLOCKING bool write_raw(const std::byte* data, std::size_t n)
      NETSEER_REQUIRES(mu_);

  Options options_;  // immutable after construction: read lock-free

  /// Serializes every writer entry point; mutable so the read-only
  /// counter accessors can lock on a const writer.
  mutable util::Mutex mu_;

  std::FILE* file_ NETSEER_GUARDED_BY(mu_) = nullptr;
  /// Reusable scratch: record payload encode target and the stdio
  /// buffer handed to setvbuf (must outlive the FILE it backs).
  std::vector<std::byte> payload_ NETSEER_GUARDED_BY(mu_);
  std::vector<char> iobuf_ NETSEER_GUARDED_BY(mu_);
  std::uint32_t next_index_ NETSEER_GUARDED_BY(mu_) = 1;
  std::uint64_t current_bytes_ NETSEER_GUARDED_BY(mu_) = 0;
  // dirent of the current file fsynced?
  bool current_dir_synced_ NETSEER_GUARDED_BY(mu_) = false;
  std::vector<FileInfo> files_ NETSEER_GUARDED_BY(mu_);

  bool fail_armed_ NETSEER_GUARDED_BY(mu_) = false;
  std::uint64_t fail_budget_ NETSEER_GUARDED_BY(mu_) = 0;
  bool dead_ NETSEER_GUARDED_BY(mu_) = false;

  std::uint64_t bytes_written_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t records_written_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t syncs_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t files_opened_ NETSEER_GUARDED_BY(mu_) = 0;
  std::uint64_t files_deleted_ NETSEER_GUARDED_BY(mu_) = 0;
};

}  // namespace netseer::store
