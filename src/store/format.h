#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "backend/event_query.h"
#include "core/event.h"
#include "util/annotations.h"
#include "util/hash.h"
#include "util/ids.h"
#include "util/time.h"

namespace netseer::store {

/// On-disk building blocks shared by the WAL and segment files. All
/// multi-byte integers are little-endian, written byte by byte so the
/// format is host-independent.
///
/// Row: one StoredEvent as persisted everywhere in this subsystem — the
/// 24-byte event wire encoding (§4) plus the backend-side metadata:
///
///   event(24) | switch_id u32 | detected_at i64 | stored_at i64   = 44 B
///
/// WAL file:   header "NSWL" | version u16 | reserved u16, then records:
///   record:   magic u16 | kind u8 | reserved u8 | count u16 | pad u16 |
///             first_lsn u64 | crc u32, then count rows.
///             crc is CRC-32 over the header (with the crc field zeroed)
///             and the payload, so a flipped bit anywhere in the record
///             is detected. Within one file, replay stops at the first
///             incomplete or CRC-failing record — the torn tail a crash
///             leaves — but later files (written by a recovered writer)
///             still replay.
///
/// Segment file: header "NSSG" | version u16 | reserved u16 | count u64 |
///               min_lsn u64 | max_lsn u64 | min_time i64 | max_time i64,
///               then count rows, then a CRC-32 footer over header+rows.
///
/// LSNs are assigned when a shard batch is flushed into the WAL, so the
/// log is strictly monotonic and a single watermark (the max LSN sealed
/// into durable segments) tells recovery which WAL suffix to replay.

inline constexpr std::size_t kRowBytes = core::FlowEvent::kWireSize + 4 + 8 + 8;  // 44

inline constexpr char kWalFileMagic[4] = {'N', 'S', 'W', 'L'};
inline constexpr char kSegFileMagic[4] = {'N', 'S', 'S', 'G'};
inline constexpr std::uint16_t kStoreVersion = 1;

inline constexpr std::uint16_t kWalRecordMagic = 0x57a1;
inline constexpr std::uint8_t kWalRecordBatch = 1;

/// The record header's row count is a u16; larger batches are framed as
/// several records rather than letting the count wrap.
inline constexpr std::size_t kWalMaxRecordRows = 0xffff;

inline constexpr std::size_t kWalFileHeaderBytes = 8;
inline constexpr std::size_t kWalRecordHeaderBytes = 20;
inline constexpr std::size_t kSegHeaderBytes = 48;

/// Little-endian scalar encode/decode over a raw byte cursor.
template <typename T>
inline void put_le(std::byte* out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::byte>((static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
  }
}

template <typename T>
[[nodiscard]] inline T get_le(const std::byte* in) {
  std::uint64_t accum = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    accum |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in[i])) << (8 * i);
  }
  return static_cast<T>(accum);
}

/// Encode one stored event into the canonical 44-byte row at `out`
/// (which must have kRowBytes of space). The in-place form lets bulk
/// writers (WAL records, segment bodies) encode straight into one
/// contiguous buffer instead of copying per-row arrays around.
inline void encode_row_to(std::byte* out, const backend::StoredEvent& stored) {
  const auto wire = stored.event.serialize();
  std::copy(wire.begin(), wire.end(), out);
  put_le<std::uint32_t>(out + 24, stored.event.switch_id);
  put_le<std::int64_t>(out + 28, stored.event.detected_at);
  put_le<std::int64_t>(out + 36, stored.stored_at);
}

/// Encode one stored event into the canonical 44-byte row.
[[nodiscard]] inline std::array<std::byte, kRowBytes> encode_row(
    const backend::StoredEvent& stored) {
  std::array<std::byte, kRowBytes> row{};
  encode_row_to(row.data(), stored);
  return row;
}

/// Decode a row; nullopt when the embedded event encoding is invalid
/// (e.g. an unknown event type byte).
[[nodiscard]] inline std::optional<backend::StoredEvent> decode_row(
    std::span<const std::byte> row) {
  if (row.size() < kRowBytes) return std::nullopt;
  auto event =
      core::FlowEvent::parse(std::span<const std::byte, core::FlowEvent::kWireSize>(
          row.data(), core::FlowEvent::kWireSize));
  if (!event) return std::nullopt;
  event->switch_id = get_le<std::uint32_t>(row.data() + 24);
  event->detected_at = get_le<std::int64_t>(row.data() + 28);
  backend::StoredEvent stored;
  stored.event = *event;
  stored.stored_at = get_le<std::int64_t>(row.data() + 36);
  return stored;
}

/// Flush a stdio stream all the way to stable storage (fflush + fsync),
/// not just to the OS page cache. Durability acknowledgements (WAL
/// sync(), segment seals) go through this.
[[nodiscard]] NETSEER_BLOCKING inline bool sync_file(std::FILE* f) {
  if (std::fflush(f) != 0) return false;
#if defined(_WIN32)
  return true;  // best effort: no fsync equivalent through stdio here
#else
  return ::fsync(fileno(f)) == 0;
#endif
}

/// fsync a directory so file creations/renames inside it are themselves
/// durable (a renamed segment is not safe until its dirent is).
NETSEER_BLOCKING inline void sync_dir(const std::string& dir) {
#if !defined(_WIN32)
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)dir;
#endif
}

/// One stored event plus the log position that made it durable. The LSN
/// is the store's total order: queries return rows sorted by it.
struct Row {
  backend::StoredEvent stored;
  std::uint64_t lsn = 0;
};

}  // namespace netseer::store
