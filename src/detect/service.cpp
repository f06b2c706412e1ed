#include "detect/service.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "store/format.h"
#include "util/hash.h"
#include "util/sync.h"

namespace netseer::detect {

namespace {

/// Rows per Subscription::poll() round inside one pump.
constexpr std::size_t kPollBatch = 4096;

/// The checkpoint the service resumes from, read once at construction.
DetectServiceStats resume_stats(const DetectOptions& options) {
  DetectServiceStats stats;
  if (options.checkpoint_path.empty()) return stats;
  if (const auto lsn = DetectService::load_checkpoint(options.checkpoint_path)) {
    stats.resumed = true;
    stats.resumed_lsn = *lsn;
  }
  return stats;
}

}  // namespace

DetectService::DetectService(const store::FlowEventStore& store, DetectOptions options)
    : options_(std::move(options)), alerts_(options_.rules),
      // Invoked only from pump_locked()/finish() with mu_ held; the
      // analysis cannot see through the std::function indirection.
      sink_([this](const WindowResult& win) NETSEER_NO_THREAD_SAFETY_ANALYSIS {
        alerts_.observe(win);
      }),
      stats_(resume_stats(options_)),
      sub_(store.subscribe(backend::EventQuery{},
                           stats_.resumed ? stats_.resumed_lsn : options_.from_lsn)) {
  engines_.reserve(options_.rules.rules.size());
  for (const Rule& rule : options_.rules.rules) engines_.emplace_back(rule, options_.rules);
}

std::size_t DetectService::pump() {
  util::MutexLock lock(mu_);
  return pump_locked();
}

std::size_t DetectService::pump_locked() {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = sub_.poll(
        [&](const backend::StoredEvent& row, std::uint64_t /*lsn*/) {
          for (auto& engine : engines_) engine.offer(row, sink_);
          if (row.event.detected_at > watermark_) watermark_ = row.event.detected_at;
        },
        kPollBatch);
    if (n == 0) break;
    total += n;
  }
  if (total != 0) {
    for (auto& engine : engines_) engine.advance(watermark_, sink_);
    // Checkpoint strictly after the rows are applied: a crash between
    // apply and checkpoint replays those rows (at-least-once within the
    // crashed pump), a crash anywhere else is exactly-once.
    if (!options_.checkpoint_path.empty() &&
        save_checkpoint(options_.checkpoint_path, sub_.last_lsn())) {
      ++stats_.checkpoints;
    }
  }
  ++stats_.pumps;
  stats_.rows += total;
  return total;
}

void DetectService::finish() {
  util::MutexLock lock(mu_);
  if (finished_) return;
  finished_ = true;
  // Push the watermark one full window past the last event so every
  // open window closes through its detector.
  const util::SimTime flush = watermark_ + options_.rules.window + options_.rules.lateness;
  for (auto& engine : engines_) engine.advance(flush, sink_);
}

namespace {

constexpr char kCheckpointMagic[4] = {'N', 'S', 'D', 'C'};
constexpr std::uint16_t kCheckpointVersion = 1;

struct CheckpointPayload {
  std::uint16_t version;
  std::uint16_t reserved;
  std::uint64_t lsn;
};

}  // namespace

bool DetectService::save_checkpoint(const std::string& path, std::uint64_t lsn) {
  CheckpointPayload payload{kCheckpointVersion, 0, lsn};
  unsigned char buf[4 + 12 + 4];
  std::memcpy(buf, kCheckpointMagic, 4);
  std::memcpy(buf + 4, &payload.version, 2);
  std::memcpy(buf + 6, &payload.reserved, 2);
  std::memcpy(buf + 8, &payload.lsn, 8);
  const std::uint32_t crc =
      util::crc32(std::as_bytes(std::span<const unsigned char>(buf + 4, 12)));
  std::memcpy(buf + 16, &crc, 4);

  // Write, fsync, rename, fsync the directory, as Segment::save does: a
  // crash mid-write leaves the previous checkpoint intact (replay-some
  // beats skip-some), and the rename never survives a power cut that the
  // bytes it names do not.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool synced =
      std::fwrite(buf, 1, sizeof(buf), f) == sizeof(buf) && store::sync_file(f);
  const bool closed = std::fclose(f) == 0;
  std::error_code ec;
  if (!synced || !closed) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) return false;
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  store::sync_dir(dir.empty() ? "." : dir.string());
  return true;
}

std::optional<std::uint64_t> DetectService::load_checkpoint(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  unsigned char buf[4 + 12 + 4];
  const bool ok = std::fread(buf, 1, sizeof(buf), f) == sizeof(buf);
  std::fclose(f);
  if (!ok || std::memcmp(buf, kCheckpointMagic, 4) != 0) return std::nullopt;
  std::uint16_t version = 0;
  std::memcpy(&version, buf + 4, 2);
  if (version != kCheckpointVersion) return std::nullopt;
  std::uint32_t crc = 0;
  std::memcpy(&crc, buf + 16, 4);
  if (crc != util::crc32(std::as_bytes(std::span<const unsigned char>(buf + 4, 12)))) {
    return std::nullopt;
  }
  std::uint64_t lsn = 0;
  std::memcpy(&lsn, buf + 8, 8);
  return lsn;
}

}  // namespace netseer::detect
