#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"

namespace netseer::pdp {

struct MmuConfig {
  /// Per egress queue byte limit (tail drop beyond it).
  std::int64_t queue_capacity_bytes = 300 * 1024;
  /// PFC thresholds on per-(ingress port, class) buffer usage.
  /// xoff == 0 disables PFC generation entirely.
  std::int64_t pfc_xoff_bytes = 0;
  std::int64_t pfc_xon_bytes = 0;
};

/// The memory-management-unit model: tail-drop admission against per-queue
/// limits plus ingress-side buffer accounting for PFC generation, the two
/// behaviours NetSeer's congestion/pause detection hangs off.
class Mmu {
 public:
  enum class PfcAction : std::uint8_t { kNone, kPause, kResume };

  Mmu(const MmuConfig& config, std::size_t num_ports)
      : config_(config), ingress_bytes_(num_ports * util::kNumQueues, 0),
        upstream_paused_(num_ports * util::kNumQueues, false) {}

  [[nodiscard]] const MmuConfig& config() const { return config_; }

  /// Tail-drop admission: can a packet of `pkt_bytes` join a queue that
  /// currently holds `queue_bytes`?
  [[nodiscard]] bool admit(std::int64_t queue_bytes, std::uint32_t pkt_bytes) const {
    return queue_bytes + pkt_bytes <= config_.queue_capacity_bytes;
  }

  /// Account an admitted packet against its ingress (port, class) buffer.
  /// Returns kPause when usage crosses XOFF and the upstream is not yet
  /// paused.
  PfcAction on_enqueue(util::PortId ingress, util::QueueId cls, std::uint32_t bytes) {
    if (ingress == util::kInvalidPort) return PfcAction::kNone;
    auto& usage = ingress_bytes_[index(ingress, cls)];
    usage += bytes;
    if (usage > peak_ingress_bytes_) peak_ingress_bytes_ = usage;
    if (config_.pfc_xoff_bytes > 0 && usage >= config_.pfc_xoff_bytes &&
        !upstream_paused_[index(ingress, cls)]) {
      upstream_paused_[index(ingress, cls)] = true;
      ++pauses_generated_;
      return PfcAction::kPause;
    }
    return PfcAction::kNone;
  }

  /// Release buffer on dequeue; returns kResume when usage falls to XON
  /// while the upstream is paused.
  PfcAction on_dequeue(util::PortId ingress, util::QueueId cls, std::uint32_t bytes) {
    if (ingress == util::kInvalidPort) return PfcAction::kNone;
    auto& usage = ingress_bytes_[index(ingress, cls)];
    usage -= bytes;
    if (usage < 0) usage = 0;
    if (upstream_paused_[index(ingress, cls)] && usage <= config_.pfc_xon_bytes) {
      upstream_paused_[index(ingress, cls)] = false;
      ++resumes_generated_;
      return PfcAction::kResume;
    }
    return PfcAction::kNone;
  }

  // ---- Telemetry surface --------------------------------------------------
  [[nodiscard]] std::uint64_t pauses_generated() const { return pauses_generated_; }
  [[nodiscard]] std::uint64_t resumes_generated() const { return resumes_generated_; }
  /// High-water mark over every (ingress port, class) buffer.
  [[nodiscard]] std::int64_t peak_ingress_bytes() const { return peak_ingress_bytes_; }

  [[nodiscard]] std::int64_t ingress_usage(util::PortId ingress, util::QueueId cls) const {
    return ingress_bytes_[index(ingress, cls)];
  }
  [[nodiscard]] bool upstream_paused(util::PortId ingress, util::QueueId cls) const {
    return upstream_paused_[index(ingress, cls)];
  }

 private:
  [[nodiscard]] std::size_t index(util::PortId port, util::QueueId cls) const {
    return static_cast<std::size_t>(port) * util::kNumQueues + cls;
  }

  MmuConfig config_;
  std::vector<std::int64_t> ingress_bytes_;
  std::vector<bool> upstream_paused_;
  std::uint64_t pauses_generated_ = 0;
  std::uint64_t resumes_generated_ = 0;
  std::int64_t peak_ingress_bytes_ = 0;
};

}  // namespace netseer::pdp
