#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/annotations.h"
#include "util/ids.h"
#include "util/time.h"

namespace netseer::core {

struct PathChangeConfig {
  /// Flow-table entries (hash-indexed, one flow each). Limited on purpose:
  /// collisions and expiry make some old flows look new again, which the
  /// paper accepts ("slightly more flows reported as new ones", §3.3).
  std::size_t entries = 8192;
  /// Idle time after which a flow's path record expires.
  util::SimDuration expiry = util::milliseconds(100);
};

/// Learns each flow's (ingress port, egress port) at this switch and
/// reports the first packet of a new flow, or of an old flow whose ports
/// changed, as a path-change event packet (§3.3). A flow is known by its
/// 64-bit hash (FlowKey::hash64): the slot index and the stored
/// identity both come from the hash the frame already carries.
class PathChangeDetector {
 public:
  enum class Observation : std::uint8_t { kKnownPath, kNewFlow, kPathChanged };

  explicit PathChangeDetector(const PathChangeConfig& config)
      : config_(config), slots_(config.entries) {}

  /// Record one forwarded packet of the flow hashing to `flow_hash`;
  /// reports whether its path is news.
  NETSEER_HOT Observation observe(std::uint64_t flow_hash, util::PortId in_port,
                                  util::PortId out_port, util::SimTime now) {
    if (slots_.empty()) return Observation::kNewFlow;
    Slot& slot = slots_[flow_hash % slots_.size()];
    const bool expired = slot.last_seen + config_.expiry < now;

    if (slot.valid && !expired && slot.flow_hash == flow_hash) {
      slot.last_seen = now;
      if (slot.in_port == in_port && slot.out_port == out_port) {
        return Observation::kKnownPath;
      }
      slot.in_port = in_port;
      slot.out_port = out_port;
      ++changes_;
      return Observation::kPathChanged;
    }

    // New flow, expired entry, or collision eviction: (re)learn.
    slot.valid = true;
    slot.flow_hash = flow_hash;
    slot.in_port = in_port;
    slot.out_port = out_port;
    slot.last_seen = now;
    return Observation::kNewFlow;
  }

  [[nodiscard]] std::uint64_t changes() const { return changes_; }

 private:
  struct Slot {
    std::uint64_t flow_hash = 0;
    util::SimTime last_seen = 0;
    util::PortId in_port = util::kInvalidPort;
    util::PortId out_port = util::kInvalidPort;
    bool valid = false;
  };

  PathChangeConfig config_;
  std::vector<Slot> slots_;
  std::uint64_t changes_ = 0;
};

}  // namespace netseer::core
