#pragma once

#include <cstdint>
#include <vector>

#include "pdp/switch.h"
#include "sim/simulator.h"

namespace netseer::monitors {

/// SNMP-style counter polling [RFC 1157 era]: periodically reads each
/// switch's aggregate drop counters. It can tell *that* a device dropped
/// packets within a poll interval — never *whose* packets (the Case-#2
/// pain in §2.1). Flow-level coverage is zero by construction.
class SnmpMonitor {
 public:
  struct Poll {
    util::SimTime at;
    util::NodeId node;
    std::uint64_t total_drops;      // cumulative
    std::uint64_t drops_delta;      // since previous poll
    std::uint64_t congestion_drops; // cumulative MMU drops
  };

  SnmpMonitor(sim::Simulator& sim, std::vector<pdp::Switch*> switches,
              util::SimDuration interval)
      : switches_(std::move(switches)) {
    last_.resize(switches_.size(), 0);
    task_ = sim.schedule_every(interval, [this, &sim] { poll(sim.now()); });
  }
  ~SnmpMonitor() { stop(); }

  /// Cancel the polling task (required before draining the simulator).
  void stop() { task_.cancel(); }

  /// Did any poll show new drops at `node`? (Existence-level detection.)
  [[nodiscard]] bool saw_drops_at(util::NodeId node) const {
    for (const auto& poll : polls_) {
      if (poll.node == node && poll.drops_delta > 0) return true;
    }
    return false;
  }

  /// ~100 B per switch per poll of management traffic.
  [[nodiscard]] std::uint64_t overhead_bytes() const { return polls_.size() * 100; }

  void poll(util::SimTime now) {
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      const auto total = switches_[i]->total_drops();
      polls_.push_back(Poll{now, switches_[i]->id(), total, total - last_[i],
                            switches_[i]->drops(pdp::DropReason::kCongestion)});
      last_[i] = total;
    }
  }

 private:
  std::vector<pdp::Switch*> switches_;
  std::vector<std::uint64_t> last_;
  std::vector<Poll> polls_;
  sim::TaskHandle task_;
};

}  // namespace netseer::monitors
