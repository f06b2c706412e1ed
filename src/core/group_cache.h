#pragma once

#include <cstdint>
#include <vector>

#include "core/event.h"
#include "util/annotations.h"

namespace netseer::core {

struct GroupCacheConfig {
  /// Number of hash-indexed entries. Collisions cause evictions, i.e.
  /// false-positive duplicate reports — never missed events.
  std::size_t entries = 4096;
  /// Report interval constant C (Algorithm 1 line 7/11): a counter
  /// report is produced every C aggregated packets.
  std::uint32_t report_interval = 64;
};

/// Event deduplication via group caching — Algorithm 1 of the paper,
/// verbatim: a direct-indexed exact-match table keyed by flow. The first
/// packet of a flow event is ALWAYS reported (zero false negatives by
/// construction); subsequent packets of the same flow event bump a
/// counter that is re-reported every C packets. A hash collision evicts
/// the resident flow (reporting its residual count) and reports the new
/// flow — duplicate initial reports are the false positives the switch
/// CPU removes later (§3.6).
///
/// `offer` and `flush` take their emitter, a callable taking one
/// `const FlowEvent&`, as a template parameter, so a call site passes its
/// lambda without building a std::function.
class GroupCache {
 public:
  explicit GroupCache(const GroupCacheConfig& config)
      : config_(config), slots_(config.entries) {}

  /// Algorithm 1: offer one event packet's event; calls `emit` zero, one,
  /// or two times (evicted residual + new-flow report).
  template <typename Emit>
  NETSEER_HOT void offer(const FlowEvent& event, const Emit& emit) {
    ++offered_;
    if (slots_.empty()) {  // degenerate config: report everything
      emit(event);
      ++reports_;
      return;
    }
    const std::size_t index = event.flow.hash64() % slots_.size();
    Slot& slot = slots_[index];

    if (slot.valid && slot.event.flow == event.flow && slot.event.type == event.type) {
      // Same flow event: aggregate (lines 3-7).
      ++hits_;
      ++slot.count;
      slot.event = event;  // keep the freshest detail (latency, ports)
      if (slot.count >= slot.target) {
        emit_slot(slot, emit);
        slot.target += config_.report_interval;
      }
      return;
    }

    // Different flow (or empty slot): evict + replace (lines 8-12).
    ++misses_;
    if (slot.valid && slot.count > slot.reported) {
      // Residual count of the evicted flow would otherwise be lost.
      emit_slot(slot, emit);
      ++evictions_;
    } else if (slot.valid) {
      ++evictions_;
    }
    slot.valid = true;
    slot.event = event;
    slot.count = 1;
    slot.reported = 0;
    slot.target = config_.report_interval;
    emit_slot(slot, emit);
  }

  /// Flush every resident flow with unreported residual counts (used at
  /// the end of an experiment so totals reconcile).
  template <typename Emit>
  void flush(const Emit& emit) {
    for (auto& slot : slots_) {
      if (slot.valid && slot.count > slot.reported) emit_slot(slot, emit);
    }
  }

  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t reports() const { return reports_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Offers aggregated into a resident flow (same flow + type).
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  /// Offers that installed a new flow (empty slot or collision eviction —
  /// the latter are the false-merge duplicates §3.6 removes later).
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] const GroupCacheConfig& config() const { return config_; }

 private:
  struct Slot {
    bool valid = false;
    FlowEvent event{};
    std::uint32_t count = 0;     // packets aggregated since insertion
    std::uint32_t reported = 0;  // count value at the last report
    std::uint32_t target = 0;    // next report threshold
  };

  template <typename Emit>
  void emit_slot(Slot& slot, const Emit& emit) {
    FlowEvent out = slot.event;
    const std::uint32_t delta = slot.count - slot.reported;
    out.counter = delta > 0xffff ? 0xffff : static_cast<std::uint16_t>(delta);
    slot.reported = slot.count;
    emit(out);
    ++reports_;
  }

  GroupCacheConfig config_;
  std::vector<Slot> slots_;
  std::uint64_t offered_ = 0;
  std::uint64_t reports_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace netseer::core
