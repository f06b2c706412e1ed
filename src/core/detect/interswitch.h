#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/event.h"
#include "packet/packet.h"
#include "util/annotations.h"

namespace netseer::core {

/// Control payload of a loss-notification packet (§3.3 step 4): the
/// inclusive range of missing sequence numbers the downstream observed.
/// Three redundant copies are sent on a high-priority queue.
class LossNotifyPayload final : public packet::ControlPayload {
 public:
  LossNotifyPayload(std::uint32_t start, std::uint32_t end, std::uint8_t copy)
      : start_(start), end_(end), copy_(copy) {}

  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] std::uint32_t end() const { return end_; }
  [[nodiscard]] std::uint8_t copy() const { return copy_; }

  [[nodiscard]] std::uint32_t wire_size() const override { return 12; }

 private:
  std::uint32_t start_;
  std::uint32_t end_;
  std::uint8_t copy_;
};

struct InterSwitchConfig {
  /// Ring buffer slots per port. Sizes the window of recent packets whose
  /// flow identity can be recovered after a loss (Fig. 15).
  std::size_t ring_slots = 4096;
  /// Bytes of SRAM one ring slot costs (flow 13 B, seq check bits
  /// amortized) — used for the Fig. 15 capacity accounting only.
  static constexpr std::size_t kSlotBytes = 13;
  /// A sequence jump larger than this is treated as a peer restart and
  /// resynchronized instead of reported as a giant loss.
  std::uint32_t max_gap = 1 << 20;
  /// Redundant copies per notification (paper: 3).
  int notify_copies = 3;
};

/// Upstream side (Switch-1 in Fig. 5): numbers every departing packet
/// with a consecutive 4-byte ID, caches (ID -> flow) of the last N
/// packets in a ring buffer, and answers loss notifications by reporting
/// the cached flows of the missing IDs as inter-switch drop events.
///
/// Hardware constraint modeled faithfully: ASICs cannot loop within a
/// stage, so a notification only queues the missing range; each
/// *subsequent transmitted packet* triggers exactly one ring-buffer
/// lookup (§3.3). If drops stall the link entirely, pending lookups also
/// drain on later notifications.
///
/// The ring is allocated on the port's first departure: a port that never
/// transmits (no cable, or an idle one) holds no SRAM model at all, and a
/// lookup before the first departure misses exactly as it would against
/// an all-invalid ring.
///
/// Every entry point that can recover a drop takes an emitter, called
/// once per recovered drop with (flow of the lost packet, its ID), as a
/// template parameter, so a call site passes its lambda without building
/// a std::function.
class InterSwitchTx {
 public:
  explicit InterSwitchTx(const InterSwitchConfig& config) : config_(config) {}

  /// Egress: stamp the packet's sequence shim and record it. Then use
  /// this packet as the trigger for one pending lookup.
  template <typename Emit>
  void on_tx(packet::Packet& pkt, const Emit& emit) {
    const std::uint32_t seq = next_seq_++;
    pkt.seq_tag = seq;
    if (config_.ring_slots > 0) {
      if (ring_.empty()) ring_.resize(config_.ring_slots);
      Slot& slot = ring_[seq % ring_.size()];
      slot.seq = seq;
      slot.flow = pkt.flow();
      slot.valid = true;
    }
    ++sent_;
    drain_one(emit);
  }

  /// A loss notification arrived from the downstream. Duplicate copies of
  /// a range are ignored; new ranges queue for packet-triggered lookups
  /// (one is drained immediately, standing in for the notification packet
  /// itself passing the stage).
  template <typename Emit>
  void on_notification(std::uint32_t start, std::uint32_t end, const Emit& emit) {
    ++notifications_;
    if (already_seen(start, end)) {
      ++duplicate_notifications_;
      return;
    }
    remember(start, end);
    pending_.push_back(Range{start, end});
    drain_one(emit);
  }

  /// Process up to `budget` queued lookups (used by idle flushing so a
  /// fully dead link still reports, via the switch CPU's slow path).
  template <typename Emit>
  void drain(int budget, const Emit& emit) {
    for (int i = 0; i < budget && !pending_.empty(); ++i) drain_one(emit);
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t drops_reported() const { return reported_; }
  [[nodiscard]] std::uint64_t lookup_misses() const { return lookup_misses_; }
  [[nodiscard]] std::uint64_t notifications() const { return notifications_; }
  [[nodiscard]] std::uint64_t duplicate_notifications() const {
    return duplicate_notifications_;
  }
  [[nodiscard]] bool has_pending() const { return !pending_.empty(); }
  /// The ring exists, i.e. the port has transmitted at least once.
  [[nodiscard]] bool has_ring() const { return !ring_.empty(); }

  /// SRAM this ring buffer occupies on the switch (Fig. 15 accounting):
  /// the configured size, whether or not the model has allocated it yet.
  [[nodiscard]] std::size_t sram_bytes() const {
    return config_.ring_slots * InterSwitchConfig::kSlotBytes;
  }

 private:
  struct Slot {
    bool valid = false;
    std::uint32_t seq = 0;
    packet::FlowKey flow{};
  };
  struct Range {
    std::uint32_t next;
    std::uint32_t end;  // inclusive
  };

  template <typename Emit>
  void drain_one(const Emit& emit) {
    if (pending_.empty()) return;
    Range& range = pending_.front();
    const std::uint32_t seq = range.next;
    if (range.next == range.end) {
      pending_.pop_front();
    } else {
      ++range.next;
    }
    lookup_and_emit(seq, emit);
  }

  template <typename Emit>
  void lookup_and_emit(std::uint32_t seq, const Emit& emit) {
    if (ring_.empty()) {
      ++lookup_misses_;
      return;
    }
    const Slot& slot = ring_[seq % ring_.size()];
    // The ID comparison prevents reporting a *wrong* packet after the
    // ring wrapped (§3.3: "NetSeer will not report the wrong packets").
    if (slot.valid && slot.seq == seq) {
      ++reported_;
      emit(slot.flow, seq);
    } else {
      ++lookup_misses_;
    }
  }

  [[nodiscard]] bool already_seen(std::uint32_t start, std::uint32_t end) const {
    for (const auto& seen : recent_) {
      if (seen.first == start && seen.second == end) return true;
    }
    return false;
  }
  void remember(std::uint32_t start, std::uint32_t end) {
    recent_.push_back({start, end});
    if (recent_.size() > 16) recent_.pop_front();
  }

  InterSwitchConfig config_;
  std::vector<Slot> ring_;
  std::uint32_t next_seq_ = 0;
  std::deque<Range> pending_;
  std::deque<std::pair<std::uint32_t, std::uint32_t>> recent_;
  std::uint64_t sent_ = 0;
  std::uint64_t reported_ = 0;
  std::uint64_t lookup_misses_ = 0;
  std::uint64_t notifications_ = 0;
  std::uint64_t duplicate_notifications_ = 0;
};

/// Downstream side (Switch-2 in Fig. 5): strips the sequence shim, and
/// treats non-consecutive IDs as a loss. Corrupted frames never get here
/// (the MAC discarded them), so corruption shows up as the same gap.
class InterSwitchRx {
 public:
  struct Gap {
    std::uint32_t start;
    std::uint32_t end;  // inclusive
  };

  explicit InterSwitchRx(const InterSwitchConfig& config) : config_(config) {}

  /// Inspect an arriving packet. Strips the shim. Returns the missing
  /// range when a gap is detected.
  NETSEER_HOT std::optional<Gap> on_rx(packet::Packet& pkt) {
    if (!pkt.seq_tag) return std::nullopt;
    const std::uint32_t seq = *pkt.seq_tag;
    pkt.seq_tag.reset();
    ++received_;

    if (!synced_) {
      synced_ = true;
      expected_ = seq + 1;
      return std::nullopt;
    }
    if (seq == expected_) {
      ++expected_;
      return std::nullopt;
    }
    const std::uint32_t gap = seq - expected_;  // mod 2^32
    if (gap > config_.max_gap) {
      // Peer reset (or we missed astronomically many): resync silently.
      ++resyncs_;
      expected_ = seq + 1;
      return std::nullopt;
    }
    Gap missing{expected_, seq - 1};
    gap_packets_ += gap;
    ++gaps_;
    expected_ = seq + 1;
    return missing;
  }

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t gaps() const { return gaps_; }
  [[nodiscard]] std::uint64_t gap_packets() const { return gap_packets_; }
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

 private:
  InterSwitchConfig config_;
  bool synced_ = false;
  std::uint32_t expected_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t gaps_ = 0;
  std::uint64_t gap_packets_ = 0;
  std::uint64_t resyncs_ = 0;
};

/// Build one copy of a loss-notification packet (the caller sends
/// notify_copies of them on the high-priority queue).
[[nodiscard]] packet::Packet make_loss_notification(std::uint32_t start, std::uint32_t end,
                                                    std::uint8_t copy);

}  // namespace netseer::core
