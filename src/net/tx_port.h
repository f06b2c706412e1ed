#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "net/node.h"
#include "sim/simulator.h"
#include "util/rate.h"

namespace netseer::net {

/// An output port: eight priority queues, a strict-priority scheduler, a
/// line-rate transmitter, and 802.1Qbb per-class pause state. Used both by
/// switch egress ports (behind the MMU's admission control) and by host
/// NICs (directly).
class TxPort {
 public:
  /// Called when a packet is dequeued for transmission, before it goes on
  /// the wire — the egress-pipeline attachment point. `queue_delay` is the
  /// residence time in the queue.
  using DequeueHook =
      std::function<void(packet::Packet&, util::QueueId, util::SimDuration queue_delay)>;

  TxPort(sim::Simulator& sim, util::BitRate rate) : sim_(sim), rate_(rate) {}

  void set_out(PacketSink* out) { out_ = out; }
  [[nodiscard]] PacketSink* out() const { return out_; }
  void set_dequeue_hook(DequeueHook hook) { dequeue_hook_ = std::move(hook); }

  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  [[nodiscard]] util::BitRate rate() const { return rate_; }

  /// Unconditional enqueue. Admission control (MMU limits) is the
  /// caller's job; the port itself never drops.
  void enqueue(packet::PooledPacket pkt, util::QueueId queue);

  /// Bytes currently queued in `queue`.
  [[nodiscard]] std::int64_t queue_bytes(util::QueueId queue) const {
    return queue_bytes_[queue];
  }
  [[nodiscard]] std::size_t queue_depth(util::QueueId queue) const {
    return queues_[queue].size();
  }
  [[nodiscard]] std::int64_t total_bytes() const;

  /// PFC pause handling (applied by the owner when a pause frame arrives).
  /// quanta are in 512-bit times at the port rate; 0 resumes.
  void apply_pause(util::QueueId queue, std::uint16_t quanta);
  [[nodiscard]] bool is_paused(util::QueueId queue) const;

  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }

 private:
  void maybe_start_transmission();
  [[nodiscard]] int pick_queue() const;

  sim::Simulator& sim_;
  util::BitRate rate_;
  PacketSink* out_ = nullptr;
  DequeueHook dequeue_hook_;
  std::array<std::deque<packet::PooledPacket>, util::kNumQueues> queues_;
  std::array<std::int64_t, util::kNumQueues> queue_bytes_{};
  std::array<util::SimTime, util::kNumQueues> paused_until_{};
  bool up_ = true;
  bool busy_ = false;
  std::uint64_t tx_packets_ = 0;
};

}  // namespace netseer::net
