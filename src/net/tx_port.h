#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/node.h"
#include "sim/simulator.h"
#include "util/annotations.h"
#include "util/rate.h"

namespace netseer::net {

/// An output port: eight priority queues, a strict-priority scheduler, a
/// line-rate transmitter, and 802.1Qbb per-class pause state. Used both by
/// switch egress ports (behind the MMU's admission control) and by host
/// NICs (directly). Each queue is a ring of frame handles, allocated on
/// the class's first enqueue and doubled when full, so a steady-state
/// enqueue or dequeue never touches the allocator; a bitmask of backlogged
/// classes lets the scheduler skip empty ones.
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

  [[nodiscard]] util::BitRate rate() const { return rate_; }

  /// Unconditional enqueue. Admission control (MMU limits) is the
  /// caller's job; the port itself never drops.
  NETSEER_HOT void enqueue(packet::PooledPacket pkt, util::QueueId queue);

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
  /// FIFO of frame handles: a power-of-two array used as a ring.
  class Ring {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    NETSEER_HOT void push(packet::PooledPacket pkt);
    /// Take the oldest handle; the ring must not be empty.
    [[nodiscard]] NETSEER_HOT packet::PooledPacket pop();

   private:
    static constexpr std::uint32_t kInitialSlots = 16;
    /// Full (or never used): move the handles, oldest first, into twice
    /// the slots. The only allocating branch of push().
    NETSEER_HOT_ALLOW_INIT void grow();

    std::unique_ptr<packet::PooledPacket[]> slots_;
    std::uint32_t capacity_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
  };

  NETSEER_HOT void maybe_start_transmission();
  [[nodiscard]] int pick_queue() const;

  sim::Simulator& sim_;
  util::BitRate rate_;
  PacketSink* out_ = nullptr;
  DequeueHook dequeue_hook_;
  std::array<Ring, util::kNumQueues> queues_;
  /// Bit q set while queue q holds a frame.
  std::uint8_t backlogged_ = 0;
  std::array<std::int64_t, util::kNumQueues> queue_bytes_{};
  std::array<util::SimTime, util::kNumQueues> paused_until_{};
  bool busy_ = false;
  std::uint64_t tx_packets_ = 0;
};

}  // namespace netseer::net
