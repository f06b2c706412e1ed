#include "net/tx_port.h"

#include <bit>

namespace netseer::net {

void TxPort::Ring::push(packet::PooledPacket pkt) {
  if (size_ == capacity_) grow();
  slots_[(head_ + size_) & (capacity_ - 1)] = std::move(pkt);
  ++size_;
}

packet::PooledPacket TxPort::Ring::pop() {
  packet::PooledPacket front = std::move(slots_[head_]);
  head_ = (head_ + 1) & (capacity_ - 1);
  --size_;
  return front;
}

void TxPort::Ring::grow() {
  const std::uint32_t capacity = capacity_ == 0 ? kInitialSlots : 2 * capacity_;
  auto slots = std::make_unique<packet::PooledPacket[]>(capacity);
  for (std::uint32_t i = 0; i < size_; ++i) {
    slots[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
  }
  slots_ = std::move(slots);
  capacity_ = capacity;
  head_ = 0;
}

void TxPort::enqueue(packet::PooledPacket pkt, util::QueueId queue) {
  pkt->meta.enqueue_time = sim_.now();
  pkt->meta.queue = queue;
  queue_bytes_[queue] += pkt->wire_bytes();
  queues_[queue].push(std::move(pkt));
  backlogged_ |= static_cast<std::uint8_t>(1u << queue);
  maybe_start_transmission();
}

std::int64_t TxPort::total_bytes() const {
  std::int64_t total = 0;
  for (auto b : queue_bytes_) total += b;
  return total;
}

void TxPort::apply_pause(util::QueueId queue, std::uint16_t quanta) {
  if (quanta == 0) {
    paused_until_[queue] = 0;
    maybe_start_transmission();
    return;
  }
  // One quantum is 512 bit-times at the port rate.
  const util::SimDuration pause_time =
      rate_.is_zero() ? 0 : rate_.serialization_delay(static_cast<std::int64_t>(quanta) * 64);
  paused_until_[queue] = sim_.now() + pause_time;
  // Re-kick the scheduler when the pause lapses (a RESUME may come first).
  (void)sim_.schedule_at(paused_until_[queue], [this] { maybe_start_transmission(); });
}

bool TxPort::is_paused(util::QueueId queue) const {
  return paused_until_[queue] > sim_.now();
}

int TxPort::pick_queue() const {
  // Strict priority: the highest backlogged class that is not paused.
  for (unsigned waiting = backlogged_; waiting != 0;) {
    const int q = static_cast<int>(std::bit_width(waiting)) - 1;
    if (!is_paused(static_cast<util::QueueId>(q))) return q;
    waiting &= ~(1u << q);
  }
  return -1;
}

void TxPort::maybe_start_transmission() {
  if (out_ == nullptr) return;
  if (sim_.now() < busy_until_) {
    kick_if_backlogged();
    return;
  }
  const int q = pick_queue();
  if (q < 0) return;

  Ring& ring = queues_[q];
  packet::PooledPacket slot = ring.pop();
  if (ring.empty()) backlogged_ &= static_cast<std::uint8_t>(~(1u << q));
  packet::Packet& pkt = *slot;
  const std::uint32_t bytes = pkt.wire_bytes();
  queue_bytes_[q] -= bytes;

  if (dequeue_hook_) {
    dequeue_hook_(pkt, static_cast<util::QueueId>(q), sim_.now() - pkt.meta.enqueue_time);
  }

  const util::SimDuration ser = rate_.serialization_delay(pkt.wire_bytes());
  busy_until_ = sim_.now() + ser;
  ++tx_packets_;
  out_->send(std::move(slot), ser);
  kick_if_backlogged();
}

void TxPort::kick_if_backlogged() {
  if (backlogged_ == 0 || kick_pending_) return;
  kick_pending_ = true;
  (void)sim_.schedule_at(busy_until_, [this] { kick(); });
}

void TxPort::kick() {
  kick_pending_ = false;
  maybe_start_transmission();
}

}  // namespace netseer::net
