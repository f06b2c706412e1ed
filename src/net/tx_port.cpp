#include "net/tx_port.h"

namespace netseer::net {

void TxPort::set_up(bool up) {
  up_ = up;
  if (up_) maybe_start_transmission();
}

void TxPort::enqueue(packet::PooledPacket pkt, util::QueueId queue) {
  pkt->meta.enqueue_time = sim_.now();
  pkt->meta.queue = queue;
  queue_bytes_[queue] += pkt->wire_bytes();
  queues_[queue].push_back(std::move(pkt));
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
  // Strict priority, highest class first.
  for (int q = util::kNumQueues - 1; q >= 0; --q) {
    if (!queues_[q].empty() && !is_paused(static_cast<util::QueueId>(q))) return q;
  }
  return -1;
}

void TxPort::maybe_start_transmission() {
  if (busy_ || !up_ || out_ == nullptr) return;
  const int q = pick_queue();
  if (q < 0) return;

  packet::PooledPacket slot = std::move(queues_[q].front());
  queues_[q].pop_front();
  packet::Packet& pkt = *slot;
  const std::uint32_t bytes = pkt.wire_bytes();
  queue_bytes_[q] -= bytes;

  if (dequeue_hook_) {
    dequeue_hook_(pkt, static_cast<util::QueueId>(q), sim_.now() - pkt.meta.enqueue_time);
  }

  busy_ = true;
  const util::SimDuration ser = rate_.serialization_delay(pkt.wire_bytes());
  ++tx_packets_;
  tx_bytes_ += pkt.wire_bytes();
  (void)sim_.schedule_after(ser, [this, slot = std::move(slot)]() mutable {
    busy_ = false;
    if (out_ != nullptr && up_) out_->send(std::move(slot));
    maybe_start_transmission();
  });
}

}  // namespace netseer::net
