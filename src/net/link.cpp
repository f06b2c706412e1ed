#include "net/link.h"

namespace netseer::net {

void Link::send(packet::PooledPacket slot) {
  packet::Packet& pkt = *slot;
  if (!up_) {
    ++dropped_;
    if (observer_) observer_->on_link_fault(pkt, from_node_, peer_.id(), LinkFault::kSilentDrop);
    return;
  }

  // Gilbert-Elliott state transition, evaluated per packet.
  if (in_burst_) {
    if (rng_.chance(faults_.burst_exit_prob)) in_burst_ = false;
  } else if (faults_.burst_enter_prob > 0.0) {
    if (rng_.chance(faults_.burst_enter_prob)) in_burst_ = true;
  }

  if (roll(faults_.drop_prob, faults_.burst_drop_prob)) {
    ++dropped_;
    if (observer_) observer_->on_link_fault(pkt, from_node_, peer_.id(), LinkFault::kSilentDrop);
    return;
  }
  if (roll(faults_.corrupt_prob, faults_.burst_corrupt_prob)) {
    ++corrupted_;
    pkt.corrupted = true;
    if (observer_) observer_->on_link_fault(pkt, from_node_, peer_.id(), LinkFault::kCorruption);
    // Corrupted frames still propagate; the downstream MAC discards them.
  }

  ++carried_;
  bytes_carried_ += pkt.wire_bytes();
  // The hop capture (this + handle) stays inside the Task's inline
  // buffer: no heap traffic and no Packet copy per hop.
  (void)sim_.schedule_after(delay_, [this, slot = std::move(slot)]() mutable {
    peer_.receive(std::move(slot), peer_port_);
  });
}

}  // namespace netseer::net
