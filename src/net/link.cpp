#include "net/link.h"

namespace netseer::net {

void Link::send(packet::PooledPacket slot) {
  packet::Packet& pkt = *slot;
  if (rng_.chance(faults_.drop_prob)) {
    ++dropped_;
    if (observer_) observer_->on_link_fault(pkt, from_node_, peer_.id(), LinkFault::kSilentDrop);
    return;
  }
  if (rng_.chance(faults_.corrupt_prob)) {
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
