#include "net/link.h"

namespace netseer::net {

void Link::set_fault_model(const LinkFaultModel& model) {
  previous_faults_ = faults_;
  faults_ = model;
  faults_changed_at_ = sim_.now();
}

void Link::send(packet::PooledPacket slot, util::SimDuration serialization) {
  // The hop capture (this + handle) stays inside the Task's inline
  // buffer: no heap traffic and no Packet copy per hop.
  (void)sim_.schedule_after(serialization + delay_, [this, slot = std::move(slot)]() mutable {
    deliver(std::move(slot));
  });
}

void Link::deliver(packet::PooledPacket slot) {
  packet::Packet& pkt = *slot;
  const LinkFaultModel& faults =
      sim_.now() - delay_ < faults_changed_at_ ? previous_faults_ : faults_;
  if (rng_.chance(faults.drop_prob)) {
    ++dropped_;
    if (observer_) observer_->on_link_fault(pkt, from_node_, peer_.id(), LinkFault::kSilentDrop);
    return;
  }
  if (rng_.chance(faults.corrupt_prob)) {
    ++corrupted_;
    pkt.corrupted = true;
    if (observer_) observer_->on_link_fault(pkt, from_node_, peer_.id(), LinkFault::kCorruption);
    // Corrupted frames still arrive; the downstream MAC discards them.
  }

  ++carried_;
  peer_.receive(std::move(slot), peer_port_);
}

}  // namespace netseer::net
