#include "net/host.h"

namespace netseer::net {

Host::Host(sim::Simulator& sim, util::NodeId id, std::string name, packet::Ipv4Addr addr,
           util::BitRate nic_rate)
    : Node(id, std::move(name)), sim_(sim), addr_(addr), tx_(sim, nic_rate) {
  // The NIC numbers frames as they depart, as a switch does in its
  // egress pipeline, so the IDs the ToR sees stay consecutive when a
  // higher class overtakes frames queued earlier.
  tx_.set_dequeue_hook([this](packet::Packet& pkt, util::QueueId, util::SimDuration) {
    if (nic_agent_) nic_agent_->on_tx(*this, pkt);
  });
}

void Host::send(packet::Packet&& frame) {
  // Defaults first: the pool stamps the flow hash from the final 5-tuple.
  if (frame.eth.src == packet::MacAddr{}) frame.eth.src = mac();
  if (frame.ip && frame.ip->src == packet::Ipv4Addr{}) frame.ip->src = addr_;
  frame.meta.created_time = sim_.now();
  packet::PooledPacket slot = packet::Pool::local().acquire(std::move(frame));
  const util::QueueId queue = queue_for(*slot);
  tx_.enqueue(std::move(slot), queue);
}

void Host::receive(packet::PooledPacket slot, util::PortId in_port) {
  packet::Packet& pkt = *slot;
  pkt.meta.ingress_port = in_port;

  // MAC layer: FCS failure discards the frame before anything sees it.
  if (pkt.corrupted) {
    ++rx_corrupt_;
    return;
  }

  if (nic_agent_ && !nic_agent_->on_rx(*this, pkt)) return;

  // PFC pause aimed at the host NIC.
  if (pkt.kind == packet::PacketKind::kPfc && pkt.pfc) {
    for (std::uint8_t cls = 0; cls < util::kNumQueues; ++cls) {
      if (pkt.pfc->class_enable & (1u << cls)) tx_.apply_pause(cls, pkt.pfc->pause_quanta[cls]);
    }
    return;
  }

  ++rx_packets_;

  if (pkt.kind == packet::PacketKind::kProbe && pkt.ip && pkt.ip->dst == addr_) {
    reply_to_probe(pkt);
    return;
  }

  for (auto* app : apps_) app->on_receive(*this, pkt);
}

void Host::reply_to_probe(const packet::Packet& probe) {
  packet::Packet reply;
  reply.uid = packet::next_packet_uid();
  reply.kind = packet::PacketKind::kProbeReply;
  reply.ip = packet::Ipv4Header{};
  reply.ip->src = addr_;
  reply.ip->dst = probe.ip->src;
  reply.ip->proto = probe.ip->proto;
  reply.ip->dscp = probe.ip->dscp;
  reply.l4.sport = probe.l4.dport;
  reply.l4.dport = probe.l4.sport;
  reply.l4.seq = probe.l4.seq;  // echo the probe sequence for RTT matching
  reply.payload_bytes = probe.payload_bytes;
  reply.control = probe.control;  // echo probe payload (send timestamp etc.)
  send(std::move(reply));
}

}  // namespace netseer::net
