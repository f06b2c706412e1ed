#include "pdp/switch.h"

#include "net/host.h"
#include "packet/builder.h"

namespace netseer::pdp {

Switch::Switch(sim::Simulator& sim, util::NodeId id, std::string name,
               const SwitchConfig& config)
    : Node(id, std::move(name)), sim_(sim), config_(config),
      links_(config.num_ports, nullptr), counters_(config.num_ports),
      mmu_(config.mmu, config.num_ports) {
  if (config_.ecmp_seed == 0) config_.ecmp_seed = id;
  ports_.reserve(config_.num_ports);
  for (std::uint16_t p = 0; p < config_.num_ports; ++p) {
    auto port = std::make_unique<net::TxPort>(sim_, config_.port_rate);
    const util::PortId port_id = p;
    port->set_dequeue_hook(
        [this, port_id](packet::Packet& pkt, util::QueueId queue, util::SimDuration delay) {
          handle_egress(pkt, port_id, queue, delay);
        });
    ports_.push_back(std::move(port));
  }
}

void Switch::connect(util::PortId port, net::Link* link) {
  links_[port] = link;
  ports_[port]->set_out(link);
}

std::uint64_t Switch::total_drops() const {
  std::uint64_t total = 0;
  for (auto c : drop_counters_) total += c;
  return total;
}

void Switch::receive(packet::PooledPacket slot, util::PortId in_port) {
  packet::Packet& pkt = *slot;
  auto& counters = counters_[in_port];
  pkt.meta.ingress_port = in_port;

  // MAC layer: frames failing the FCS check are discarded silently; the
  // only trace is a per-port error counter (and, with NetSeer, the
  // sequence gap the upstream detector will be told about).
  if (pkt.corrupted) {
    ++counters.rx_fcs_errors;
    for (auto* agent : agents_) agent->on_mac_rx(*this, pkt, in_port, /*corrupted=*/true);
    return;
  }
  ++counters.rx_packets;
  counters.rx_bytes += pkt.wire_bytes();
  for (auto* agent : agents_) agent->on_mac_rx(*this, pkt, in_port, /*corrupted=*/false);

  // MAC control: PFC pause/resume is consumed here, before the pipeline.
  if (pkt.kind == packet::PacketKind::kPfc && pkt.pfc) {
    handle_pfc(pkt, in_port);
    return;
  }

  PipelineContext ctx;
  ctx.ingress_port = in_port;

  for (auto* agent : agents_) {
    if (!agent->on_ingress(*this, pkt, ctx)) return;  // consumed (e.g. loss notify)
  }
  run_pipeline(std::move(slot), ctx);
}

void Switch::run_pipeline(packet::PooledPacket slot, PipelineContext ctx) {
  packet::Packet& pkt = *slot;
  // Parser: anything non-IPv4 that survived the control-frame checks is a
  // pathological format for this L3 pipeline.
  if (!pkt.ip) {
    drop(pkt, ctx, DropReason::kParserError);
    return;
  }

  ++stages_.parsed;

  // L3 route lookup + ECMP member selection.
  const EcmpGroup* group = routes_.lookup(pkt.ip->dst);
  if (group == nullptr || group->empty()) {
    ++stages_.lpm_misses;
    drop(pkt, ctx, DropReason::kRouteMiss);
    return;
  }
  ++stages_.lpm_hits;
  ctx.egress_port = group->select(pkt.flow_hash(), config_.ecmp_seed);
  if (ctx.egress_port >= ports_.size()) {
    drop(pkt, ctx, DropReason::kRouteMiss);
    return;
  }

  // ACL.
  ++stages_.acl_evaluated;
  const auto verdict = acl_.evaluate(pkt.flow());
  if (!verdict.permit) {
    ++stages_.acl_denied;
    ctx.acl_rule_id = verdict.rule_id;
    drop(pkt, ctx, DropReason::kAclDeny);
    return;
  }

  // TTL.
  if (pkt.ip->ttl <= 1) {
    drop(pkt, ctx, DropReason::kTtlExpired);
    return;
  }
  --pkt.ip->ttl;

  // Egress MTU.
  const std::uint32_t ip_bytes = pkt.wire_bytes() - packet::kEthHeaderBytes -
                                 packet::kEthFcsBytes -
                                 (pkt.seq_tag ? packet::kSeqTagBytes : 0);
  if (ip_bytes > config_.mtu) {
    drop(pkt, ctx, DropReason::kMtuExceeded);
    return;
  }

  ctx.queue = net::queue_for(pkt);

  if (config_.pipeline_latency > 0) {
    (void)sim_.schedule_after(config_.pipeline_latency,
                              [this, slot = std::move(slot), ctx]() mutable {
                                enqueue(std::move(slot), ctx);
                              });
  } else {
    enqueue(std::move(slot), ctx);
  }
}

void Switch::enqueue(packet::PooledPacket slot, const PipelineContext& ctx) {
  packet::Packet& pkt = *slot;
  auto& port = *ports_[ctx.egress_port];

  // MMU admission (tail drop).
  if (!mmu_.admit(port.queue_bytes(ctx.queue), pkt.wire_bytes())) {
    ++drop_counters_[static_cast<std::size_t>(DropReason::kCongestion)];
    ++counters_[ctx.egress_port].egress_drops;
    ++queue_counters_[ctx.queue].drops;
    PipelineContext drop_ctx = ctx;
    drop_ctx.drop = DropReason::kCongestion;
    for (auto* agent : agents_) agent->on_mmu_drop(*this, pkt, drop_ctx);
    return;
  }

  // PFC ingress-buffer accounting.
  const auto action = mmu_.on_enqueue(ctx.ingress_port, ctx.queue, pkt.wire_bytes());
  if (action == Mmu::PfcAction::kPause) send_pfc(ctx.ingress_port, ctx.queue, /*pause=*/true);

  const bool paused = port.is_paused(ctx.queue);
  for (auto* agent : agents_) agent->on_enqueue(*this, pkt, ctx, paused);

  pkt.meta.mmu_accounted = true;
  auto& queue_stats = queue_counters_[ctx.queue];
  ++queue_stats.enqueues;
  port.enqueue(std::move(slot), ctx.queue);
  const std::int64_t occupancy = port.queue_bytes(ctx.queue);
  if (occupancy > queue_stats.peak_bytes) queue_stats.peak_bytes = occupancy;
}

void Switch::handle_egress(packet::Packet& pkt, util::PortId port, util::QueueId queue,
                           util::SimDuration queue_delay) {
  // Release PFC accounting for the ingress this packet came from.
  if (pkt.meta.mmu_accounted) {
    pkt.meta.mmu_accounted = false;
    const auto action = mmu_.on_dequeue(pkt.meta.ingress_port, queue, pkt.wire_bytes());
    if (action == Mmu::PfcAction::kResume) {
      send_pfc(pkt.meta.ingress_port, queue, /*pause=*/false);
    }
  }

  EgressInfo info;
  info.ingress_port = pkt.meta.ingress_port;
  info.egress_port = port;
  info.queue = queue;
  info.queue_delay = queue_delay;
  for (auto* agent : agents_) agent->on_egress(*this, pkt, info);
}

void Switch::handle_pfc(const packet::Packet& pkt, util::PortId in_port) {
  for (std::uint8_t cls = 0; cls < util::kNumQueues; ++cls) {
    if (pkt.pfc->class_enable & (1u << cls)) {
      ports_[in_port]->apply_pause(cls, pkt.pfc->pause_quanta[cls]);
    }
  }
  for (auto* agent : agents_) agent->on_pfc_rx(*this, *pkt.pfc, in_port);
}

void Switch::send_pfc(util::PortId port, util::QueueId cls, bool pause) {
  if (links_[port] == nullptr) return;
  packet::PooledPacket frame =
      packet::Pool::local().acquire(packet::make_pfc(cls, pause ? 0xffff : 0));
  frame->eth.src = packet::MacAddr::from_node_id(id());
  frame->meta.created_time = sim_.now();
  for (auto* agent : agents_) agent->on_pfc_tx(*this, port, cls, pause);
  // PFC frames are MAC-generated: they bypass the egress queues.
  links_[port]->send(std::move(frame));
}

void Switch::inject(packet::Packet&& pkt, util::PortId egress_port, util::QueueId queue) {
  if (egress_port >= ports_.size()) return;
  ports_[egress_port]->enqueue(packet::Pool::local().acquire(std::move(pkt)), queue);
}

void Switch::drop(const packet::Packet& pkt, PipelineContext& ctx, DropReason reason) {
  ctx.drop = reason;
  ++drop_counters_[static_cast<std::size_t>(reason)];
  for (auto* agent : agents_) agent->on_pipeline_drop(*this, pkt, ctx);
}

}  // namespace netseer::pdp
