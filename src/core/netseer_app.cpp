#include "core/netseer_app.h"

namespace netseer::core {

namespace {
std::uint8_t port8(util::PortId port) {
  return port == util::kInvalidPort ? 0xff : static_cast<std::uint8_t>(port & 0xff);
}
}  // namespace

NetSeerApp::NetSeerApp(pdp::Switch& sw, const NetSeerConfig& config, ReportChannel* channel,
                       util::NodeId backend)
    : sw_(sw), config_(config), path_(config.path_change),
      internal_port_(config.internal_port_rate, /*burst=*/256 * 1024),
      mmu_redirect_(config.mmu_redirect_rate, /*burst=*/256 * 1024),
      caches_{GroupCache(config.group_cache), GroupCache(config.group_cache),
              GroupCache(config.group_cache)},
      stack_(config.event_stack_capacity) {
  auto& sim = sw_.simulator();

  drain_scheduled_.assign(sw_.config().num_ports, false);
  for (util::PortId p = 0; p < sw_.config().num_ports; ++p) {
    tx_.push_back(std::make_unique<InterSwitchTx>(config_.interswitch));
    rx_.push_back(std::make_unique<InterSwitchRx>(config_.interswitch));
  }

  if (channel != nullptr && backend != util::kInvalidNode) {
    reporter_ = std::make_unique<ReliableReporter>(sim, *channel, sw_.id(), backend,
                                                   config_.reporter);
    channel->register_endpoint(sw_.id(), [this](util::NodeId, const ReportMsg& msg) {
      reporter_->on_message(msg);
    });
  }

  cpu_ = std::make_unique<SwitchCpu>(sim, sw_.id(), config_.cpu, [this](EventBatch&& batch) {
    funnel_.report_bytes += ReportMsg::data_wire_size(batch);
    if (reporter_) reporter_->submit(std::move(batch));
  });

  pcie_ = std::make_unique<PcieChannel>(sim, config_.pcie, [this](EventBatch&& batch) {
    cpu_->on_batch(std::move(batch));
  });

  batcher_ = std::make_unique<CebpBatcher>(sim, sw_.id(), stack_, config_.cebp,
                                           [this](EventBatch&& batch) {
                                             funnel_.extracted_bytes += EventBatch::kHeaderSize;
                                             pcie_->submit(std::move(batch));
                                           });

  sw_.add_agent(this);
}

bool NetSeerApp::on_ingress(pdp::Switch& sw, packet::Packet& pkt, pdp::PipelineContext& ctx) {
  const util::PortId port = ctx.ingress_port;

  // Inter-switch RX: strip the sequence shim, detect gaps (§3.3 step 3).
  if (config_.enable_interswitch && port < rx_.size()) {
    if (const auto gap = rx_[port]->on_rx(pkt)) {
      send_loss_notifications(sw, port, *gap);
    }
  }

  // Loss notifications from the downstream terminate here (§3.3 step 5):
  // the TX module of the port they arrived on owns the ring buffer for
  // that link.
  if (pkt.kind == packet::PacketKind::kLossNotify) {
    if (const auto* payload = dynamic_cast<const LossNotifyPayload*>(pkt.control.get())) {
      if (port < tx_.size()) {
        tx_[port]->on_notification(payload->start(), payload->end(), LinkLossDrop{this, port});
        // Subsequent traffic normally triggers the remaining lookups; if
        // the link goes quiet, the switch CPU drains them (slow path).
        schedule_idle_drain(port);
      }
    }
    return false;  // consumed
  }

  funnel_.traffic_bytes += pkt.wire_bytes();
  ++funnel_.traffic_packets;
  return true;
}

void NetSeerApp::on_pipeline_drop(pdp::Switch& sw, const packet::Packet& pkt,
                                  const pdp::PipelineContext& ctx) {
  (void)sw;
  // Ingress-pipeline drop events ride the internal port (§4 capacity).
  if (!consume_internal_budget(pkt.wire_bytes())) {
    ++missed_internal_;
    return;
  }
  FlowEvent ev = make_event(EventType::kDrop, pkt.flow(), sw_.id(), sw_.simulator().now());
  ev.ingress_port = port8(ctx.ingress_port);
  ev.egress_port = port8(ctx.egress_port);
  ev.drop_code = static_cast<std::uint8_t>(ctx.drop);

  if (ctx.drop == pdp::DropReason::kAclDeny) {
    if (!monitored(ev.flow)) {
      ++filtered_events_;
      return;
    }
    // Rule-granularity aggregation (§3.4).
    ++funnel_.event_packets;
    ++funnel_.eligible_event_packets;
    funnel_.event_packet_bytes += pkt.wire_bytes();
    acl_.offer(ctx.acl_rule_id, ev, ToExtraction{this});
    return;
  }
  detect(ev, pkt.wire_bytes());
}

void NetSeerApp::on_mmu_drop(pdp::Switch& sw, const packet::Packet& pkt,
                             const pdp::PipelineContext& ctx) {
  (void)sw;
  // The MMU can only redirect so much drop traffic to the internal port
  // (§4: ~40 Gb/s); beyond that, drops go unrecorded — and counted.
  if (!mmu_redirect_.try_consume(sw_.simulator().now(), pkt.wire_bytes())) {
    ++missed_mmu_;
    return;
  }
  if (!consume_internal_budget(pkt.wire_bytes())) {
    ++missed_internal_;
    return;
  }
  FlowEvent ev = make_event(EventType::kDrop, pkt.flow(), sw_.id(), sw_.simulator().now());
  ev.ingress_port = port8(ctx.ingress_port);
  ev.egress_port = port8(ctx.egress_port);
  ev.queue = ctx.queue;
  ev.drop_code = static_cast<std::uint8_t>(pdp::DropReason::kCongestion);
  detect(ev, pkt.wire_bytes());
}

void NetSeerApp::on_enqueue(pdp::Switch& sw, const packet::Packet& pkt,
                            const pdp::PipelineContext& ctx, bool queue_paused) {
  (void)sw;
  if (!queue_paused || !pkt.is_ipv4()) return;
  if (!consume_internal_budget(pkt.wire_bytes())) {
    ++missed_internal_;
    return;
  }
  FlowEvent ev = make_event(EventType::kPause, pkt.flow(), sw_.id(), sw_.simulator().now());
  ev.egress_port = port8(ctx.egress_port);
  ev.queue = ctx.queue;
  detect(ev, pkt.wire_bytes());
}

void NetSeerApp::on_egress(pdp::Switch& sw, packet::Packet& pkt, const pdp::EgressInfo& info) {
  (void)sw;
  const auto now = sw_.simulator().now();

  if (pkt.is_ipv4() && pkt.kind == packet::PacketKind::kData) {
    // Congestion: queuing delay beyond threshold (§3.3), at line rate.
    if (info.queue_delay > config_.congestion_threshold) {
      FlowEvent ev = make_event(EventType::kCongestion, pkt.flow(), sw_.id(), now);
      ev.egress_port = port8(info.egress_port);
      ev.queue = info.queue;
      ev.queue_latency_us = to_latency_us(info.queue_delay);
      detect(ev, pkt.wire_bytes());
    }

    // Path change: flow-level by nature, bypasses group caching (§3.4).
    // Partial deployment: unmonitored flows are not tracked at all,
    // saving the flow-table entries too.
    const packet::FlowKey flow = pkt.flow();
    const auto obs = monitored(flow) ? path_.observe(pkt.flow_hash(), info.ingress_port,
                                                     info.egress_port, now)
                                     : PathChangeDetector::Observation::kKnownPath;
    if (obs != PathChangeDetector::Observation::kKnownPath) {
      FlowEvent ev = make_event(EventType::kPathChange, flow, sw_.id(), now);
      ev.ingress_port = port8(info.ingress_port);
      ev.egress_port = port8(info.egress_port);
      ++funnel_.event_packets;
      funnel_.event_packet_bytes += pkt.wire_bytes();
      ++funnel_.dedup_reports;
      extract(ev);
    }
  }

  // Inter-switch TX: number and record every departing frame (§3.3
  // steps 1-2), and let it trigger one pending ring-buffer lookup.
  if (config_.enable_interswitch && info.egress_port < tx_.size()) {
    tx_[info.egress_port]->on_tx(pkt, LinkLossDrop{this, info.egress_port});
  }
}

void NetSeerApp::LinkLossDrop::operator()(const packet::FlowKey& flow, std::uint32_t) const {
  FlowEvent ev = make_event(EventType::kDrop, flow, app->sw_.id(), app->sw_.simulator().now());
  ev.egress_port = port8(port);
  ev.drop_code = static_cast<std::uint8_t>(pdp::DropReason::kLinkLoss);
  app->detect(ev, 64);
}

void NetSeerApp::schedule_idle_drain(util::PortId port) {
  if (drain_scheduled_[port]) return;
  drain_scheduled_[port] = true;
  (void)sw_.simulator().schedule_after(util::milliseconds(1), [this, port] {
    drain_scheduled_[port] = false;
    if (!tx_[port]->has_pending()) return;
    tx_[port]->drain(64, LinkLossDrop{this, port});
    if (tx_[port]->has_pending()) schedule_idle_drain(port);
  });
}

bool NetSeerApp::monitored(const packet::FlowKey& flow) const {
  if (config_.monitored_prefixes.empty()) return true;
  for (const auto& prefix : config_.monitored_prefixes) {
    if (prefix.contains(flow.src) || prefix.contains(flow.dst)) return true;
  }
  return false;
}

void NetSeerApp::detect(const FlowEvent& event, std::uint32_t trigger_bytes) {
  if (!monitored(event.flow)) {
    ++filtered_events_;
    return;
  }
  ++funnel_.event_packets;
  ++funnel_.eligible_event_packets;
  funnel_.event_packet_bytes += trigger_bytes;
  caches_[cache_index(event.type)].offer(event, ToExtraction{this});
}

void NetSeerApp::ToExtraction::operator()(const FlowEvent& report) const {
  ++app->funnel_.dedup_reports;
  ++app->funnel_.eligible_reports;
  app->extract(report);
}

void NetSeerApp::extract(const FlowEvent& event) {
  funnel_.extracted_bytes += FlowEvent::kWireSize;
  if (stack_.push(event)) batcher_->notify();
}

void NetSeerApp::send_loss_notifications(pdp::Switch& sw, util::PortId port,
                                         InterSwitchRx::Gap gap) {
  // Three redundant copies on the high-priority queue (§3.3 step 4).
  for (int copy = 0; copy < config_.interswitch.notify_copies; ++copy) {
    auto pkt = make_loss_notification(gap.start, gap.end, static_cast<std::uint8_t>(copy));
    funnel_.notify_bytes += pkt.wire_bytes();
    sw.inject(std::move(pkt), port, /*queue=*/7);
  }
}

bool NetSeerApp::consume_internal_budget(std::uint32_t bytes) {
  return internal_port_.try_consume(sw_.simulator().now(), bytes);
}

void NetSeerApp::flush() {
  for (auto& cache : caches_) cache.flush(ToExtraction{this});
  batcher_->flush_all();
  cpu_->flush();
}

}  // namespace netseer::core
