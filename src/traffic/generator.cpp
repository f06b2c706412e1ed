#include "traffic/generator.h"

namespace netseer::traffic {

namespace {

constexpr std::uint32_t kPacketPayload = 1000;  // bytes per full data packet
constexpr std::uint16_t kBasePort = 10000;      // first source port; wraps back here

}  // namespace

FlowGenerator::FlowGenerator(net::Host& host, std::vector<packet::Ipv4Addr> destinations,
                             const GeneratorConfig& config, util::Rng rng)
    : host_(host), destinations_(std::move(destinations)), config_(config), rng_(rng),
      next_port_(kBasePort) {
  // Poisson arrival rate: load * uplink / mean flow size.
  const double bytes_per_second =
      config_.load * static_cast<double>(host_.nic().rate().bits_per_second()) / 8.0;
  const double flows_per_second = bytes_per_second / config_.sizes->mean_bytes();
  mean_interarrival_ns_ = flows_per_second > 0 ? 1e9 / flows_per_second : 0.0;
}

void FlowGenerator::start() {
  if (destinations_.empty() || mean_interarrival_ns_ <= 0.0) return;
  (void)host_.simulator().schedule_at(0, [this] { schedule_next_arrival(); });
}

void FlowGenerator::schedule_next_arrival() {
  const auto gap = static_cast<util::SimDuration>(rng_.exponential(mean_interarrival_ns_));
  const util::SimTime when = host_.simulator().now() + gap;
  if (when >= config_.stop) return;
  (void)host_.simulator().schedule_at(when, [this] {
    start_flow();
    schedule_next_arrival();
  });
}

void FlowGenerator::start_flow() {
  ++flows_started_;
  const auto& dst = destinations_[rng_.uniform(destinations_.size())];
  packet::FlowKey flow;
  flow.src = host_.addr();
  flow.dst = dst;
  flow.proto = static_cast<std::uint8_t>(packet::IpProto::kTcp);
  flow.sport = next_port_++;
  if (next_port_ < kBasePort) next_port_ = kBasePort;  // wrap
  flow.dport = 80;
  send_packet(flow, config_.sizes->sample(rng_));
}

void FlowGenerator::send_packet(packet::FlowKey flow, std::uint64_t remaining_bytes) {
  const std::uint32_t payload =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(remaining_bytes, kPacketPayload));
  auto pkt = packet::make_tcp(flow, payload);
  bytes_sent_ += payload;
  ++packets_sent_;
  host_.send(std::move(pkt));

  if (remaining_bytes <= payload) {
    ++flows_completed_;
    return;
  }
  const util::SimDuration gap = config_.flow_rate.serialization_delay(payload);
  (void)host_.simulator().schedule_after(gap, [this, flow, rest = remaining_bytes - payload] {
    send_packet(flow, rest);
  });
}

void launch_incast(std::vector<net::Host*> senders, packet::Ipv4Addr receiver,
                   std::uint64_t bytes_per_sender, std::uint32_t packet_payload,
                   util::SimTime when, std::uint16_t base_port) {
  for (std::size_t i = 0; i < senders.size(); ++i) {
    net::Host* sender = senders[i];
    const auto sport = static_cast<std::uint16_t>(base_port + i);
    (void)sender->simulator().schedule_at(when, [sender, receiver, bytes_per_sender, packet_payload,
                                           sport] {
      packet::FlowKey flow{sender->addr(), receiver,
                           static_cast<std::uint8_t>(packet::IpProto::kTcp), sport, 80};
      std::uint64_t remaining = bytes_per_sender;
      while (remaining > 0) {
        const auto payload =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(remaining, packet_payload));
        sender->send(packet::make_tcp(flow, payload));
        remaining -= payload;
      }
    });
  }
}

}  // namespace netseer::traffic
