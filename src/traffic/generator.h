#pragma once

#include <cstdint>
#include <vector>

#include "net/host.h"
#include "packet/builder.h"
#include "sim/simulator.h"
#include "traffic/distributions.h"
#include "util/rate.h"

namespace netseer::traffic {

struct GeneratorConfig {
  const EmpiricalCdf* sizes = &web();
  /// Target mean utilization of the source host's uplink (the paper uses
  /// 70% "to produce enough pressure").
  double load = 0.7;
  /// Pacing rate per flow. Standing in for congestion control: flows
  /// transmit at a fixed fraction of the NIC rate, so several concurrent
  /// flows congest shared queues the way fan-in traffic does.
  util::BitRate flow_rate = util::BitRate::gbps(10);
  /// Arrivals run from simulated time 0 until this time.
  util::SimTime stop = util::seconds(1);
};

/// Poisson flow arrivals from one host to a set of destinations, flow
/// sizes drawn from an empirical CDF, each flow paced packet-by-packet.
class FlowGenerator {
 public:
  FlowGenerator(net::Host& host, std::vector<packet::Ipv4Addr> destinations,
                const GeneratorConfig& config, util::Rng rng);

  void start();

  [[nodiscard]] std::uint64_t flows_started() const { return flows_started_; }
  [[nodiscard]] std::uint64_t flows_completed() const { return flows_completed_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void schedule_next_arrival();
  void start_flow();
  void send_packet(packet::FlowKey flow, std::uint64_t remaining_bytes);

  net::Host& host_;
  std::vector<packet::Ipv4Addr> destinations_;
  GeneratorConfig config_;
  util::Rng rng_;
  double mean_interarrival_ns_ = 0.0;
  std::uint16_t next_port_;
  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
};

/// Synchronized incast: `senders` all fire `bytes_per_sender` at one
/// receiver at the same instant — the §2.1 Case-#2 "occasional bursty
/// incast" pattern and the paper's congestion/MMU-drop driver.
void launch_incast(std::vector<net::Host*> senders, packet::Ipv4Addr receiver,
                   std::uint64_t bytes_per_sender, std::uint32_t packet_payload,
                   util::SimTime when, std::uint16_t base_port = 20000);

/// Simple receiver app counting per-flow packets/bytes.
class CountingReceiver final : public net::HostApp {
 public:
  void on_receive(net::Host&, const packet::Packet& pkt) override {
    ++packets_;
    bytes_ += pkt.wire_bytes();
  }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace netseer::traffic
