#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/host.h"
#include "packet/builder.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace netseer::traffic {

/// The TCP port the RPC server listens on, and the one clients address.
inline constexpr std::uint16_t kRpcPort = 9000;

/// Request/response application modeling the block-storage RPCs of the
/// paper's SLA study (§5.1): clients issue fixed-size requests, the
/// server replies after a processing delay. Server-side "slow periods"
/// model application-induced latency (the SSD-driver-bug class of
/// incident); network-induced latency comes from the simulated fabric.
class RpcServer final : public net::HostApp {
 public:
  static constexpr std::uint32_t kResponseBytes = 4000;

  struct Config {
    util::SimDuration processing_delay = util::microseconds(10);
  };

  RpcServer() : RpcServer(Config{}) {}
  explicit RpcServer(const Config& config) : config_(config) {}

  /// Between [from, to), responses take `delay` instead (app slowness).
  void add_slow_period(util::SimTime from, util::SimTime to, util::SimDuration delay) {
    slow_periods_.push_back({from, to, delay});
  }

  void on_receive(net::Host& host, const packet::Packet& pkt) override {
    if (!pkt.is_tcp() || pkt.l4.dport != kRpcPort) return;
    ++requests_;
    const auto now = host.simulator().now();
    util::SimDuration delay = config_.processing_delay;
    for (const auto& period : slow_periods_) {
      if (now >= period.from && now < period.to) {
        delay = period.delay;
        break;
      }
    }
    packet::FlowKey reply_flow{host.addr(), pkt.ip->src,
                               static_cast<std::uint8_t>(packet::IpProto::kTcp), kRpcPort,
                               pkt.l4.sport};
    const std::uint32_t rpc_id = pkt.l4.seq;
    // Segment the response at the MTU; PSH marks the final segment so the
    // client knows the RPC completed.
    (void)host.simulator().schedule_after(delay, [&host, reply_flow, rpc_id] {
      constexpr std::uint32_t kMss = 1400;
      std::uint32_t remaining = kResponseBytes;
      while (remaining > 0) {
        const std::uint32_t chunk = std::min(remaining, kMss);
        remaining -= chunk;
        const std::uint8_t flags = packet::tcp_flags::kAck |
                                   (remaining == 0 ? packet::tcp_flags::kPsh : 0);
        auto reply = packet::make_tcp(reply_flow, chunk, flags);
        reply.l4.seq = rpc_id;
        host.send(std::move(reply));
      }
    });
  }

  /// Was the server in a slow period at `when`?
  [[nodiscard]] bool slow_at(util::SimTime when) const {
    for (const auto& period : slow_periods_) {
      if (when >= period.from && when < period.to) return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t requests() const { return requests_; }

 private:
  struct SlowPeriod {
    util::SimTime from;
    util::SimTime to;
    util::SimDuration delay;
  };
  Config config_;
  std::vector<SlowPeriod> slow_periods_;
  std::uint64_t requests_ = 0;
};

/// Issues RPCs at a fixed rate from simulated time 0 and records per-call
/// completion latency (-1 = response never arrived).
class RpcClient final : public net::HostApp {
 public:
  static constexpr std::uint32_t kRequestBytes = 256;

  struct Config {
    packet::Ipv4Addr server{};
    util::SimDuration interval = util::milliseconds(1);
    util::SimTime stop = util::seconds(1);
    util::SimDuration timeout = util::milliseconds(50);
  };

  struct Record {
    std::uint32_t id;
    util::SimTime sent_at;
    util::SimDuration latency;  // -1 if timed out
  };

  RpcClient(net::Host& host, const Config& config, util::Rng rng)
      : host_(host), config_(config), rng_(rng) {}

  void start() {
    (void)host_.simulator().schedule_at(0, [this] { issue(); });
  }

  void on_receive(net::Host& host, const packet::Packet& pkt) override {
    if (!pkt.is_tcp() || pkt.l4.sport != kRpcPort) return;
    if (!(pkt.l4.flags & packet::tcp_flags::kPsh)) return;  // final segment only
    const auto it = outstanding_.find(pkt.l4.seq);
    if (it == outstanding_.end()) return;
    records_.push_back(Record{pkt.l4.seq, it->second, host.simulator().now() - it->second});
    outstanding_.erase(it);
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Finalize: everything still outstanding at the end is a timeout.
  void finish() {
    for (const auto& [id, sent_at] : outstanding_) {
      records_.push_back(Record{id, sent_at, -1});
    }
    outstanding_.clear();
  }

 private:
  void issue() {
    const auto now = host_.simulator().now();
    if (now >= config_.stop) return;
    const std::uint32_t id = next_id_++;
    packet::FlowKey flow{host_.addr(), config_.server,
                         static_cast<std::uint8_t>(packet::IpProto::kTcp),
                         static_cast<std::uint16_t>(30000 + (id % 8000)), kRpcPort};
    auto request = packet::make_tcp(flow, kRequestBytes);
    request.l4.seq = id;
    outstanding_[id] = now;
    host_.send(std::move(request));

    (void)host_.simulator().schedule_after(config_.timeout, [this, id] {
      const auto it = outstanding_.find(id);
      if (it == outstanding_.end()) return;
      records_.push_back(Record{id, it->second, -1});
      outstanding_.erase(it);
    });

    // Slight jitter around the nominal interval keeps requests from
    // phase-locking with the prober.
    const auto gap = static_cast<util::SimDuration>(
        rng_.exponential(static_cast<double>(config_.interval)));
    (void)host_.simulator().schedule_after(std::max<util::SimDuration>(gap, 1000), [this] { issue(); });
  }

  net::Host& host_;
  Config config_;
  util::Rng rng_;
  std::uint32_t next_id_ = 1;
  std::unordered_map<std::uint32_t, util::SimTime> outstanding_;
  std::vector<Record> records_;
};

}  // namespace netseer::traffic
