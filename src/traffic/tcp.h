#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>

#include "net/host.h"
#include "packet/builder.h"
#include "sim/simulator.h"

namespace netseer::traffic {

/// A compact TCP-ish reliable transport at segment (not byte)
/// granularity: cumulative ACKs, fast retransmit on three duplicate
/// ACKs, RTO recovery, slow start + AIMD congestion avoidance, and
/// ECN/ECE reaction (halve on echo, DCTCP-flavoured). It exists so the
/// simulated workloads respond to the congestion and loss the paper's
/// real TCP/RDMA applications would — retransmissions, timeouts, and
/// backoff are what operators actually observe in Case #5.
struct TcpConfig {
  std::uint32_t mss_payload = 1000;   // bytes per segment
  double initial_cwnd = 10.0;         // segments
  double ssthresh = 64.0;
  util::SimDuration rto = util::milliseconds(10);
  std::uint16_t listen_port = 8080;
  bool ecn = true;                    // send ECT, react to ECE
};

/// Receiver side: attach one per destination host. Acks every in-order
/// prefix of each incoming flow on `listen_port` and echoes congestion
/// marks (ECE) back to the sender.
class TcpReceiver final : public net::HostApp {
 public:
  explicit TcpReceiver(const TcpConfig& config = {}) : config_(config) {}

  void on_receive(net::Host& host, const packet::Packet& pkt) override;

  /// Contiguously received segments for a flow (by sender sport).
  [[nodiscard]] std::uint32_t received_prefix(const packet::FlowKey& flow) const {
    const auto it = flows_.find(flow.hash64());
    return it == flows_.end() ? 0 : it->second.next_expected;
  }

 private:
  struct FlowState {
    std::uint32_t next_expected = 0;
    std::set<std::uint32_t> out_of_order;
    bool ce_pending = false;  // CE seen since the last ack
  };

  TcpConfig config_;
  std::unordered_map<std::uint64_t, FlowState> flows_;
};

/// Sender side: attach to the source host (it consumes the ACKs of its
/// own connection), call start(). Completion is observable via done()
/// or the callback.
class TcpSender final : public net::HostApp {
 public:
  using DoneFn = std::function<void(util::SimTime completion_time)>;

  TcpSender(net::Host& host, packet::Ipv4Addr dst, std::uint16_t sport,
            std::uint32_t total_segments, const TcpConfig& config = {}, DoneFn on_done = {});

  void start();
  void on_receive(net::Host& host, const packet::Packet& pkt) override;

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint32_t acked() const { return highest_ack_; }
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t ecn_backoffs() const { return ecn_backoffs_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] util::SimTime completion_time() const { return completion_time_; }

 private:
  void pump();                      // send while the window allows
  void send_segment(std::uint32_t seq);
  void arm_rto();
  void on_rto();
  [[nodiscard]] packet::FlowKey flow() const {
    return packet::FlowKey{host_.addr(), dst_, 6, sport_, config_.listen_port};
  }

  net::Host& host_;
  packet::Ipv4Addr dst_;
  std::uint16_t sport_;
  std::uint32_t total_;
  TcpConfig config_;
  DoneFn on_done_;

  double cwnd_;
  double ssthresh_;
  std::uint32_t highest_ack_ = 0;  // cumulative: segments [0, highest_ack_) delivered
  std::uint32_t next_seq_ = 0;     // next new segment to send
  int dup_acks_ = 0;
  bool done_ = false;
  util::SimTime completion_time_ = -1;
  sim::TaskHandle rto_timer_;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t ecn_backoffs_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace netseer::traffic
