#include "traffic/tcp.h"

#include <algorithm>

namespace netseer::traffic {

// ---- Receiver ---------------------------------------------------------------

void TcpReceiver::on_receive(net::Host& host, const packet::Packet& pkt) {
  if (!pkt.is_tcp() || pkt.l4.dport != config_.listen_port) return;
  if (pkt.payload_bytes == 0) return;  // not a data segment

  auto& state = flows_[pkt.flow().hash64()];
  if (pkt.ip->ecn == 3) state.ce_pending = true;

  const std::uint32_t seq = pkt.l4.seq;
  if (seq == state.next_expected) {
    ++state.next_expected;
    // Absorb any buffered out-of-order continuation.
    while (!state.out_of_order.empty() &&
           *state.out_of_order.begin() == state.next_expected) {
      state.out_of_order.erase(state.out_of_order.begin());
      ++state.next_expected;
    }
  } else if (seq > state.next_expected) {
    state.out_of_order.insert(seq);
  }  // seq < next_expected: duplicate, cumulative ack below handles it

  // Cumulative ACK, echoing congestion experienced since the last ack.
  packet::FlowKey reverse = pkt.flow().reversed();
  auto ack = packet::make_tcp(reverse, 0, packet::tcp_flags::kAck);
  ack.l4.ack = state.next_expected;
  if (state.ce_pending) {
    // ECE: carried in a spare flag bit (0x40 in real TCP; reuse kRst-free
    // space via the flags byte).
    ack.l4.flags |= 0x40;
    state.ce_pending = false;
  }
  host.send(std::move(ack));
}

// ---- Sender -----------------------------------------------------------------

TcpSender::TcpSender(net::Host& host, packet::Ipv4Addr dst, std::uint16_t sport,
                     std::uint32_t total_segments, const TcpConfig& config, DoneFn on_done)
    : host_(host), dst_(dst), sport_(sport), total_(total_segments), config_(config),
      on_done_(std::move(on_done)), cwnd_(config.initial_cwnd), ssthresh_(config.ssthresh) {}

void TcpSender::start() {
  pump();
  arm_rto();
}

void TcpSender::send_segment(std::uint32_t seq) {
  auto pkt = packet::make_tcp(flow(), config_.mss_payload, packet::tcp_flags::kAck, seq);
  if (config_.ecn) pkt.ip->ecn = 1;  // ECT(1)
  ++segments_sent_;
  host_.send(std::move(pkt));
}

void TcpSender::pump() {
  if (done_) return;
  const auto window = static_cast<std::uint32_t>(std::max(cwnd_, 1.0));
  while (next_seq_ < total_ && next_seq_ < highest_ack_ + window) {
    send_segment(next_seq_);
    ++next_seq_;
  }
}

void TcpSender::on_receive(net::Host& host, const packet::Packet& pkt) {
  (void)host;
  if (done_ || !pkt.is_tcp()) return;
  // Our connection's ACKs: addressed to our sport, from the listen port.
  if (pkt.l4.dport != sport_ || pkt.l4.sport != config_.listen_port) return;
  if (pkt.payload_bytes != 0) return;

  const std::uint32_t ack = pkt.l4.ack;
  const bool ece = (pkt.l4.flags & 0x40) != 0;

  if (ece) {
    // Multiplicative decrease on congestion echo (at most once per RTT in
    // real stacks; per-ack here biases conservative).
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    ++ecn_backoffs_;
  }

  if (ack > highest_ack_) {
    const std::uint32_t newly_acked = ack - highest_ack_;
    highest_ack_ = ack;
    dup_acks_ = 0;
    // Slow start below ssthresh, AIMD above.
    for (std::uint32_t i = 0; i < newly_acked; ++i) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;
      } else {
        cwnd_ += 1.0 / cwnd_;
      }
    }
    arm_rto();
    if (highest_ack_ >= total_) {
      done_ = true;
      completion_time_ = host_.simulator().now();
      rto_timer_.cancel();
      if (on_done_) on_done_(completion_time_);
      return;
    }
  } else if (ack == highest_ack_) {
    if (++dup_acks_ == 3) {
      // Fast retransmit + multiplicative decrease.
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_;
      ++retransmissions_;
      send_segment(highest_ack_);
      dup_acks_ = 0;
    }
  }
  pump();
}

void TcpSender::arm_rto() {
  rto_timer_.cancel();
  rto_timer_ = host_.simulator().schedule_after(config_.rto, [this] { on_rto(); });
}

void TcpSender::on_rto() {
  if (done_) return;
  ++timeouts_;
  // Classic RTO response: collapse to one segment, slow start again, and
  // resend from the last cumulative ack.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  next_seq_ = highest_ack_;
  ++retransmissions_;
  pump();
  arm_rto();
}

}  // namespace netseer::traffic
