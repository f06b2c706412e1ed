#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "core/report.h"
#include "sim/simulator.h"
#include "util/rate.h"

namespace netseer::core {

struct ReliableReporterConfig {
  std::uint32_t window = 32;  // outstanding segments
  util::BitRate pacing_rate = util::BitRate::mbps(200);
  std::int64_t pacing_burst = 64 * 1024;
};

/// Reliable, paced delivery of event batches from a switch CPU to the
/// backend — the role TCP plays in the paper (§3.6 "pacing and reliable
/// transmission"). Sequence numbers, a send window, cumulative acks, and
/// timeout retransmission over the lossy management datagram channel.
class ReliableReporter {
 public:
  /// Retransmission timeout: a segment unacked this long is sent again.
  static constexpr util::SimDuration kRto = util::milliseconds(10);

  ReliableReporter(sim::Simulator& sim, ReportChannel& channel, util::NodeId self,
                   util::NodeId backend, const ReliableReporterConfig& config = {})
      : sim_(sim), channel_(channel), self_(self), backend_(backend), config_(config),
        pacer_(config.pacing_rate, config.pacing_burst) {}

  /// Queue a batch for delivery.
  void submit(EventBatch&& batch) {
    Segment seg;
    seg.seq = next_seq_++;
    seg.batch = std::move(batch);
    pending_.push_back(std::move(seg));
    ++submitted_;
    pump();
  }

  /// Wire this to the management-channel endpoint for `self`.
  void on_message(const ReportMsg& msg) {
    if (msg.kind != ReportMsg::Kind::kAck) return;
    // Cumulative ack: everything below msg.seq is delivered.
    while (!inflight_.empty() && inflight_.begin()->first < msg.seq) {
      inflight_.erase(inflight_.begin());
      ++acked_;
    }
    pump();
  }

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t segments_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  [[nodiscard]] std::size_t backlog() const { return pending_.size() + inflight_.size(); }
  [[nodiscard]] bool idle() const { return pending_.empty() && inflight_.empty(); }

 private:
  struct Segment {
    std::uint32_t seq = 0;
    EventBatch batch;
  };

  void pump() {
    while (!pending_.empty() && inflight_.size() < config_.window) {
      Segment seg = std::move(pending_.front());
      pending_.pop_front();
      const std::uint32_t seq = seg.seq;
      inflight_.emplace(seq, std::move(seg));
      transmit(seq, /*retransmit=*/false);
    }
  }

  void transmit(std::uint32_t seq, bool retransmit) {
    const auto it = inflight_.find(seq);
    if (it == inflight_.end()) return;  // already acked

    const auto bytes = static_cast<std::int64_t>(ReportMsg::data_wire_size(it->second.batch));

    // Pacing: delay the send until the token bucket admits it.
    const util::SimTime ready = pacer_.time_available(sim_.now(), bytes);
    (void)sim_.schedule_at(ready, [this, seq, bytes] {
      const auto again = inflight_.find(seq);
      if (again == inflight_.end()) return;
      (void)pacer_.try_consume(sim_.now(), bytes);
      ReportMsg out;
      out.kind = ReportMsg::Kind::kData;
      out.seq = seq;
      out.batch = again->second.batch;
      channel_.send(self_, backend_, std::move(out));
      ++sent_;
      arm_timer(seq);
    });
    if (retransmit) ++retransmits_;
  }

  void arm_timer(std::uint32_t seq) {
    (void)sim_.schedule_after(kRto, [this, seq] {
      if (inflight_.contains(seq)) transmit(seq, /*retransmit=*/true);
    });
  }

  sim::Simulator& sim_;
  ReportChannel& channel_;
  util::NodeId self_;
  util::NodeId backend_;
  ReliableReporterConfig config_;
  util::TokenBucket pacer_;
  std::uint32_t next_seq_ = 0;
  std::deque<Segment> pending_;
  std::map<std::uint32_t, Segment> inflight_;
  std::uint64_t submitted_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acked_ = 0;
};

}  // namespace netseer::core
