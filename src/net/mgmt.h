#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "sim/simulator.h"
#include "util/ids.h"
#include "util/rng.h"

namespace netseer::net {

/// The out-of-band management network between switch CPUs and the backend
/// storage. Datagram semantics: fixed delay, optional loss — the reliable
/// transport in core/ is responsible for retransmission, exactly like the
/// paper's TCP session from switch CPU to backend (§3.6).
///
/// Delivery invokes the destination's registered handler after `delay`.
/// Every message takes the same delay, so deliveries fire in send order:
/// messages in flight wait in a FIFO and each delivery event takes the
/// oldest, which keeps the event's capture to one pointer.
template <typename T>
class MgmtChannel {
 public:
  using Handler = std::function<void(util::NodeId from, const T& msg)>;

  MgmtChannel(sim::Simulator& sim, util::Rng rng, util::SimDuration delay, double loss_prob)
      : sim_(sim), rng_(rng), delay_(delay), loss_prob_(loss_prob) {}

  void register_endpoint(util::NodeId id, Handler handler) {
    handlers_[id] = std::move(handler);
  }

  /// Send `msg`; silently dropped with probability loss_prob or when the
  /// destination is unknown.
  void send(util::NodeId from, util::NodeId to, T msg) {
    ++sent_;
    if (rng_.chance(loss_prob_)) {
      ++lost_;
      return;
    }
    in_flight_.push_back(InFlight{from, to, std::move(msg)});
    (void)sim_.schedule_after(delay_, [this] { deliver_oldest(); });
  }

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_lost() const { return lost_; }
  [[nodiscard]] util::SimDuration delay() const { return delay_; }

 private:
  struct InFlight {
    util::NodeId from;
    util::NodeId to;
    T msg;
  };

  void deliver_oldest() {
    // Out of the FIFO first: the handler may send on this channel.
    const InFlight next = std::move(in_flight_.front());
    in_flight_.pop_front();
    auto it = handlers_.find(next.to);
    if (it != handlers_.end()) it->second(next.from, next.msg);
  }

  sim::Simulator& sim_;
  util::Rng rng_;
  util::SimDuration delay_;
  double loss_prob_;
  std::unordered_map<util::NodeId, Handler> handlers_;
  std::deque<InFlight> in_flight_;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace netseer::net
