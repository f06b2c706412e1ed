#pragma once

#include <cstdint>
#include <string>

#include "net/node.h"
#include "sim/simulator.h"
#include "util/rate.h"
#include "util/rng.h"

namespace netseer::net {

/// Why a link mangled a packet (reported to the LinkObserver only —
/// the data plane has no visibility, which is the whole point of §3.3).
enum class LinkFault : std::uint8_t {
  kSilentDrop,   // frame vanished (connector / transmitter failure)
  kCorruption,   // frame arrives with a broken FCS
};

/// Ground-truth observation hook for link faults. Monitors must NOT use
/// this — it exists so experiments can score coverage.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  virtual void on_link_fault(const packet::Packet& pkt, util::NodeId from, util::NodeId to,
                             LinkFault fault) = 0;
};

/// Fault injection model for one link direction. Faults can be steady
/// (Bernoulli per packet) or bursty (a Gilbert-Elliott bad state during
/// which the burst probabilities apply instead).
struct LinkFaultModel {
  double drop_prob = 0.0;     // steady-state silent drop probability
  double corrupt_prob = 0.0;  // steady-state corruption probability

  // Gilbert-Elliott burstiness. Probability of entering the bad state per
  // packet, of leaving it per packet, and the bad-state fault rates.
  double burst_enter_prob = 0.0;
  double burst_exit_prob = 0.1;
  double burst_drop_prob = 0.0;
  double burst_corrupt_prob = 0.0;

  [[nodiscard]] bool is_lossless() const {
    return drop_prob == 0.0 && corrupt_prob == 0.0 && burst_enter_prob == 0.0;
  }
};

/// One direction of a cable: after `delay`, delivers to `peer` at
/// `peer_port`. Serialization time is paid by the transmitting port, so a
/// Link is purely propagation plus fault injection.
class Link : public PacketSink {
 public:
  Link(sim::Simulator& sim, util::Rng rng, Node& peer, util::PortId peer_port,
       util::SimDuration delay, util::NodeId from_node)
      : sim_(sim), rng_(rng), peer_(peer), peer_port_(peer_port), delay_(delay),
        from_node_(from_node) {}

  void set_fault_model(const LinkFaultModel& model) { faults_ = model; }
  [[nodiscard]] const LinkFaultModel& fault_model() const { return faults_; }
  void set_observer(LinkObserver* observer) { observer_ = observer; }

  /// Administrative state: a downed link discards everything (both the
  /// topology and the transmitter usually know, but packets already in
  /// flight are lost).
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }

  [[nodiscard]] util::SimDuration delay() const { return delay_; }
  [[nodiscard]] Node& peer() const { return peer_; }
  [[nodiscard]] util::PortId peer_port() const { return peer_port_; }

  [[nodiscard]] std::uint64_t packets_carried() const { return carried_; }
  [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_carried_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_corrupted() const { return corrupted_; }

  void send(packet::PooledPacket pkt) override;

 private:
  [[nodiscard]] bool roll(double steady, double burst) {
    return rng_.chance(in_burst_ ? burst : steady);
  }

  sim::Simulator& sim_;
  util::Rng rng_;
  Node& peer_;
  util::PortId peer_port_;
  util::SimDuration delay_;
  util::NodeId from_node_;
  LinkFaultModel faults_{};
  LinkObserver* observer_ = nullptr;
  bool up_ = true;
  bool in_burst_ = false;
  std::uint64_t carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace netseer::net
