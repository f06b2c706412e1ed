#pragma once

#include <cstdint>
#include <string>

#include "net/node.h"
#include "sim/simulator.h"
#include "util/annotations.h"
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

/// Fault injection model for one link direction: independent
/// (Bernoulli) faults per packet.
struct LinkFaultModel {
  double drop_prob = 0.0;     // silent drop probability
  double corrupt_prob = 0.0;  // corruption probability
};

/// One direction of a cable: delivers to `peer` at `peer_port` one
/// propagation `delay` after a frame's last bit leaves. The transmitting
/// port hands the frame over as its first bit leaves, with its
/// serialization time, so a traversal costs one engine event: the
/// arrival, at serialization plus propagation. Faults are drawn on
/// arrival, against the model in force when the frame's last bit left, so
/// each link's random draws keep the order in which frames leave it.
class Link : public PacketSink {
 public:
  Link(sim::Simulator& sim, util::Rng rng, Node& peer, util::PortId peer_port,
       util::SimDuration delay, util::NodeId from_node)
      : sim_(sim), rng_(rng), peer_(peer), peer_port_(peer_port), delay_(delay),
        from_node_(from_node) {}

  /// Applies to frames whose last bit leaves from now on; frames already
  /// past it keep the model they left under. The link remembers one
  /// replaced model, so a change should last one propagation delay
  /// before the next.
  void set_fault_model(const LinkFaultModel& model);
  void set_observer(LinkObserver* observer) { observer_ = observer; }

  [[nodiscard]] util::SimDuration delay() const { return delay_; }

  [[nodiscard]] std::uint64_t packets_carried() const { return carried_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_corrupted() const { return corrupted_; }

  NETSEER_HOT void send(packet::PooledPacket pkt, util::SimDuration serialization) override;

 private:
  /// The frame's arrival: its fate under the model it left under, then
  /// the peer.
  NETSEER_HOT void deliver(packet::PooledPacket pkt);

  sim::Simulator& sim_;
  util::Rng rng_;
  Node& peer_;
  util::PortId peer_port_;
  util::SimDuration delay_;
  util::NodeId from_node_;
  LinkFaultModel faults_{};
  /// The model faults_ replaced, for frames whose last bit left before
  /// faults_changed_at_.
  LinkFaultModel previous_faults_{};
  util::SimTime faults_changed_at_ = 0;
  LinkObserver* observer_ = nullptr;
  std::uint64_t carried_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace netseer::net
