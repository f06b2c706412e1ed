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
  void set_observer(LinkObserver* observer) { observer_ = observer; }

  [[nodiscard]] util::SimDuration delay() const { return delay_; }

  [[nodiscard]] std::uint64_t packets_carried() const { return carried_; }
  [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_carried_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_corrupted() const { return corrupted_; }

  NETSEER_HOT void send(packet::PooledPacket pkt) override;

 private:
  sim::Simulator& sim_;
  util::Rng rng_;
  Node& peer_;
  util::PortId peer_port_;
  util::SimDuration delay_;
  util::NodeId from_node_;
  LinkFaultModel faults_{};
  LinkObserver* observer_ = nullptr;
  std::uint64_t carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace netseer::net
