#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/tx_port.h"
#include "sim/simulator.h"
#include "util/annotations.h"

namespace netseer::net {

class Host;

/// Application attached to a host (traffic generator, RPC client/server,
/// probe responder...). Receives every non-control packet addressed to
/// the host.
class HostApp {
 public:
  virtual ~HostApp() = default;
  virtual void on_receive(Host& host, const packet::Packet& pkt) = 0;
};

/// NIC-level extension hooks — where NetSeer's inter-switch drop
/// detection modules run at the network edge (§4 "NIC"). on_tx sees each
/// frame as it leaves the NIC's queues, in departure order; on_rx
/// returning false consumes the packet (e.g. a loss notification
/// addressed to the NIC itself).
class NicAgent {
 public:
  virtual ~NicAgent() = default;
  virtual void on_tx(Host& host, packet::Packet& pkt) = 0;
  [[nodiscard]] virtual bool on_rx(Host& host, packet::Packet& pkt) = 0;
};

/// An end host with one NIC port. It transmits at NIC line rate, honors
/// PFC pause frames, auto-answers probes (so a Pingmesh-style prober
/// works against any host), discards corrupted frames at the MAC, and
/// hands everything else to the attached apps.
class Host : public Node {
 public:
  Host(sim::Simulator& sim, util::NodeId id, std::string name, packet::Ipv4Addr addr,
       util::BitRate nic_rate);

  [[nodiscard]] packet::Ipv4Addr addr() const { return addr_; }
  [[nodiscard]] packet::MacAddr mac() const { return packet::MacAddr::from_node_id(id()); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  void set_uplink(Link* link) { tx_.set_out(link); }
  void add_app(HostApp* app) { apps_.push_back(app); }
  void set_nic_agent(NicAgent* agent) { nic_agent_ = agent; }

  /// Queue a new frame for transmission: gives it the pool slot it keeps
  /// until its last hop. Fills in source MAC/IP defaults if unset and
  /// maps DSCP to the egress priority queue.
  NETSEER_HOT void send(packet::Packet&& pkt);

  NETSEER_HOT void receive(packet::PooledPacket slot, util::PortId in_port) override;

  [[nodiscard]] TxPort& nic() { return tx_; }

  // Counters.
  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t rx_corrupt_discards() const { return rx_corrupt_; }

 private:
  void reply_to_probe(const packet::Packet& probe);

  sim::Simulator& sim_;
  packet::Ipv4Addr addr_;
  TxPort tx_;
  std::vector<HostApp*> apps_;
  NicAgent* nic_agent_ = nullptr;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_corrupt_ = 0;
};

/// Map a packet's DSCP to its egress priority queue: the top three DSCP
/// bits select the class, matching common datacenter QoS configs.
[[nodiscard]] inline util::QueueId queue_for(const packet::Packet& pkt) {
  if (pkt.kind == packet::PacketKind::kLossNotify) return 7;  // §3.3: high priority
  if (!pkt.ip) return 7;                                      // control frames
  return static_cast<util::QueueId>((pkt.ip->dscp >> 3) & 0x7);
}

}  // namespace netseer::net
