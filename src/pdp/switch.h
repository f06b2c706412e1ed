#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/tx_port.h"
#include "pdp/acl.h"
#include "pdp/agent.h"
#include "pdp/mmu.h"
#include "pdp/table.h"
#include "pdp/types.h"
#include "sim/simulator.h"
#include "util/annotations.h"
#include "util/rate.h"

namespace netseer::pdp {

struct SwitchConfig {
  std::uint16_t num_ports = 32;
  util::BitRate port_rate = util::BitRate::gbps(100);
  MmuConfig mmu{};
  std::uint32_t mtu = packet::kDefaultMtu;
  /// Fixed ingress-pipeline processing latency applied before enqueue.
  util::SimDuration pipeline_latency = util::nanoseconds(400);
  /// ECMP hash seed; defaults to the node id so neighbouring switches
  /// hash flows independently.
  std::uint64_t ecmp_seed = 0;
};

/// Per-port counters — the surface SNMP-style monitoring can see.
struct PortCounters {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_fcs_errors = 0;  // corrupted frames discarded by the MAC
  std::uint64_t egress_drops = 0;   // MMU drops targeting this port
};

/// Per-stage table hit counters across the forwarding pipeline — the
/// introspection surface the telemetry layer exports (what a P4 compiler
/// would report as per-table hit counts).
struct StageCounters {
  std::uint64_t parsed = 0;        // packets entering the L3 pipeline
  std::uint64_t lpm_hits = 0;      // route lookups that matched a group
  std::uint64_t lpm_misses = 0;    // blackholes / parity-corrupted entries
  std::uint64_t acl_evaluated = 0;
  std::uint64_t acl_denied = 0;
};

/// Per-queue-class counters, aggregated over all ports of the switch.
struct QueueCounters {
  std::uint64_t enqueues = 0;
  std::uint64_t drops = 0;        // MMU tail drops against this class
  std::int64_t peak_bytes = 0;    // occupancy high-water, sampled at enqueue
};

/// The programmable switch: parser, L3 LPM forwarding with ECMP, ACL,
/// TTL/MTU checks, an MMU with per-queue tail drop and PFC generation,
/// strict-priority egress scheduling, and an agent extension surface at
/// every pipeline attachment point (see SwitchAgent).
class Switch : public net::Node {
 public:
  Switch(sim::Simulator& sim, util::NodeId id, std::string name, const SwitchConfig& config);

  [[nodiscard]] const SwitchConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // ---- Wiring -----------------------------------------------------------
  /// Attach the egress side of `port` to `link`.
  void connect(util::PortId port, net::Link* link);
  [[nodiscard]] net::TxPort& port(util::PortId port) { return *ports_[port]; }
  [[nodiscard]] const net::TxPort& port(util::PortId port) const { return *ports_[port]; }
  [[nodiscard]] net::Link* link(util::PortId port) const { return links_[port]; }

  // ---- Control plane state ----------------------------------------------
  [[nodiscard]] LpmTable& routes() { return routes_; }
  [[nodiscard]] const LpmTable& routes() const { return routes_; }
  [[nodiscard]] AclTable& acl() { return acl_; }
  [[nodiscard]] const AclTable& acl() const { return acl_; }
  [[nodiscard]] Mmu& mmu() { return mmu_; }
  [[nodiscard]] const Mmu& mmu() const { return mmu_; }

  void add_agent(SwitchAgent* agent) { agents_.push_back(agent); }


  // ---- Data path ----------------------------------------------------------
  NETSEER_HOT void receive(packet::PooledPacket slot, util::PortId in_port) override;

  /// Agent backdoor: enqueue a locally generated packet (loss
  /// notification, mirror copy...) directly on an egress queue, skipping
  /// the forwarding pipeline. The new frame gets its pool slot here.
  void inject(packet::Packet&& pkt, util::PortId egress_port, util::QueueId queue);

  // ---- Observability -------------------------------------------------------
  [[nodiscard]] const PortCounters& counters(util::PortId port) const {
    return counters_[port];
  }
  [[nodiscard]] std::uint64_t drops(DropReason reason) const {
    return drop_counters_[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t total_drops() const;
  [[nodiscard]] const StageCounters& stages() const { return stages_; }
  [[nodiscard]] const QueueCounters& queue_counters(util::QueueId queue) const {
    return queue_counters_[queue];
  }

 private:
  NETSEER_HOT void run_pipeline(packet::PooledPacket slot, PipelineContext ctx);
  NETSEER_HOT void enqueue(packet::PooledPacket slot, const PipelineContext& ctx);
  NETSEER_HOT void handle_egress(packet::Packet& pkt, util::PortId port, util::QueueId queue,
                                 util::SimDuration queue_delay);
  void handle_pfc(const packet::Packet& pkt, util::PortId in_port);
  void send_pfc(util::PortId port, util::QueueId cls, bool pause);
  void drop(const packet::Packet& pkt, PipelineContext& ctx, DropReason reason);

  sim::Simulator& sim_;
  SwitchConfig config_;
  std::vector<std::unique_ptr<net::TxPort>> ports_;
  std::vector<net::Link*> links_;
  std::vector<PortCounters> counters_;
  std::array<std::uint64_t, 16> drop_counters_{};
  StageCounters stages_;
  std::array<QueueCounters, util::kNumQueues> queue_counters_{};
  LpmTable routes_;
  AclTable acl_;
  Mmu mmu_;
  std::vector<SwitchAgent*> agents_;
};

}  // namespace netseer::pdp
