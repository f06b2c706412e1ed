#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/link.h"
#include "pdp/switch.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace netseer::fabric {

/// Owns a simulated network: the simulator, every switch, host, and link,
/// and the wiring between them. Provides shortest-path ECMP route
/// installation so experiments only describe topology.
class Network {
 public:
  explicit Network(std::uint64_t seed = 1);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  // ---- Construction -------------------------------------------------------
  pdp::Switch& add_switch(const std::string& name, const pdp::SwitchConfig& config);
  net::Host& add_host(const std::string& name, packet::Ipv4Addr addr, util::BitRate nic_rate);

  /// Wire switch `a` port `pa` to switch `b` port `pb` with a full-duplex
  /// cable. Returns the two unidirectional links (a->b, b->a).
  std::pair<net::Link*, net::Link*> connect_switches(pdp::Switch& a, util::PortId pa,
                                                     pdp::Switch& b, util::PortId pb,
                                                     util::SimDuration delay);

  /// Wire host `h` to switch `sw` port `p`. Returns (host->switch,
  /// switch->host).
  std::pair<net::Link*, net::Link*> connect_host(pdp::Switch& sw, util::PortId port,
                                                 net::Host& host, util::SimDuration delay);

  /// Install /32 shortest-path ECMP routes for every host on every
  /// switch. Call after the topology is complete; idempotent.
  void compute_routes();

  /// Apply `observer` to every link (existing and future).
  void set_link_observer(net::LinkObserver* observer);

  /// Attach `agent` to every switch.
  void add_agent_everywhere(pdp::SwitchAgent* agent);

  // ---- Lookup ---------------------------------------------------------------
  [[nodiscard]] const std::vector<std::unique_ptr<pdp::Switch>>& switches() const {
    return switches_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<pdp::Switch>>& switches() { return switches_; }
  [[nodiscard]] const std::vector<std::unique_ptr<net::Host>>& hosts() const { return hosts_; }
  [[nodiscard]] std::vector<std::unique_ptr<net::Host>>& hosts() { return hosts_; }
  [[nodiscard]] const std::vector<std::unique_ptr<net::Link>>& links() const { return links_; }

  [[nodiscard]] pdp::Switch* find_switch(const std::string& name);
  [[nodiscard]] net::Host* find_host(const std::string& name);
  [[nodiscard]] net::Node* node(util::NodeId id);

 private:
  net::Link* make_link(net::Node& to, util::PortId to_port, util::SimDuration delay,
                       util::NodeId from);

  struct Adjacency {
    util::NodeId peer;
    util::PortId local_port;
  };

  sim::Simulator sim_;
  util::Rng rng_;
  util::NodeId next_id_ = 1;
  std::vector<std::unique_ptr<pdp::Switch>> switches_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::vector<Adjacency>> adjacency_;  // indexed by NodeId
  net::LinkObserver* link_observer_ = nullptr;
};

}  // namespace netseer::fabric
