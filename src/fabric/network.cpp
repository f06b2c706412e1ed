#include "fabric/network.h"

#include <deque>
#include <limits>

namespace netseer::fabric {

Network::Network(std::uint64_t seed) : rng_(seed) {
  adjacency_.emplace_back();  // NodeId 0 unused
}

pdp::Switch& Network::add_switch(const std::string& name, const pdp::SwitchConfig& config) {
  auto sw = std::make_unique<pdp::Switch>(sim_, next_id_++, name, config);
  adjacency_.emplace_back();
  switches_.push_back(std::move(sw));
  return *switches_.back();
}

net::Host& Network::add_host(const std::string& name, packet::Ipv4Addr addr,
                             util::BitRate nic_rate) {
  auto host = std::make_unique<net::Host>(sim_, next_id_++, name, addr, nic_rate);
  adjacency_.emplace_back();
  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

net::Link* Network::make_link(net::Node& to, util::PortId to_port, util::SimDuration delay,
                              util::NodeId from) {
  auto link = std::make_unique<net::Link>(sim_, rng_.fork(), to, to_port, delay, from);
  if (link_observer_) link->set_observer(link_observer_);
  links_.push_back(std::move(link));
  return links_.back().get();
}

std::pair<net::Link*, net::Link*> Network::connect_switches(pdp::Switch& a, util::PortId pa,
                                                            pdp::Switch& b, util::PortId pb,
                                                            util::SimDuration delay) {
  net::Link* ab = make_link(b, pb, delay, a.id());
  net::Link* ba = make_link(a, pa, delay, b.id());
  a.connect(pa, ab);
  b.connect(pb, ba);
  adjacency_[a.id()].push_back({b.id(), pa});
  adjacency_[b.id()].push_back({a.id(), pb});
  return {ab, ba};
}

std::pair<net::Link*, net::Link*> Network::connect_host(pdp::Switch& sw, util::PortId port,
                                                        net::Host& host,
                                                        util::SimDuration delay) {
  net::Link* up = make_link(sw, port, delay, host.id());      // host -> switch
  net::Link* down = make_link(host, 0, delay, sw.id());       // switch -> host
  host.set_uplink(up);
  sw.connect(port, down);
  adjacency_[sw.id()].push_back({host.id(), port});
  adjacency_[host.id()].push_back({sw.id(), 0});
  return {up, down};
}

void Network::compute_routes() {
  constexpr int kUnreached = std::numeric_limits<int>::max();

  for (const auto& host : hosts_) {
    // BFS hop distances from the destination host over the whole graph.
    std::vector<int> dist(adjacency_.size(), kUnreached);
    dist[host->id()] = 0;
    std::deque<util::NodeId> frontier{host->id()};
    while (!frontier.empty()) {
      const util::NodeId u = frontier.front();
      frontier.pop_front();
      for (const auto& adj : adjacency_[u]) {
        if (dist[adj.peer] == kUnreached) {
          dist[adj.peer] = dist[u] + 1;
          frontier.push_back(adj.peer);
        }
      }
    }

    // Each switch routes toward every neighbour one hop closer.
    const packet::Ipv4Prefix prefix{host->addr(), 32};
    for (auto& sw : switches_) {
      if (dist[sw->id()] == kUnreached) continue;
      pdp::EcmpGroup group;
      for (const auto& adj : adjacency_[sw->id()]) {
        if (dist[adj.peer] == dist[sw->id()] - 1) group.ports.push_back(adj.local_port);
      }
      if (!group.empty()) sw->routes().insert(prefix, std::move(group));
    }
  }
}

void Network::set_link_observer(net::LinkObserver* observer) {
  link_observer_ = observer;
  for (auto& link : links_) link->set_observer(observer);
}

void Network::add_agent_everywhere(pdp::SwitchAgent* agent) {
  for (auto& sw : switches_) sw->add_agent(agent);
}

pdp::Switch* Network::find_switch(const std::string& name) {
  for (auto& sw : switches_) {
    if (sw->name() == name) return sw.get();
  }
  return nullptr;
}

net::Host* Network::find_host(const std::string& name) {
  for (auto& host : hosts_) {
    if (host->name() == name) return host.get();
  }
  return nullptr;
}

net::Node* Network::node(util::NodeId id) {
  for (auto& sw : switches_) {
    if (sw->id() == id) return sw.get();
  }
  for (auto& host : hosts_) {
    if (host->id() == id) return host.get();
  }
  return nullptr;
}

}  // namespace netseer::fabric
