#include "scenarios/harness.h"

#include <chrono>

#include "telemetry/collect.h"

namespace netseer::scenarios {

Harness::Harness(const HarnessOptions& options)
    : options_(options), testbed_(fabric::make_testbed(options.topo, options.seed)) {
  auto& net = *testbed_.net;
  auto& sim = net.simulator();

  truth_ = std::make_unique<monitors::GroundTruth>(options_.netseer.congestion_threshold);
  net.set_link_observer(truth_.get());
  net.add_agent_everywhere(truth_.get());

  if (options_.enable_netsight) {
    netsight_ = std::make_unique<monitors::NetSightMonitor>();
    net.add_agent_everywhere(netsight_.get());
    register_monitor(netsight_.get());
    delivery_ = std::make_unique<monitors::NetSightMonitor::DeliveryTracker>(*netsight_);
    for (auto& host : net.hosts()) host->add_app(delivery_.get());
  }
  for (const auto rate : options_.sampling_rates) {
    samplers_.emplace_back(rate, std::make_unique<monitors::SamplingMonitor>(rate));
    net.add_agent_everywhere(samplers_.back().second.get());
    register_monitor(samplers_.back().second.get(), rate);
  }
  if (options_.enable_everflow) {
    everflow_ = std::make_unique<monitors::EverflowMonitor>(sim, options_.everflow,
                                                            net.rng().fork());
    net.add_agent_everywhere(everflow_.get());
    register_monitor(everflow_.get());
  }
  if (options_.enable_pingmesh) {
    pingmesh_ = std::make_unique<monitors::PingmeshProber>(sim, testbed_.hosts,
                                                           options_.pingmesh_interval);
    register_monitor(pingmesh_.get());
  }
  if (options_.enable_snmp) {
    std::vector<pdp::Switch*> switches = testbed_.all_switches();
    snmp_ = std::make_unique<monitors::SnmpMonitor>(sim, std::move(switches),
                                                    options_.snmp_interval);
    register_monitor(snmp_.get());
  }

  if (options_.enable_netseer) {
    channel_ = std::make_unique<core::ReportChannel>(sim, net.rng().fork(),
                                                     util::milliseconds(1), 0.0);
    store_ = std::make_unique<store::FlowEventStore>(options_.store);
    collector_ = std::make_unique<backend::Collector>(sim, kCollectorId, *channel_, *store_);
    for (auto* sw : testbed_.all_switches()) {
      apps_.push_back(std::make_unique<core::NetSeerApp>(*sw, options_.netseer, channel_.get(),
                                                         kCollectorId));
    }
    for (auto* host : testbed_.hosts) {
      nics_.push_back(std::make_unique<core::NetSeerNicAgent>(options_.netseer.interswitch));
      host->set_nic_agent(nics_.back().get());
    }
  } else {
    store_ = std::make_unique<store::FlowEventStore>(options_.store);  // empty store
  }
}

core::NetSeerApp* Harness::app_for(util::NodeId switch_id) {
  const auto all = testbed_.all_switches();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i]->id() == switch_id) return apps_.empty() ? nullptr : apps_[i].get();
  }
  return nullptr;
}

void Harness::add_workload(const traffic::GeneratorConfig& config) {
  std::vector<packet::Ipv4Addr> addresses;
  addresses.reserve(testbed_.hosts.size());
  for (auto* host : testbed_.hosts) addresses.push_back(host->addr());

  for (auto* host : testbed_.hosts) {
    std::vector<packet::Ipv4Addr> peers;
    for (const auto& addr : addresses) {
      if (addr != host->addr()) peers.push_back(addr);
    }
    generators_.push_back(std::make_unique<traffic::FlowGenerator>(
        *host, std::move(peers), config, net().rng().fork()));
    generators_.back()->start();
  }
}

std::uint64_t Harness::total_generated_bytes() const {
  std::uint64_t total = 0;
  for (const auto& gen : generators_) total += gen->bytes_sent();
  return total;
}

void Harness::run_and_settle(util::SimTime until) {
  const auto wall_start = std::chrono::steady_clock::now();
  auto& sim = simulator();
  sim::TaskHandle maintenance;
  if (store_ && options_.store_maintenance_interval > 0) {
    maintenance = store_->start_maintenance(sim, options_.store_maintenance_interval);
  }
  sim.run_until(until);
  // Periodic monitors (and the store maintenance task) would keep the
  // event queue alive forever.
  maintenance.cancel();
  if (everflow_) everflow_->stop();
  if (pingmesh_) pingmesh_->stop();
  if (snmp_) snmp_->stop();
  // Drain everything already in flight (queues, notifications, reports).
  sim.run();
  for (auto& app : apps_) app->flush();
  sim.run();
  for (auto& app : apps_) app->flush();
  sim.run();
  // Late-arriving reports sit in the store's shard buffers; push them
  // through the WAL so a durable run's files reflect the whole run.
  if (store_) store_->flush();
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
}

verify::Report Harness::verify_deployment(const verify::VerifyOptions& options) const {
  return verify::verify_testbed(testbed_, options_.netseer, options);
}

void Harness::collect_metrics(telemetry::Registry& registry) const {
  for (const auto* sw : testbed_.all_switches()) {
    telemetry::collect(registry, *sw);
    telemetry::collect(registry, verify::build_resource_model(*sw, options_.netseer),
                       sw->id());
  }
  for (const auto& app : apps_) telemetry::collect(registry, *app);
  if (collector_) telemetry::collect(registry, *collector_);
  if (store_) telemetry::collect(registry, *store_);
  telemetry::collect(registry, testbed_.net->simulator(), wall_seconds_);
}

monitors::EventGroupSet Harness::netseer_groups(std::optional<core::EventType> type) const {
  monitors::EventGroupSet set;
  for (const auto& stored : store_->scan(backend::EventQuery{})) {
    if (type && stored.event.type != *type) continue;
    set.insert(monitors::EventGroup{stored.event.switch_id, stored.event.flow.hash64(),
                                    stored.event.type});
  }
  return set;
}

double Harness::coverage(const monitors::EventGroupSet& detected,
                         const monitors::EventGroupSet& actual) {
  if (actual.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& group : actual) hit += detected.contains(group);
  return static_cast<double>(hit) / static_cast<double>(actual.size());
}

core::FunnelStats Harness::total_funnel() const {
  core::FunnelStats total;
  for (const auto& app : apps_) {
    const auto& f = app->funnel();
    total.traffic_bytes += f.traffic_bytes;
    total.traffic_packets += f.traffic_packets;
    total.event_packet_bytes += f.event_packet_bytes;
    total.event_packets += f.event_packets;
    total.dedup_reports += f.dedup_reports;
    total.eligible_event_packets += f.eligible_event_packets;
    total.eligible_reports += f.eligible_reports;
    total.extracted_bytes += f.extracted_bytes;
    total.cpu_forwarded_events += f.cpu_forwarded_events;
    total.report_bytes += f.report_bytes;
    total.notify_bytes += f.notify_bytes;
    total.shim_bytes += f.shim_bytes;
  }
  return total;
}

}  // namespace netseer::scenarios
