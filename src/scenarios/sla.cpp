#include "scenarios/sla.h"

#include <cstdio>
#include <memory>

#include "scenarios/harness.h"
#include "traffic/rpc.h"

namespace netseer::scenarios {

namespace {

struct Attribution {
  bool app = false;
  bool net = false;

  void count_into(SlaBreakdown& b) const {
    if (app && net) {
      b.both += 1;
    } else if (app) {
      b.app += 1;
    } else if (net) {
      b.net += 1;
    } else {
      b.unknown += 1;
    }
  }

  bool operator==(const Attribution&) const = default;
};

void normalize(SlaBreakdown& b, double total) {
  if (total <= 0) return;
  b.app /= total;
  b.net /= total;
  b.both /= total;
  b.unknown /= total;
}

}  // namespace

SlaStudyResult run_sla_study(const SlaStudyConfig& config) {
  HarnessOptions options;
  options.seed = config.seed;
  options.enable_pingmesh = true;
  options.pingmesh_interval = util::milliseconds(2);  // scaled from 1 s
  options.netseer.congestion_threshold = util::microseconds(20);
  Harness harness{options};
  auto& tb = harness.testbed();
  auto& sim = harness.simulator();

  // Storage backend under pod 1; clients in pod 0.
  net::Host& server_host = *tb.hosts[16];
  traffic::RpcServer::Config server_config;
  server_config.processing_delay = util::microseconds(20);
  traffic::RpcServer server(server_config);
  server_host.add_app(&server);

  // Application-side slow windows (the SSD-bug class of cause). The
  // second window deliberately overlaps the lossy-link fault below, so
  // some violations genuinely have BOTH causes (the Fig. 8b insight that
  // some "application" NPAs were partially network-caused too).
  const util::SimTime loss_from = config.duration * 5 / 6;
  server.add_slow_period(config.duration / 6, config.duration / 6 + util::milliseconds(3),
                         util::milliseconds(3));
  server.add_slow_period(loss_from + util::milliseconds(2),
                         loss_from + util::milliseconds(6), util::milliseconds(3));

  std::vector<std::unique_ptr<traffic::RpcClient>> clients;
  for (int c = 0; c < 4; ++c) {
    traffic::RpcClient::Config cc;
    cc.server = server_host.addr();
    cc.interval = util::microseconds(300);
    cc.stop = config.duration;
    cc.timeout = util::milliseconds(20);
    clients.push_back(std::make_unique<traffic::RpcClient>(*tb.hosts[c], cc,
                                                           harness.net().rng().fork()));
    tb.hosts[c]->add_app(clients.back().get());
    clients.back()->start();
  }

  // Network fault 1: incast bursts congesting the server's ToR downlink
  // (drops RPC requests -> timeouts).
  std::vector<net::Host*> noise(tb.hosts.begin() + 24, tb.hosts.begin() + 32);
  const std::vector<util::SimTime> incasts = {config.duration / 3, config.duration * 9 / 20,
                                              config.duration * 11 / 20};
  for (const auto at : incasts) {
    traffic::launch_incast(noise, server_host.addr(), 250 * 1000, 1000, at);
  }

  // Network fault 2: a lossy window on one pod-0 uplink used by clients.
  net::Link* lossy = nullptr;
  {
    // tor0-0's first uplink (port hosts_per_tor) toward agg0-0.
    const auto up_port = static_cast<util::PortId>(options.topo.hosts_per_tor);
    lossy = tb.tors[0]->link(up_port);
  }
  const util::SimTime loss_to = loss_from + util::milliseconds(10);
  (void)sim.schedule_at(loss_from, [lossy] {
    net::LinkFaultModel faults;
    faults.drop_prob = 0.15;
    lossy->set_fault_model(faults);
  });
  (void)sim.schedule_at(loss_to, [lossy] { lossy->set_fault_model(net::LinkFaultModel{}); });

  harness.run_and_settle(config.duration + util::milliseconds(30));
  if (config.metrics != nullptr) harness.collect_metrics(*config.metrics);
  for (auto& client : clients) client->finish();

  // ---- Host metrics model: per metric window, did the server report an
  // elevated average processing delay? (That is all a 15 s counter shows.)
  const auto window_has_app_slowness = [&](util::SimTime at) {
    const util::SimTime window_start = (at / config.metric_window) * config.metric_window;
    // Sample the window at 10 points; elevated if >= 2 are slow.
    int slow_points = 0;
    for (int i = 0; i < 10; ++i) {
      if (server.slow_at(window_start + i * config.metric_window / 10)) ++slow_points;
    }
    return slow_points >= 2;
  };

  SlaStudyResult result;
  auto* pingmesh = harness.monitor<monitors::PingmeshProber>();

  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (const auto& record : clients[c]->records()) {
      ++result.total_rpcs;
      const bool slow = record.latency < 0 || record.latency > config.slow_threshold;
      if (!slow) continue;
      ++result.slow_rpcs;

      const util::SimTime from = record.sent_at;
      const util::SimTime to =
          record.sent_at + (record.latency < 0 ? util::milliseconds(20) : record.latency);

      // Ground truth for validation: the omniscient recorder knows
      // whether THIS RPC's flow actually lost packets or sat in a
      // congested queue (window overlap alone would over-attribute).
      Attribution truth;
      truth.app = server.slow_at(record.sent_at);
      const packet::FlowKey truth_flow{tb.hosts[c]->addr(), server_host.addr(), 6,
                                       static_cast<std::uint16_t>(30000 + (record.id % 8000)),
                                       9000};
      for (const auto& ev : harness.truth().events()) {
        if (ev.type == core::EventType::kPathChange) continue;
        if (ev.at < from - util::milliseconds(1) || ev.at > to + util::milliseconds(1)) {
          continue;
        }
        if (ev.flow == truth_flow || ev.flow == truth_flow.reversed()) {
          truth.net = true;
          break;
        }
      }
      truth.count_into(result.truth);

      // Source 1: host metrics only.
      Attribution host;
      host.app = window_has_app_slowness(record.sent_at);
      host.count_into(result.host_only);

      // Source 2: host metrics + Pingmesh existence signals.
      Attribution ping = host;
      if (pingmesh &&
          pingmesh->anomaly_in_window(from - util::milliseconds(2), to + util::milliseconds(2),
                                      util::microseconds(200))) {
        ping.net = true;
      }
      ping.count_into(result.host_pingmesh);

      // Source 3: host metrics + NetSeer flow events for THIS RPC's flow.
      Attribution netseer = host;
      const packet::FlowKey request{tb.hosts[c]->addr(), server_host.addr(), 6,
                                    static_cast<std::uint16_t>(30000 + (record.id % 8000)),
                                    9000};
      // Drops / congestion / pauses on this RPC's own flow are network
      // evidence. Path-change events are NOT: every new flow reports its
      // path once, that is informational, not anomalous.
      const auto has_anomaly = [&](const packet::FlowKey& flow) {
        backend::EventQuery query;
        query.flow = flow;
        query.from = from - util::milliseconds(1);
        query.to = to + util::milliseconds(1);
        for (const auto& stored : harness.store().scan(query)) {
          if (stored.event.type != core::EventType::kPathChange) return true;
        }
        return false;
      };
      if (has_anomaly(request) || has_anomaly(request.reversed())) netseer.net = true;
      netseer.count_into(result.host_netseer);

      result.host_only_accuracy += (host == truth);
      result.host_pingmesh_accuracy += (ping == truth);
      result.host_netseer_accuracy += (netseer == truth);
    }
  }
  if (result.slow_rpcs > 0) {
    result.host_only_accuracy /= static_cast<double>(result.slow_rpcs);
    result.host_pingmesh_accuracy /= static_cast<double>(result.slow_rpcs);
    result.host_netseer_accuracy /= static_cast<double>(result.slow_rpcs);
  }

  normalize(result.host_only, static_cast<double>(result.slow_rpcs));
  normalize(result.host_pingmesh, static_cast<double>(result.slow_rpcs));
  normalize(result.host_netseer, static_cast<double>(result.slow_rpcs));
  normalize(result.truth, static_cast<double>(result.slow_rpcs));
  return result;
}

std::string format_breakdown(const char* source, const SlaBreakdown& b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%-14s app=%5.1f%% net=%5.1f%% both=%5.1f%% unknown=%5.1f%% (explained %5.1f%%)",
                source, 100 * b.app, 100 * b.net, 100 * b.both, 100 * b.unknown,
                100 * b.explained());
  return buf;
}

}  // namespace netseer::scenarios
