#include "scenarios/incidents.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "detect/service.h"
#include "packet/builder.h"
#include "telemetry/collect.h"

namespace netseer::scenarios {

std::size_t IncidentReport::alert_count(std::string_view rule, util::NodeId switch_id) const {
  std::size_t count = 0;
  for (const auto& alert : alerts) {
    count += alert.rule == rule && alert.switch_id == switch_id;
  }
  return count;
}

namespace {

/// Send `count` packets of `flow` from `host`, one every `interval`.
void send_paced(net::Host& host, const packet::FlowKey& flow, int count,
                util::SimDuration interval, std::uint32_t payload = 1000,
                util::SimTime start = 0) {
  auto& sim = host.simulator();
  for (int i = 0; i < count; ++i) {
    (void)sim.schedule_at(start + i * interval, [&host, flow, payload] {
      host.send(packet::make_tcp(flow, payload));
    });
  }
}

/// First backend event for `flow` of one of `types` at/after `onset`.
util::SimDuration first_detection(store::FlowEventStore& store, const packet::FlowKey& flow,
                                  std::initializer_list<core::EventType> types,
                                  util::SimTime onset, std::size_t* count_out = nullptr) {
  util::SimTime first = -1;
  std::size_t count = 0;
  backend::EventQuery query;
  query.flow = flow;
  for (const auto& stored : store.scan(query)) {
    if (stored.event.detected_at < onset) continue;
    if (std::find(types.begin(), types.end(), stored.event.type) == types.end()) continue;
    ++count;
    if (first < 0 || stored.event.detected_at < first) first = stored.event.detected_at;
  }
  if (count_out) *count_out = count;
  return first < 0 ? -1 : first - onset;
}

std::string format_evidence(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// Run the detection service over everything the settled harness
/// stored: one pump over the whole durable store, then finish(). The
/// alerts are those of this single pump; a service pumped during the
/// run can close different windows and raise different alerts.
std::vector<IncidentAlert> detect_alerts(Harness& harness, telemetry::Registry* metrics) {
  (void)harness.store().sync();  // the subscription tails the durable watermark
  detect::DetectService service(harness.store(), detect::DetectOptions{});
  service.pump();
  service.finish();
  if (metrics != nullptr) telemetry::collect(*metrics, service);

  std::vector<IncidentAlert> out;
  out.reserve(service.alerts().alerts().size());
  for (const auto& alert : service.alerts().alerts()) {
    IncidentAlert a;
    a.rule = alert.rule->name;
    a.severity = detect::to_string(alert.severity);
    a.state = detect::to_string(alert.state);
    a.switch_id = alert.key.switch_id;
    a.group = alert.key.group;
    a.flow = alert.sample.flow;
    a.raised_at = alert.raised_at;
    a.firing_windows = alert.firing_windows;
    a.flaps = alert.flaps;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace

IncidentReport IncidentSuite::routing_error() {
  IncidentReport report;
  report.id = "#1";
  report.name = "Routing error due to network update";
  report.paper_without_minutes = 162.0;
  report.paper_with_seconds = 14.0;  // "0.232" min in Fig. 8a ~ 14 s

  HarnessOptions options;
  options.seed = seed_;
  Harness harness{options};
  auto& tb = harness.testbed();
  net::Host& src = *tb.hosts.front();    // pod 0
  net::Host& dst = *tb.hosts.back();     // pod 1
  const packet::FlowKey victim{src.addr(), dst.addr(), 6, 5001, 80};

  // Victim traffic before and after the bad update.
  send_paced(src, victim, 400, util::microseconds(10));

  // The faulty update: at 2 ms, both cores get a wrong route for the
  // victim's destination — pointing back down into pod 0, where the aggs
  // route it up again: a forwarding loop, killed by TTL.
  const util::SimTime onset = util::milliseconds(2);
  report.fault_onset = onset;
  (void)harness.simulator().schedule_at(onset, [&tb, &dst] {
    for (auto* core : tb.cores) {
      // Port 0 on a core faces pod 0's first agg (wrong for a pod-1 dst).
      core->routes().insert(packet::Ipv4Prefix{dst.addr(), 32}, pdp::EcmpGroup{{0}});
    }
  });

  harness.run_and_settle(util::milliseconds(8));
  if (metrics_ != nullptr) harness.collect_metrics(*metrics_);
  report.alerts = detect_alerts(harness, metrics_);

  std::size_t events = 0;
  report.detection_latency = first_detection(
      harness.store(), victim, {core::EventType::kDrop, core::EventType::kPathChange}, onset,
      &events);
  report.attributable_events = events;
  report.evidence = format_evidence(
      "victim flow shows %zu drop/path-change events after the update; first in %.1f us",
      events, util::to_microseconds(std::max<util::SimDuration>(report.detection_latency, 0)));
  return report;
}

IncidentReport IncidentSuite::acl_misconfiguration() {
  IncidentReport report;
  report.id = "#2";
  report.name = "ACL configuration error";
  report.paper_without_minutes = 33.0;
  report.paper_with_seconds = 33.0 * 60.0 * (1.0 - 0.61);  // paper: cut by 61%

  HarnessOptions options;
  options.seed = seed_;
  Harness harness{options};
  auto& tb = harness.testbed();
  net::Host& vm = *tb.hosts[5];        // the newly created VM
  net::Host& remote = *tb.hosts[20];

  // The bad rule exists before the VM comes up (it never worked).
  const util::SimTime onset = util::milliseconds(1);
  report.fault_onset = onset;
  pdp::AclRule rule;
  rule.rule_id = 501;
  rule.src = packet::Ipv4Prefix{vm.addr(), 32};
  rule.permit = false;
  tb.tors[0]->acl().add_rule(rule);  // hosts[5] sits under tor0-0

  const packet::FlowKey victim{vm.addr(), remote.addr(), 6, 6001, 443};
  send_paced(vm, victim, 100, util::microseconds(20), 400, onset);

  harness.run_and_settle(util::milliseconds(6));
  if (metrics_ != nullptr) harness.collect_metrics(*metrics_);
  report.alerts = detect_alerts(harness, metrics_);

  // ACL drops aggregate by rule: query the device for kAclDrop events.
  backend::EventQuery query;
  query.type = core::EventType::kAclDrop;
  query.switch_id = tb.tors[0]->id();
  util::SimTime first = -1;
  for (const auto& stored : harness.store().scan(query)) {
    if (stored.event.acl_rule_id != 501) continue;
    ++report.attributable_events;
    if (first < 0 || stored.event.detected_at < first) first = stored.event.detected_at;
  }
  report.detection_latency = first < 0 ? -1 : first - onset;
  report.evidence = format_evidence(
      "%zu acl-drop events name rule 501 at %s; rule match covers the VM's flows",
      report.attributable_events, tb.tors[0]->name().c_str());
  return report;
}

IncidentReport IncidentSuite::parity_error() {
  IncidentReport report;
  report.id = "#3";
  report.name = "Silent drop due to parity error";
  // paper Fig. 8a shows ~1008 min for this incident ("42" on the hours axis)
  report.paper_with_seconds = 30.0;
  report.paper_without_minutes = 1008.0;

  HarnessOptions options;
  options.seed = seed_;
  Harness harness{options};
  auto& tb = harness.testbed();
  net::Host& redis = *tb.hosts[2];  // the Redis endpoint, under tor0-0

  // Bit flip: agg0-0's route entry for the Redis host goes bad. Flows
  // that ECMP onto agg0-0 blackhole; flows via agg0-1 are fine.
  const util::SimTime onset = util::milliseconds(1);
  report.fault_onset = onset;
  (void)harness.simulator().schedule_at(onset, [&tb, &redis] {
    tb.aggs[0]->routes().set_corrupted(packet::Ipv4Prefix{redis.addr(), 32}, true);
  });

  // Many PHP clients from the other pod (cross-pod paths traverse aggs).
  for (std::uint16_t c = 0; c < 12; ++c) {
    net::Host& client = *tb.hosts[16 + c];
    const packet::FlowKey flow{client.addr(), redis.addr(), 6,
                               static_cast<std::uint16_t>(7000 + c), 6379};
    send_paced(client, flow, 60, util::microseconds(30), 300);
  }

  harness.run_and_settle(util::milliseconds(8));
  if (metrics_ != nullptr) harness.collect_metrics(*metrics_);
  report.alerts = detect_alerts(harness, metrics_);

  // Operators query drop events toward the Redis service.
  backend::EventQuery query;
  query.type = core::EventType::kDrop;
  query.switch_id = tb.aggs[0]->id();
  util::SimTime first = -1;
  for (const auto& stored : harness.store().scan(query)) {
    if (stored.event.flow.dst != redis.addr()) continue;
    if (stored.event.drop_code != static_cast<std::uint8_t>(pdp::DropReason::kRouteMiss)) {
      continue;
    }
    ++report.attributable_events;
    if (first < 0 || stored.event.detected_at < first) first = stored.event.detected_at;
  }
  report.detection_latency = first < 0 ? -1 : first - onset;
  report.evidence = format_evidence(
      "table-lookup-miss drops for %zu Redis flows localize to %s only (probabilistic per "
      "ECMP), matching a corrupted entry",
      report.attributable_events, tb.aggs[0]->name().c_str());
  return report;
}

IncidentReport IncidentSuite::unexpected_volume() {
  IncidentReport report;
  report.id = "#4";
  report.name = "Congestion due to unexpected volume";
  report.paper_without_minutes = 60.0;
  report.paper_with_seconds = 0.258 * 60.0;

  HarnessOptions options;
  options.seed = seed_;
  options.netseer.congestion_threshold = util::microseconds(10);
  Harness harness{options};
  auto& tb = harness.testbed();
  net::Host& victim_src = *tb.hosts[24];
  net::Host& shared_dst = *tb.hosts[0];

  // Victim: steady light traffic to hosts[0].
  const packet::FlowKey victim{victim_src.addr(), shared_dst.addr(), 6, 8001, 22};
  send_paced(victim_src, victim, 600, util::microseconds(10), 200);

  // At 2 ms, bully senders flood the same destination (incast on the
  // 25G host downlink of tor0-0).
  const util::SimTime onset = util::milliseconds(2);
  report.fault_onset = onset;
  std::vector<net::Host*> bullies(tb.hosts.begin() + 16, tb.hosts.begin() + 24);
  traffic::launch_incast(bullies, shared_dst.addr(), 200 * 1000, 1000, onset);

  harness.run_and_settle(util::milliseconds(10));
  if (metrics_ != nullptr) harness.collect_metrics(*metrics_);
  report.alerts = detect_alerts(harness, metrics_);

  // The victim's congestion events point at the device...
  std::size_t victim_events = 0;
  report.detection_latency = first_detection(harness.store(), victim,
                                             {core::EventType::kCongestion,
                                              core::EventType::kDrop},
                                             onset, &victim_events);

  // ... and grouping that device's events by flow ranks the bullies.
  backend::EventQuery at_tor;
  at_tor.switch_id = tb.tors[0]->id();
  at_tor.from = onset;
  std::unordered_map<std::uint64_t, std::uint64_t> counters;
  for (const auto& stored : harness.store().scan(at_tor)) {
    if (stored.event.type != core::EventType::kCongestion &&
        stored.event.drop_code != static_cast<std::uint8_t>(pdp::DropReason::kCongestion)) {
      continue;
    }
    counters[stored.event.flow.hash64()] += stored.event.counter;
  }
  std::uint64_t top_hash = 0, top_count = 0;
  for (const auto& [hash, count] : counters) {
    if (count > top_count) {
      top_count = count;
      top_hash = hash;
    }
  }
  bool top_is_bully = false;
  for (std::size_t i = 0; i < bullies.size(); ++i) {
    const packet::FlowKey bully_flow{bullies[i]->addr(), shared_dst.addr(), 6,
                                     static_cast<std::uint16_t>(20000 + i), 80};
    if (bully_flow.hash64() == top_hash) top_is_bully = true;
  }
  report.attributable_events = victim_events;
  report.evidence = format_evidence(
      "victim saw %zu congestion events; top contributor at %s by counter (%llu pkts) %s a "
      "bully flow -> operators know which flow to migrate",
      victim_events, tb.tors[0]->name().c_str(), static_cast<unsigned long long>(top_count),
      top_is_bully ? "IS" : "IS NOT");
  return report;
}

IncidentReport IncidentSuite::server_side_bug() {
  IncidentReport report;
  report.id = "#5";
  report.name = "SSD firmware driver bug (server-side)";
  report.paper_without_minutes = 284.0;
  report.paper_with_seconds = 42.0;

  HarnessOptions options;
  options.seed = seed_;
  Harness harness{options};
  auto& tb = harness.testbed();
  net::Host& client = *tb.hosts[0];
  net::Host& storage = *tb.hosts[16];

  // Storage traffic (the suspect flows).
  const packet::FlowKey victim{client.addr(), storage.addr(), 6, 9001, 3260};
  send_paced(client, victim, 500, util::microseconds(10), 800);

  // Red herring: unrelated incast causes MMU drops at the storage POD's
  // ToR — the counters that misled operators for hours.
  const util::SimTime onset = util::milliseconds(2);
  report.fault_onset = onset;
  std::vector<net::Host*> noise(tb.hosts.begin() + 24, tb.hosts.begin() + 32);
  traffic::launch_incast(noise, tb.hosts[17]->addr(), 400 * 1000, 1000, onset);

  harness.run_and_settle(util::milliseconds(10));
  if (metrics_ != nullptr) harness.collect_metrics(*metrics_);
  report.alerts = detect_alerts(harness, metrics_);

  // Query the victim's flows: no events -> network exonerated.
  std::size_t victim_events = 0;
  (void)first_detection(harness.store(), victim,
                        {core::EventType::kDrop, core::EventType::kCongestion,
                         core::EventType::kPause},
                        0, &victim_events);
  report.attributable_events = victim_events;
  report.network_exonerated = (victim_events == 0);
  report.detection_latency = report.network_exonerated ? 0 : -1;

  // Meanwhile the ToR really did drop packets — of other flows.
  backend::EventQuery at_tor;
  at_tor.switch_id = tb.tors[2]->id();  // hosts[16..23] sit under tor1-0
  std::size_t unrelated = 0;
  for (auto cursor = harness.store().scan(at_tor); cursor.next() != nullptr;) ++unrelated;
  report.evidence = format_evidence(
      "storage flow has %zu events while %zu unrelated drop/congestion events exist at the "
      "same ToR: network exonerated, suspicion moves to the server",
      victim_events, unrelated);
  return report;
}

IncidentReport IncidentSuite::baseline() {
  IncidentReport report;
  report.id = "#0";
  report.name = "Fault-free baseline (control)";
  report.paper_without_minutes = 0.0;
  report.paper_with_seconds = 0.0;

  HarnessOptions options;
  options.seed = seed_;
  Harness harness{options};
  auto& tb = harness.testbed();

  // The same shapes the incidents use as victim traffic — paced flows
  // within and across pods — with nothing broken underneath them.
  const packet::FlowKey intra{tb.hosts[0]->addr(), tb.hosts[2]->addr(), 6, 5001, 80};
  send_paced(*tb.hosts[0], intra, 400, util::microseconds(10));
  const packet::FlowKey cross{tb.hosts[5]->addr(), tb.hosts[20]->addr(), 6, 6001, 443};
  send_paced(*tb.hosts[5], cross, 100, util::microseconds(20), 400, util::milliseconds(1));
  for (std::uint16_t c = 0; c < 4; ++c) {
    net::Host& client = *tb.hosts[16 + c];
    const packet::FlowKey flow{client.addr(), tb.hosts[2]->addr(), 6,
                               static_cast<std::uint16_t>(7000 + c), 6379};
    send_paced(client, flow, 60, util::microseconds(30), 300);
  }

  harness.run_and_settle(util::milliseconds(8));
  if (metrics_ != nullptr) harness.collect_metrics(*metrics_);
  report.alerts = detect_alerts(harness, metrics_);

  report.fault_onset = 0;
  report.detection_latency = report.alerts.empty() ? 0 : -1;
  report.attributable_events = report.alerts.size();
  report.evidence = format_evidence("fault-free run raised %zu alerts (must be 0)",
                                    report.alerts.size());
  return report;
}

std::vector<IncidentReport> IncidentSuite::run_all() {
  return {routing_error(), acl_misconfiguration(), parity_error(), unexpected_volume(),
          server_side_bug()};
}

}  // namespace netseer::scenarios
