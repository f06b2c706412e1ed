// Paper-path benchmark: runs one named workload through NetSeer's public
// APIs for a fixed wall budget, checks every output it can check, and
// prints one JSON result line.
//
//   perfbench_e2e --workload testbed-web-faults|fat8-dctcp|store-tail
//                 --seed N --seconds S --trace 0|1 [--sabotage]
//
// A run repeats the workload ("reps") with the same seed until the
// budget is spent and reports medians. --trace 0 prints the end-to-end
// metrics. --trace 1 alternates untraced and traced reps and prints the
// per-layer metrics. Traced reps time each layer from the outside only:
//   - passive SwitchAgent probes registered before GroundTruth, between
//     GroundTruth and NetSeerApp, and after NetSeerApp, sampling 1 in
//     kSamplePeriod hook calls (deterministically, by call count);
//   - a forwarding NicAgent around each NetSeerNicAgent (same sampling);
//   - a forwarding LinkObserver around GroundTruth's link-fault hook and
//     a forwarding EventSink between Collector and FlowEventStore;
//   - the benchmark's own calls into DetectService, FlowEventStore and
//     the Simulator.
// Every rep of a run must reproduce the first rep's deterministic counts
// exactly, traced or not; a mismatch is a failed check.
//
// --sabotage deliberately loses one report batch so the correctness
// checks can be seen to fail (exit status 1).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "detect/service.h"
#include "fabric/fat_tree.h"
#include "monitors/ground_truth.h"
#include "store/store.h"
#include "store/subscription.h"
#include "traffic/distributions.h"
#include "traffic/generator.h"

namespace {

using namespace netseer;
using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, double>;

constexpr std::uint64_t kSamplePeriod = 64;
constexpr util::NodeId kCollectorId = 100000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double nanos(Clock::duration d) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Wall time and call count of one coarse call site, timed on every call.
struct Span {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// Run `fn`, charging its wall time to `span` when tracing (span != null).
template <typename F>
decltype(auto) timed(Span* span, F&& fn) {
  struct Charge {
    Span* span;
    Clock::time_point start;
    ~Charge() {
      if (span != nullptr) {
        span->seconds += seconds_since(start);
        ++span->calls;
      }
    }
  } charge{span, span != nullptr ? Clock::now() : Clock::time_point{}};
  return fn();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- Outcome accounting ---------------------------------------------------

/// Checked outcomes of a run: every check counts one attempt, and a
/// wrong outcome one failure. failed_frac = failed / attempted.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) std::fprintf(stderr, "check failed: %s\n", what);
    }
  }
};

// ---- Switch-hook sampling -------------------------------------------------

enum Hook : std::size_t {
  kMacRx,
  kIngress,
  kPipelineDrop,
  kMmuDrop,
  kEnqueue,
  kEgress,
  kPfcRx,
  kPfcTx,
  kHookCount,
};

/// Shared state of the three probes on every switch. Every kSamplePeriod-th
/// call of a hook (counted at the first probe) is sampled: the first probe
/// reads the clock, the middle probe (after GroundTruth) reads it again,
/// and the last probe (after NetSeerApp) closes the sample. A call nested
/// inside a sampled one (NetSeer injecting a packet that leaves at once)
/// is counted but not sampled; its time lands in the outer sample.
class HookSampler {
 public:
  explicit HookSampler(std::uint64_t period) : period_(period) {}

  void before(Hook hook, const void* key, bool may_sample) {
    const std::uint64_t n = ++calls_[hook];
    if (open_ != kHookCount || !may_sample || n % period_ != 0) return;
    open_ = hook;
    key_ = key;
    start_ = Clock::now();
    mid_ = start_;
  }

  void mid(Hook hook, const void* key) {
    if (hook == open_ && key == key_) mid_ = Clock::now();
  }

  void after(Hook hook, const void* key) {
    if (hook != open_ || key != key_) return;
    const auto end = Clock::now();
    truth_ns_[hook] += nanos(mid_ - start_);
    netseer_ns_[hook] += nanos(end - mid_);
    ++samples_[hook];
    open_ = kHookCount;
  }

  /// Estimated total seconds in GroundTruth (or NetSeerApp) hooks: per
  /// hook, the mean sampled interval less the probe bracket, times calls.
  [[nodiscard]] double truth_seconds(double bracket_ns) const {
    return estimate(truth_ns_, bracket_ns);
  }
  [[nodiscard]] double netseer_seconds(double bracket_ns) const {
    return estimate(netseer_ns_, bracket_ns);
  }
  [[nodiscard]] std::uint64_t calls() const {
    std::uint64_t total = 0;
    for (const auto c : calls_) total += c;
    return total;
  }
  /// Mean raw interval of the samples, both halves pooled (calibration).
  [[nodiscard]] double mean_interval_ns() const {
    double ns = 0.0;
    std::uint64_t n = 0;
    for (std::size_t h = 0; h < kHookCount; ++h) {
      ns += truth_ns_[h] + netseer_ns_[h];
      n += 2 * samples_[h];
    }
    return n == 0 ? 0.0 : ns / static_cast<double>(n);
  }

 private:
  [[nodiscard]] double estimate(const std::array<double, kHookCount>& sums,
                                double bracket_ns) const {
    double total_ns = 0.0;
    for (std::size_t h = 0; h < kHookCount; ++h) {
      if (samples_[h] == 0) continue;
      const double mean = sums[h] / static_cast<double>(samples_[h]) - bracket_ns;
      total_ns += mean * static_cast<double>(calls_[h]);
    }
    return total_ns * 1e-9;
  }

  std::uint64_t period_;
  std::array<std::uint64_t, kHookCount> calls_{};
  std::array<std::uint64_t, kHookCount> samples_{};
  std::array<double, kHookCount> truth_ns_{};
  std::array<double, kHookCount> netseer_ns_{};
  std::size_t open_ = kHookCount;
  const void* key_ = nullptr;
  Clock::time_point start_{};
  Clock::time_point mid_{};
};

/// A passive agent that only marks its position in the agent chain.
class HookProbe final : public pdp::SwitchAgent {
 public:
  enum class Position { kBefore, kMid, kAfter };

  HookProbe(HookSampler& sampler, Position position) : sampler_(sampler), position_(position) {}

  void on_mac_rx(pdp::Switch&, const packet::Packet& pkt, util::PortId, bool) override {
    mark(kMacRx, &pkt);
  }
  bool on_ingress(pdp::Switch&, packet::Packet& pkt, pdp::PipelineContext&) override {
    // NetSeerApp consumes loss notifications, so the last probe never
    // sees them: never open a sample on one.
    mark(kIngress, &pkt, pkt.kind != packet::PacketKind::kLossNotify);
    return true;
  }
  void on_pipeline_drop(pdp::Switch&, const packet::Packet& pkt,
                        const pdp::PipelineContext&) override {
    mark(kPipelineDrop, &pkt);
  }
  void on_mmu_drop(pdp::Switch&, const packet::Packet& pkt, const pdp::PipelineContext&) override {
    mark(kMmuDrop, &pkt);
  }
  void on_enqueue(pdp::Switch&, const packet::Packet& pkt, const pdp::PipelineContext&,
                  bool) override {
    mark(kEnqueue, &pkt);
  }
  void on_egress(pdp::Switch&, packet::Packet& pkt, const pdp::EgressInfo&) override {
    mark(kEgress, &pkt);
  }
  void on_pfc_rx(pdp::Switch&, const packet::PfcFrame& pfc, util::PortId) override {
    mark(kPfcRx, &pfc);
  }
  void on_pfc_tx(pdp::Switch& sw, util::PortId, util::QueueId, bool) override {
    mark(kPfcTx, &sw);
  }

 private:
  void mark(Hook hook, const void* key, bool may_sample = true) {
    switch (position_) {
      case Position::kBefore: sampler_.before(hook, key, may_sample); break;
      case Position::kMid: sampler_.mid(hook, key); break;
      case Position::kAfter: sampler_.after(hook, key); break;
    }
  }

  HookSampler& sampler_;
  Position position_;
};

/// Time an empty probe pair: the three probes back to back with nothing
/// between them, every call sampled. The mean interval is the bias each
/// sampled interval carries (clock reads plus probe dispatch).
double calibrate_bracket_ns() {
  sim::Simulator sim;
  pdp::Switch sw(sim, 1, "calibration", pdp::SwitchConfig{});
  HookSampler sampler(1);
  HookProbe before(sampler, HookProbe::Position::kBefore);
  HookProbe mid(sampler, HookProbe::Position::kMid);
  HookProbe after(sampler, HookProbe::Position::kAfter);
  // Dispatch through the base class, as pdp::Switch does.
  std::vector<pdp::SwitchAgent*> chain{&before, &mid, &after};
  packet::Packet pkt;
  pdp::EgressInfo info;
  for (int i = 0; i < 200000; ++i) {
    for (auto* agent : chain) agent->on_egress(sw, pkt, info);
  }
  return sampler.mean_interval_ns();
}

/// 1-in-N timing of a call site that wraps its callee directly.
class CallSampler {
 public:
  explicit CallSampler(std::uint64_t period) : period_(period) {}

  template <typename F>
  void run(F&& fn) {
    const std::uint64_t n = ++calls_;
    if (busy_ || n % period_ != 0) {
      fn();
      return;
    }
    busy_ = true;
    const auto start = Clock::now();
    fn();
    ns_ += nanos(Clock::now() - start);
    ++samples_;
    busy_ = false;
  }

  [[nodiscard]] double seconds(double bracket_ns) const {
    if (samples_ == 0) return 0.0;
    return (ns_ / static_cast<double>(samples_) - bracket_ns) * static_cast<double>(calls_) * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  std::uint64_t period_;
  std::uint64_t calls_ = 0;
  std::uint64_t samples_ = 0;
  double ns_ = 0.0;
  bool busy_ = false;
};

/// Forwarding NicAgent around one host's NetSeerNicAgent.
class TimedNic final : public net::NicAgent {
 public:
  TimedNic(core::NetSeerNicAgent& inner, CallSampler& sampler)
      : inner_(inner), sampler_(sampler) {}

  void on_tx(net::Host& host, packet::Packet& pkt) override {
    sampler_.run([&] { inner_.on_tx(host, pkt); });
  }
  bool on_rx(net::Host& host, packet::Packet& pkt) override {
    bool keep = true;
    sampler_.run([&] { keep = inner_.on_rx(host, pkt); });
    return keep;
  }

 private:
  core::NetSeerNicAgent& inner_;
  CallSampler& sampler_;
};

/// Forwarding LinkObserver around GroundTruth's link-fault hook.
class TimedLinkObserver final : public net::LinkObserver {
 public:
  TimedLinkObserver(net::LinkObserver& inner, Span& span) : inner_(inner), span_(span) {}

  void on_link_fault(const packet::Packet& pkt, util::NodeId from, util::NodeId to,
                     net::LinkFault fault) override {
    timed(&span_, [&] { inner_.on_link_fault(pkt, from, to, fault); });
  }

 private:
  net::LinkObserver& inner_;
  Span& span_;
};

/// Forwarding EventSink between Collector and FlowEventStore. Times
/// every add_batch when tracing; with `lose_first_batch` it drops the
/// first batch on the floor (--sabotage).
class TimedSink final : public backend::EventSink {
 public:
  TimedSink(backend::EventSink& inner, Span* span, bool lose_first_batch)
      : inner_(inner), span_(span), lose_next_(lose_first_batch) {}

  void add_batch(std::span<const core::FlowEvent> events, util::SimTime now) override {
    if (lose_next_ && !events.empty()) {
      lose_next_ = false;
      return;
    }
    timed(span_, [&] { inner_.add_batch(events, now); });
  }
  [[nodiscard]] std::uint64_t durable_watermark() const override {
    return inner_.durable_watermark();
  }

 private:
  backend::EventSink& inner_;
  Span* span_;
  bool lose_next_;
};

// ---- One rep --------------------------------------------------------------

/// What one rep measured. `counts` are the deterministic outputs every
/// rep of a run must reproduce; `layers` are the per-layer values.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  double work = 0.0;  // switch-hop packets (sim) or events ingested (store-tail)
  std::vector<double> query_us;
  Values counts;
  Values layers;
};

/// Fill the store-side and detect-side per-layer values both workload
/// families share.
void store_layers(Rep& rep, const store::FlowEventStore& store, const detect::DetectService& detect,
                  const Span& ingest, const Span& flush, const Span& maintain, const Span& query,
                  const Span& pump) {
  const auto& st = store.stats();
  auto& L = rep.layers;
  L["store.ingest_s"] = ingest.seconds;
  L["store.ingest_calls"] = static_cast<double>(ingest.calls);
  L["store.events_per_call"] =
      ingest.calls == 0 ? 0.0 : static_cast<double>(st.appended) / static_cast<double>(ingest.calls);
  L["store.flush_s"] = flush.seconds;
  L["store.maintain_s"] = maintain.seconds;
  L["store.query_s"] = query.seconds;
  L["store.queries"] = static_cast<double>(query.calls);
  L["store.rows_examined_per_match"] =
      st.rows_matched == 0 ? 0.0
                           : static_cast<double>(st.rows_examined) / static_cast<double>(st.rows_matched);
  const double planned = static_cast<double>(st.segments_pruned + st.segments_scanned);
  L["store.segments_pruned_frac"] =
      planned == 0 ? 0.0 : static_cast<double>(st.segments_pruned) / planned;

  std::uint64_t windows = 0, late = 0;
  for (const auto& engine : detect.engines()) {
    windows += engine.stats().windows_closed;
    late += engine.stats().late_rows;
  }
  L["detect.pump_s"] = pump.seconds;
  L["detect.pumps"] = static_cast<double>(detect.stats().pumps);
  L["detect.rows"] = static_cast<double>(detect.stats().rows);
  L["detect.windows_closed"] = static_cast<double>(windows);
  L["detect.late_rows"] = static_cast<double>(late);
  L["detect.alerts"] = static_cast<double>(detect.alerts().alerts().size());
}

/// Time one query with its scan run to exhaustion; returns rows matched.
std::uint64_t run_query(const store::FlowEventStore& store, const backend::EventQuery& query,
                        Rep& rep, Span& span) {
  const auto start = Clock::now();
  std::uint64_t rows = 0;
  for (const auto& stored : store.scan(query)) {
    (void)stored;
    ++rows;
  }
  const double seconds = seconds_since(start);
  rep.query_us.push_back(seconds * 1e6);
  span.seconds += seconds;
  ++span.calls;
  return rows;
}

// ---- Simulated workloads ----------------------------------------------------

struct SimWorkload {
  bool fat8 = false;                          // k=8 fat-tree instead of the 10-switch testbed
  const traffic::EmpiricalCdf* sizes = nullptr;
  util::SimTime duration = 0;                 // generators stop here
  util::SimTime tail = 0;                     // extra time before the drain
};

constexpr util::SimDuration kPumpInterval = util::milliseconds(1);
constexpr util::SimDuration kQueryWindow = util::milliseconds(2);
constexpr int kSimQueries = 600;  // operator queries after each run

Rep run_sim_rep(const SimWorkload& w, std::uint64_t seed, bool traced, double bracket_ns,
                bool sabotage, Checks& checks) {
  Rep rep;
  rep.traced = traced;
  Span link_truth, ingest, pump, flush, query, none;
  const auto rep_start = Clock::now();

  // -- Fabric: topology and routes.
  fabric::TestbedConfig topo;
  topo.host_rate = util::BitRate::gbps(5);
  topo.fabric_rate = util::BitRate::gbps(20);
  if (w.fat8) {
    topo.num_pods = 8;
    topo.aggs_per_pod = 4;
    topo.tors_per_pod = 4;
    topo.num_cores = 16;
    topo.hosts_per_tor = 4;
  }
  fabric::Testbed tb = fabric::make_testbed(topo, seed);
  auto& net = *tb.net;
  auto& sim = net.simulator();
  const double fabric_s = seconds_since(rep_start);

  // -- Agents: ground truth first, NetSeer last, probes around both.
  const auto agents_start = Clock::now();
  const core::NetSeerConfig netseer{};
  HookSampler hooks(kSamplePeriod);
  HookProbe before(hooks, HookProbe::Position::kBefore);
  HookProbe mid(hooks, HookProbe::Position::kMid);
  HookProbe after(hooks, HookProbe::Position::kAfter);
  CallSampler nic_sampler(kSamplePeriod);

  monitors::GroundTruth truth(netseer.congestion_threshold);
  TimedLinkObserver link_probe(truth, link_truth);
  net.set_link_observer(traced ? static_cast<net::LinkObserver*>(&link_probe) : &truth);
  const auto switches = tb.all_switches();
  for (auto* sw : switches) {
    if (traced) sw->add_agent(&before);
    sw->add_agent(&truth);
    if (traced) sw->add_agent(&mid);
  }
  core::ReportChannel channel(sim, net.rng().fork(), util::milliseconds(1), 0.0);
  double agents_s = seconds_since(agents_start);

  const auto store_start = Clock::now();
  store::FlowEventStore store{store::StoreOptions{}};
  TimedSink sink(store, traced ? &ingest : nullptr, sabotage);
  detect::DetectService detect(store);
  const double store_s = seconds_since(store_start);

  const auto agents_start2 = Clock::now();
  backend::Collector collector(sim, kCollectorId, channel, sink);
  std::vector<std::unique_ptr<core::NetSeerApp>> apps;
  for (auto* sw : switches) {
    apps.push_back(std::make_unique<core::NetSeerApp>(*sw, netseer, &channel, kCollectorId));
    if (traced) sw->add_agent(&after);
  }
  std::vector<std::unique_ptr<core::NetSeerNicAgent>> nics;
  std::vector<std::unique_ptr<TimedNic>> nic_probes;
  for (auto* host : tb.hosts) {
    nics.push_back(std::make_unique<core::NetSeerNicAgent>(netseer.interswitch));
    if (traced) {
      nic_probes.push_back(std::make_unique<TimedNic>(*nics.back(), nic_sampler));
      host->set_nic_agent(nic_probes.back().get());
    } else {
      host->set_nic_agent(nics.back().get());
    }
  }
  agents_s += seconds_since(agents_start2);

  // -- Traffic: all-to-all Poisson flows, as scenarios::Harness does.
  traffic::GeneratorConfig gen;
  gen.sizes = w.sizes;
  gen.load = 0.7;
  gen.flow_rate = util::BitRate::bps(topo.host_rate.bits_per_second() / 4);
  gen.stop = w.duration;
  std::vector<std::unique_ptr<traffic::FlowGenerator>> generators;
  for (auto* host : tb.hosts) {
    std::vector<packet::Ipv4Addr> peers;
    for (auto* peer : tb.hosts) {
      if (peer != host) peers.push_back(peer->addr());
    }
    generators.push_back(
        std::make_unique<traffic::FlowGenerator>(*host, std::move(peers), gen, net.rng().fork()));
    generators.back()->start();
  }

  // -- Faults.
  const auto uplink = static_cast<util::PortId>(topo.hosts_per_tor);
  net::Link* lossy = tb.tors[0]->link(uplink);
  if (!w.fat8) {
    // The §5.2 mix of bench/experiment.cpp's run_workload_experiment.
    (void)sim.schedule_at(w.duration / 4, [lossy] {
      net::LinkFaultModel faults;
      faults.drop_prob = 0.005;
      faults.corrupt_prob = 0.002;
      lossy->set_fault_model(faults);
    });
    (void)sim.schedule_at(w.duration * 3 / 4,
                          [lossy] { lossy->set_fault_model(net::LinkFaultModel{}); });
    (void)sim.schedule_at(w.duration / 2, [&tb] {
      tb.aggs[1]->routes().set_corrupted(packet::Ipv4Prefix{tb.hosts[1]->addr(), 32}, true);
    });
    (void)sim.schedule_at(w.duration / 2, [&tb, uplink] {
      tb.tors[0]->routes().insert(packet::Ipv4Prefix{tb.hosts[8]->addr(), 32},
                                  pdp::EcmpGroup{{uplink}});
    });
    std::vector<net::Host*> senders(tb.hosts.begin() + 16, tb.hosts.begin() + 24);
    traffic::launch_incast(senders, tb.hosts[9]->addr(), 200 * 1000, 1000, w.duration / 3);
  } else {
    // bench_scalability's lossy ToR uplink and incast.
    net::LinkFaultModel faults;
    faults.drop_prob = 0.002;
    lossy->set_fault_model(faults);
    std::vector<net::Host*> senders(tb.hosts.begin(), tb.hosts.begin() + 8);
    traffic::launch_incast(senders, tb.hosts.back()->addr(), 100 * 1000, 1000, w.duration / 2);
  }

  Span* pump_span = traced ? &pump : nullptr;
  sim::TaskHandle pumper =
      sim.schedule_every(kPumpInterval, [&] { timed(pump_span, [&] { (void)detect.pump(); }); });
  rep.setup_s = seconds_since(rep_start);

  // -- Run phase: first event to settled (drain, app flush, store flush,
  // final pump), the sequence of scenarios::Harness::run_and_settle.
  const auto run_start = Clock::now();
  sim.run_until(w.duration + w.tail);
  pumper.cancel();
  sim.run();
  for (auto& app : apps) app->flush();
  sim.run();
  for (auto& app : apps) app->flush();
  sim.run();
  timed(traced ? &flush : nullptr, [&] { store.flush(); });
  timed(pump_span, [&] { (void)detect.pump(); });
  rep.run_s = seconds_since(run_start);
  detect.finish();

  // -- Counts.
  std::uint64_t pkts = 0, pdp_drops = 0;
  std::int64_t queue_peak = 0;
  for (const auto* sw : switches) {
    for (util::PortId p = 0; p < sw->config().num_ports; ++p) pkts += sw->counters(p).rx_packets;
    pdp_drops += sw->total_drops();
    for (util::QueueId q = 0; q < util::kNumQueues; ++q) {
      queue_peak = std::max(queue_peak, sw->queue_counters(q).peak_bytes);
    }
  }
  rep.work = static_cast<double>(pkts);

  std::vector<backend::StoredEvent> rows;
  for (const auto& stored : store.scan(backend::EventQuery{})) rows.push_back(stored);

  // Simulated detect-to-store latency over events stored while the
  // generators still ran; the drain and the teardown flush would
  // measure run length, not the program.
  std::vector<double> lat_us;
  for (const auto& stored : rows) {
    if (stored.stored_at < w.duration) {
      lat_us.push_back(static_cast<double>(stored.stored_at - stored.event.detected_at) * 1e-3);
    }
  }

  core::FunnelStats funnel;
  std::uint64_t missed = 0, cache_hits = 0, cache_offered = 0, cebp_events = 0, cebp_batches = 0,
                recirculations = 0, pcie_peak = 0, fp_eliminated = 0, reports = 0, retransmits = 0;
  for (const auto& app : apps) {
    const auto& f = app->funnel();
    funnel.traffic_bytes += f.traffic_bytes;
    funnel.event_packets += f.event_packets;
    funnel.dedup_reports += f.dedup_reports;
    funnel.report_bytes += f.report_bytes;
    missed += app->missed_mmu_redirects() + app->missed_internal_port();
    for (const auto type : {core::EventType::kDrop, core::EventType::kCongestion,
                            core::EventType::kPause}) {
      cache_hits += app->cache(type).hits();
      cache_offered += app->cache(type).offered();
    }
    cebp_events += app->batcher().events_batched();
    cebp_batches += app->batcher().batches_flushed();
    recirculations += app->batcher().recirculations();
    pcie_peak = std::max<std::uint64_t>(pcie_peak, app->pcie().high_watermark());
    fp_eliminated += app->cpu().fp().eliminated();
    if (app->has_reporter()) {
      reports += app->reporter().submitted();
      retransmits += app->reporter().retransmits();
    }
  }
  const double overhead_ppm = static_cast<double>(funnel.report_bytes) /
                              std::max(1.0, static_cast<double>(funnel.traffic_bytes)) * 1e6;

  auto& C = rep.counts;
  C["pkts"] = static_cast<double>(pkts);
  C["sim_events"] = static_cast<double>(sim.events_processed());
  C["stored_events"] = static_cast<double>(rows.size());
  C["alerts"] = static_cast<double>(detect.alerts().alerts().size());
  C["store_lat_p50_us"] = percentile(lat_us, 50);
  C["store_lat_p99_us"] = percentile(lat_us, 99);
  C["store_lat_excluded"] = static_cast<double>(rows.size() - lat_us.size());
  C["overhead_ppm"] = overhead_ppm;

  // -- Correctness: zero FN and zero FP against ground truth (the rule of
  // run_workload_experiment: path-change re-reports after expiry are not
  // false positives), nothing missed, nothing dropped by the collector.
  std::map<core::EventType, monitors::EventGroupSet> detected;
  for (const auto& stored : rows) {
    detected[stored.event.type].insert(monitors::EventGroup{
        stored.event.switch_id, stored.event.flow.hash64(), stored.event.type});
  }
  for (const auto type :
       {core::EventType::kDrop, core::EventType::kCongestion, core::EventType::kPathChange}) {
    const auto actual = truth.groups(type);
    const auto& found = detected[type];
    std::uint64_t fn = 0, fp = 0;
    for (const auto& group : actual) fn += !found.contains(group);
    if (type != core::EventType::kPathChange) {
      for (const auto& group : found) fp += !actual.contains(group);
    }
    checks.expect(fn == 0, "zero false negatives against ground truth");
    checks.expect(fp == 0, "zero false positives against ground truth");
  }
  checks.expect(missed == 0, "no event missed for lack of MMU-redirect or internal-port budget");
  checks.expect(collector.window_dropped_segments() == 0, "no segment beyond the reorder window");
  checks.expect(rows.size() == collector.events_stored(), "every collected event reached the store");
  if (!w.fat8) {
    bool parity_alert = false;
    for (const auto& alert : detect.alerts().alerts()) {
      parity_alert = parity_alert || (alert.rule != nullptr && alert.rule->name == "drop-burst" &&
                                      alert.key.switch_id == tb.aggs[1]->id());
    }
    checks.expect(parity_alert, "the parity fault raises a drop-burst alert on its agg");
  }

  // -- Operator queries over the finished run: the fixed mix, timed back
  // to back, then checked against counts from one pass over every row.
  util::Rng pick(seed * 0x9e3779b97f4a7c15ull + 17);
  const util::SimTime to = w.duration;
  const util::SimTime from = to - kQueryWindow;
  std::vector<backend::EventQuery> queries;
  for (int i = 0; i < kSimQueries && !rows.empty(); ++i) {
    const auto& sample = rows[pick.uniform(rows.size())].event;
    backend::EventQuery q;
    switch (i % 3) {
      case 0: q.for_flow(sample.flow); break;
      case 1: q.for_switch(sample.switch_id).of_type(sample.type).between(from, to); break;
      default: q.of_type(core::EventType::kDrop).between(from, to); break;
    }
    queries.push_back(q);
  }
  std::vector<std::uint64_t> got;
  for (const auto& q : queries) got.push_back(run_query(store, q, rep, query));
  std::unordered_map<packet::FlowKey, std::uint64_t, packet::FlowKeyHash> per_flow;
  std::map<std::pair<util::NodeId, core::EventType>, std::uint64_t> in_window;
  std::uint64_t drops_in_window = 0;
  for (const auto& stored : rows) {
    const auto& ev = stored.event;
    ++per_flow[ev.flow];
    if (ev.detected_at >= from && ev.detected_at < to) {
      ++in_window[{ev.switch_id, ev.type}];
      drops_in_window += ev.type == core::EventType::kDrop;
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const std::uint64_t want = q.flow ? per_flow[*q.flow]
                               : q.switch_id ? in_window[{*q.switch_id, *q.type}]
                                             : drops_in_window;
    checks.expect(got[i] == want, "query row count matches a pass over every stored row");
  }

  if (!traced) return rep;

  // -- Per-layer values (traced reps only).
  auto& L = rep.layers;
  const double truth_s = hooks.truth_seconds(bracket_ns) + link_truth.seconds;
  const double hooks_s = hooks.netseer_seconds(bracket_ns);
  const double nic_s = nic_sampler.seconds(bracket_ns);
  std::uint64_t link_pkts = 0, link_faults = 0;
  for (const auto& link : net.links()) {
    link_pkts += link->packets_carried();
    link_faults += link->packets_dropped() + link->packets_corrupted();
  }
  std::uint64_t flows = 0;
  for (const auto& g : generators) flows += g->flows_started();

  L["sim.events"] = static_cast<double>(sim.events_processed());
  L["sim.events_per_pkt"] = static_cast<double>(sim.events_processed()) / std::max(1.0, rep.work);
  L["sim.task_heap_allocs"] = static_cast<double>(sim.task_heap_allocs());
  L["traffic.flows"] = static_cast<double>(flows);
  L["net.link_pkts"] = static_cast<double>(link_pkts);
  L["net.link_faults"] = static_cast<double>(link_faults);
  L["pdp.pkts"] = static_cast<double>(pkts);
  L["pdp.drops"] = static_cast<double>(pdp_drops);
  L["pdp.queue_peak_bytes"] = static_cast<double>(queue_peak);
  L["monitors.truth_s"] = truth_s;
  L["monitors.truth_calls"] = static_cast<double>(hooks.calls() + link_truth.calls);
  L["monitors.truth_events"] = static_cast<double>(truth.events().size());
  L["core.hooks_s"] = hooks_s;
  L["core.hook_calls"] = static_cast<double>(hooks.calls());
  L["core.nic_s"] = nic_s;
  L["core.nic_calls"] = static_cast<double>(nic_sampler.calls());
  L["core.event_pkts"] = static_cast<double>(funnel.event_packets);
  L["core.dedup_ratio"] = funnel.event_packets == 0
                              ? 0.0
                              : static_cast<double>(funnel.dedup_reports) /
                                    static_cast<double>(funnel.event_packets);
  L["core.group_cache_hit_ratio"] =
      cache_offered == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(cache_offered);
  L["core.cebp_events_per_batch"] =
      cebp_batches == 0 ? 0.0 : static_cast<double>(cebp_events) / static_cast<double>(cebp_batches);
  L["core.cebp_recirculations"] = static_cast<double>(recirculations);
  L["core.pcie_backlog_peak"] = static_cast<double>(pcie_peak);
  L["core.cpu_fp_eliminated"] = static_cast<double>(fp_eliminated);
  L["core.reports"] = static_cast<double>(reports);
  L["core.retransmits"] = static_cast<double>(retransmits);
  L["core.missed"] = static_cast<double>(missed);
  L["backend.window_drops"] = static_cast<double>(collector.window_dropped_segments());
  L["backend.duplicates"] = static_cast<double>(collector.duplicate_segments());
  L["backend.segments"] = static_cast<double>(collector.segments_received());
  store_layers(rep, store, detect, ingest, flush, none, query, pump);
  L["fabric.build_s"] = fabric_s;
  L["setup.agents_s"] = agents_s;
  L["setup.store_s"] = store_s;
  L["sim.other_s"] = rep.run_s - truth_s - hooks_s - nic_s - ingest.seconds - pump.seconds -
                     flush.seconds;
  return rep;
}

// ---- store-tail -------------------------------------------------------------

/// The generated flow-event stream of store-tail, with its query schedule
/// and the row count the generator predicts for every query.
struct TailInput {
  struct Batch {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    util::SimTime at = 0;  // stored_at handed to add_batch
  };
  struct Query {
    std::size_t after_batch = 0;
    backend::EventQuery query;
    std::uint64_t expect = 0;
  };
  std::vector<core::FlowEvent> events;
  std::vector<Batch> batches;
  std::vector<Query> queries;
};

constexpr std::size_t kTailEvents = 50000;
constexpr int kTailSwitches = 10;
constexpr std::size_t kTailFlows = 10000;
constexpr util::SimDuration kTailEventGap = 590;  // ns per event: ≈1.7M events per simulated s
constexpr util::SimDuration kTailMaxLag = util::microseconds(1000);  // detect-to-batch delay
constexpr std::size_t kQueryEvery = 16;     // batches between operator queries
constexpr std::size_t kMaintainEvery = 64;  // batches between maintenance rounds
constexpr std::uint64_t kTailRetain = 32768;
constexpr util::NodeId kTailBurstSwitch = 3;
constexpr int kTailSetups = 16;

TailInput make_tail_input(std::uint64_t seed) {
  TailInput in;
  util::Rng rng(seed, 0x7a11);
  std::vector<packet::FlowKey> flows(kTailFlows);
  for (auto& flow : flows) {
    flow.src = packet::Ipv4Addr::from_octets(10, static_cast<std::uint8_t>(rng.uniform(2)),
                                             static_cast<std::uint8_t>(rng.uniform(2)),
                                             static_cast<std::uint8_t>(1 + rng.uniform(8)));
    flow.dst = packet::Ipv4Addr::from_octets(10, static_cast<std::uint8_t>(rng.uniform(2)),
                                             static_cast<std::uint8_t>(rng.uniform(2)),
                                             static_cast<std::uint8_t>(1 + rng.uniform(8)));
    flow.proto = 6;
    flow.sport = static_cast<std::uint16_t>(10000 + rng.uniform(50000));
    flow.dport = static_cast<std::uint16_t>(10000 + rng.uniform(50000));
  }
  // The one drop burst: a single (switch, flow) drops hard for a few
  // milliseconds halfway through.
  const packet::FlowKey burst_flow = flows[rng.uniform(flows.size())];
  const util::SimTime stream_span = static_cast<util::SimTime>(kTailEvents) * kTailEventGap;
  const util::SimTime burst_from = stream_span / 2;
  const util::SimTime burst_to = burst_from + util::milliseconds(3);

  in.events.reserve(kTailEvents + 1024);
  util::SimTime now = util::milliseconds(1);
  while (in.events.size() < kTailEvents) {
    const auto n = 8 + rng.uniform(57);  // 8..64 events, one report segment
    const auto sw = static_cast<util::NodeId>(1 + rng.uniform(kTailSwitches));
    now += static_cast<util::SimDuration>(n) * kTailEventGap;
    TailInput::Batch batch;
    batch.begin = static_cast<std::uint32_t>(in.events.size());
    batch.at = now;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double roll = rng.uniform01();
      const auto type = roll < 0.97   ? core::EventType::kPathChange
                        : roll < 0.99 ? core::EventType::kCongestion
                                      : core::EventType::kDrop;
      const util::SimTime detected =
          now - static_cast<util::SimDuration>(rng.uniform(static_cast<std::uint64_t>(kTailMaxLag)));
      core::FlowEvent ev = core::make_event(type, flows[rng.uniform(flows.size())], sw, detected);
      if (type == core::EventType::kCongestion) {
        ev.egress_port = static_cast<std::uint8_t>(rng.uniform(8));
        ev.queue_latency_us = static_cast<std::uint16_t>(20 + rng.uniform(200));
      } else if (type == core::EventType::kDrop) {
        ev.drop_code = static_cast<std::uint8_t>(pdp::DropReason::kCongestion);
      } else {
        ev.ingress_port = static_cast<std::uint8_t>(rng.uniform(8));
        ev.egress_port = static_cast<std::uint8_t>(rng.uniform(8));
      }
      in.events.push_back(ev);
    }
    if (sw == kTailBurstSwitch && now >= burst_from && now < burst_to) {
      core::FlowEvent ev = core::make_event(core::EventType::kDrop, burst_flow, sw, now - 1000);
      ev.counter = 30;
      ev.drop_code = static_cast<std::uint8_t>(pdp::DropReason::kRouteMiss);
      in.events.push_back(ev);
    }
    batch.end = static_cast<std::uint32_t>(in.events.size());
    in.batches.push_back(batch);

    // Every few batches, one operator query from the fixed mix over the
    // recent window (well inside the retention budget), with the row
    // count the generator predicts. Every event with detected_at >= from
    // was stored at or after `from`, so the backward walk may stop at
    // the first batch stored before it.
    if (in.batches.size() % kQueryEvery != 0) continue;
    const std::size_t kind = (in.batches.size() / kQueryEvery) % 3;
    const util::SimTime to = now + 1;
    const util::SimTime from = now - util::milliseconds(kind == 0 ? 4 : 2);
    const auto& sample = in.events[batch.begin + rng.uniform(batch.end - batch.begin)];
    backend::EventQuery q;
    switch (kind) {
      case 0: q.for_flow(sample.flow).between(from, to); break;
      case 1: q.for_switch(sample.switch_id).of_type(sample.type).between(from, to); break;
      default: q.of_type(core::EventType::kDrop).between(from, to); break;
    }
    std::uint64_t expect = 0;
    for (std::size_t b = in.batches.size(); b-- > 0 && in.batches[b].at >= from;) {
      for (std::uint32_t e = in.batches[b].begin; e < in.batches[b].end; ++e) {
        expect += q.matches(backend::StoredEvent{in.events[e], in.batches[b].at});
      }
    }
    in.queries.push_back(TailInput::Query{in.batches.size() - 1, q, expect});
  }
  return in;
}

Rep run_tail_rep(const TailInput& in, bool traced, bool sabotage, Checks& checks) {
  Rep rep;
  rep.traced = traced;
  Span ingest, pump, flush, maintain, query;
  Span* ingest_span = traced ? &ingest : nullptr;
  Span* pump_span = traced ? &pump : nullptr;

  store::StoreOptions options;
  options.retain_events = kTailRetain;
  // One query thread: QueryPool's claim race can hang scans with more.
  options.query_threads = 1;
  // Opening an in-memory store takes well under a microsecond once the
  // allocator is warm, while the first open after a rep's teardown is
  // dominated by page faults. So open once untimed, time kTailSetups
  // more opens and keep their mean; the last one serves the rep.
  std::optional<store::FlowEventStore> store_slot;
  std::optional<detect::DetectService> detect_slot;
  double setup_total = 0.0;
  for (int i = 0; i <= kTailSetups; ++i) {
    detect_slot.reset();
    store_slot.reset();
    const auto setup_start = Clock::now();
    store_slot.emplace(options);
    detect_slot.emplace(*store_slot);
    if (i > 0) setup_total += seconds_since(setup_start);
  }
  rep.setup_s = setup_total / kTailSetups;
  store::FlowEventStore& store = *store_slot;
  detect::DetectService& detect = *detect_slot;

  const auto run_start = Clock::now();
  std::size_t next_query = 0;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    const auto& batch = in.batches[b];
    if (!(sabotage && b == 0)) {
      timed(ingest_span, [&] {
        store.add_batch(std::span(in.events).subspan(batch.begin, batch.end - batch.begin),
                        batch.at);
      });
    }
    timed(pump_span, [&] { (void)detect.pump(); });
    if ((b + 1) % kMaintainEvery == 0) {
      timed(traced ? &maintain : nullptr, [&] { store.maintain(); });
    }
    for (; next_query < in.queries.size() && in.queries[next_query].after_batch == b;
         ++next_query) {
      const auto& q = in.queries[next_query];
      checks.expect(run_query(store, q.query, rep, query) == q.expect,
                    "query returns the row count the generator predicts");
    }
  }
  timed(traced ? &flush : nullptr, [&] { store.flush(); });
  const bool synced = store.sync();
  timed(pump_span, [&] { (void)detect.pump(); });
  rep.run_s = seconds_since(run_start);
  detect.finish();

  const auto appended = store.stats().appended;
  rep.work = static_cast<double>(appended);
  checks.expect(synced, "sync() acknowledges every appended row");
  checks.expect(appended == in.events.size(), "every generated event was appended");
  checks.expect(detect.subscription().last_lsn() == appended,
                "the detect subscription drained to the last appended row");
  checks.expect(detect.subscription().lagged() == 0, "the detect subscription never lagged");
  checks.expect(detect.stats().rows == appended, "detect consumed every appended row");
  bool burst_alert = false;
  for (const auto& alert : detect.alerts().alerts()) {
    burst_alert = burst_alert || (alert.rule != nullptr && alert.rule->name == "drop-burst" &&
                                  alert.key.switch_id == kTailBurstSwitch);
  }
  checks.expect(burst_alert, "the drop burst raises a drop-burst alert on its switch");

  std::uint64_t query_rows = 0;
  for (const auto& q : in.queries) query_rows += q.expect;
  auto& C = rep.counts;
  C["events"] = static_cast<double>(appended);
  C["batches"] = static_cast<double>(in.batches.size());
  C["queries"] = static_cast<double>(in.queries.size());
  C["query_rows"] = static_cast<double>(query_rows);
  C["alerts"] = static_cast<double>(detect.alerts().alerts().size());

  if (traced) {
    store_layers(rep, store, detect, ingest, flush, maintain, query, pump);
    rep.layers["setup.store_s"] = rep.setup_s;
    rep.layers["sim.other_s"] = rep.run_s - ingest.seconds - pump.seconds - maintain.seconds -
                                query.seconds - flush.seconds;
  }
  return rep;
}

// ---- Main ---------------------------------------------------------------------

/// Every per-layer metric, in the order printed; those a workload does
/// not exercise read 0.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"sim.events", "count"},
      {"sim.events_per_pkt", "ratio"},
      {"sim.task_heap_allocs", "count"},
      {"sim.other_s", "s"},
      {"traffic.flows", "count"},
      {"net.link_pkts", "count"},
      {"net.link_faults", "count"},
      {"pdp.pkts", "count"},
      {"pdp.drops", "count"},
      {"pdp.queue_peak_bytes", "bytes"},
      {"monitors.truth_s", "s"},
      {"monitors.truth_calls", "count"},
      {"monitors.truth_events", "count"},
      {"core.hooks_s", "s"},
      {"core.hook_calls", "count"},
      {"core.nic_s", "s"},
      {"core.nic_calls", "count"},
      {"core.event_pkts", "count"},
      {"core.dedup_ratio", "ratio"},
      {"core.group_cache_hit_ratio", "ratio"},
      {"core.cebp_events_per_batch", "ratio"},
      {"core.cebp_recirculations", "count"},
      {"core.pcie_backlog_peak", "count"},
      {"core.cpu_fp_eliminated", "count"},
      {"core.reports", "count"},
      {"core.retransmits", "count"},
      {"core.missed", "count"},
      {"backend.window_drops", "count"},
      {"backend.duplicates", "count"},
      {"backend.segments", "count"},
      {"store.ingest_s", "s"},
      {"store.ingest_calls", "count"},
      {"store.events_per_call", "ratio"},
      {"store.flush_s", "s"},
      {"store.maintain_s", "s"},
      {"store.query_s", "s"},
      {"store.queries", "count"},
      {"store.rows_examined_per_match", "ratio"},
      {"store.segments_pruned_frac", "ratio"},
      {"store.query_p50_us", "us"},
      {"store.query_p99_us", "us"},
      {"detect.pump_s", "s"},
      {"detect.pumps", "count"},
      {"detect.rows", "count"},
      {"detect.windows_closed", "count"},
      {"detect.late_rows", "count"},
      {"detect.alerts", "count"},
      {"fabric.build_s", "s"},
      {"setup.agents_s", "s"},
      {"setup.store_s", "s"},
      {"store_lat_p50_us", "us"},
      {"store_lat_p99_us", "us"},
      {"store_lat_excluded", "count"},
      {"overhead_ppm", "ppm"},
      {"failed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.bracket_ns", "ns"},
  };
  return units;
}

/// Per-layer metrics whose value is a wall time; the run reports their
/// median over traced reps. Everything else is a count or a ratio of
/// counts, identical in every rep.
bool is_time(const std::string& name) {
  return name.ends_with("_s");
}

void print_json_metric(std::string& out, const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, std::isfinite(value) ? value : 0.0, unit);
  out += buf;
}

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --workload testbed-web-faults|fat8-dctcp|store-tail --seed N "
               "--seconds S --trace 0|1 [--sabotage]\n",
               program);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double budget_s = 10.0;
  int trace = 0;
  bool sabotage = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      budget_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--sabotage") {
      sabotage = true;
    } else {
      return usage(argv[0]);
    }
  }

  SimWorkload sim_workload;
  if (workload == "testbed-web-faults") {
    sim_workload =
        SimWorkload{false, &traffic::web(), util::milliseconds(60), util::milliseconds(20)};
  } else if (workload == "fat8-dctcp") {
    sim_workload =
        SimWorkload{true, &traffic::dctcp(), util::milliseconds(16), util::milliseconds(4)};
  } else if (workload != "store-tail") {
    return usage(argv[0]);
  }
  const bool tail = workload == "store-tail";

  const double bracket_ns = trace != 0 ? calibrate_bracket_ns() : 0.0;
  TailInput tail_input;
  if (tail) tail_input = make_tail_input(seed);

  Checks checks;
  // What outlives a rep lives in storage reserved up front: allocations
  // kept across reps fragment the heap between the reps' own allocations
  // and slow every later rep down.
  constexpr std::size_t kMaxReps = 8192;
  std::vector<double> rate[2], setup, query_us;
  for (auto* v : {&rate[0], &rate[1], &setup}) v->reserve(kMaxReps);
  query_us.reserve(std::size_t{1} << 20);
  std::map<std::string, std::vector<double>> layer_times;
  Values layer_counts;
  Values counts;
  std::size_t reps = 0;
  const auto start = Clock::now();
  // At least three reps (a median needs them); a trace run alternates
  // untraced and traced reps so both see the same machine state, and
  // makes at least two of each.
  const std::size_t min_reps = trace != 0 ? 4 : 3;
  while (reps < min_reps || (seconds_since(start) < budget_s && reps < kMaxReps)) {
    const bool traced = trace != 0 && reps % 2 == 1;
    const Rep rep = tail ? run_tail_rep(tail_input, traced, sabotage, checks)
                         : run_sim_rep(sim_workload, seed, traced, bracket_ns, sabotage, checks);
    if (reps++ == 0) counts = rep.counts;
    checks.expect(rep.counts == counts, "the rep reproduces the first rep's deterministic counts");
    rate[traced].push_back(rep.work / rep.run_s);
    setup.push_back(rep.setup_s);
    if (!traced) query_us.insert(query_us.end(), rep.query_us.begin(), rep.query_us.end());
    if (traced) {
      for (const auto& [name, value] : rep.layers) {
        if (is_time(name)) {
          auto& times = layer_times[name];
          if (times.empty()) times.reserve(kMaxReps);
          times.push_back(value);
        } else {
          layer_counts[name] = value;
        }
      }
      checks.expect(rep.layers.at("sim.other_s") >= 0.0, "sim.other_s is not negative");
    }
  }
  if (!tail) {
    checks.expect(counts.at("stored_events") > 0, "the run stored flow events");
  }

  // Human-readable record on stderr: deterministic counts per seed.
  std::fprintf(stderr, "%s seed %llu: %zu reps in %.1f s;", workload.c_str(),
               static_cast<unsigned long long>(seed), reps, seconds_since(start));
  for (const auto& [name, value] : counts) std::fprintf(stderr, " %s=%.17g", name.c_str(), value);
  std::fprintf(stderr, "\n");

  std::string metrics;
  if (trace == 0) {
    print_json_metric(metrics, "throughput_per_s", median(rate[0]), "1/s");
    print_json_metric(metrics, "setup_s", median(setup), "s");
    print_json_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Values layers = layer_counts;
    for (const auto& [name, values] : layer_times) layers[name] = median(values);
    if (!tail) {
      for (const char* name :
           {"store_lat_p50_us", "store_lat_p99_us", "store_lat_excluded", "overhead_ppm"}) {
        layers[name] = counts.at(name);
      }
    }
    layers["store.query_p50_us"] = percentile(query_us, 50);
    layers["store.query_p99_us"] = percentile(query_us, 99);
    layers["trace.overhead_frac"] = 1.0 - median(rate[1]) / median(rate[0]);
    layers["trace.bracket_ns"] = bracket_ns;
    layers["failed_frac"] =
        static_cast<double>(checks.failed) / static_cast<double>(std::max<std::uint64_t>(1, checks.attempted));
    for (const auto& [name, unit] : layer_units()) {
      const auto it = layers.find(name);
      print_json_metric(metrics, name, it == layers.end() ? 0.0 : it->second, unit);
    }
  }

  const bool correct = checks.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), metrics.c_str());
  return correct ? 0 : 1;
}
