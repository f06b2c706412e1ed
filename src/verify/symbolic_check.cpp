#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/capacity.h"
#include "core/pcie.h"
#include "pdp/switch.h"
#include "verify/symbolic.h"

namespace netseer::verify {

namespace {

constexpr char kPassCoverage[] = "symbolic.coverage";
constexpr char kPassDuplicate[] = "symbolic.duplicate";
constexpr char kPassReach[] = "symbolic.reachability";
constexpr char kPassMeta[] = "symbolic.metadata";
constexpr char kPassCapacity[] = "symbolic.capacity";

[[nodiscard]] pdp::Stage terminal_stage(const SymbolicPath& path) {
  return path.steps.empty() ? pdp::Stage::kWire : path.steps.back().stage;
}

/// Everything the passes need from the path stream, folded online so the
/// full path set is never materialized.
struct Folded {
  // (reason, terminal stage) -> count, for silent drop paths.
  std::map<std::pair<pdp::DropReason, pdp::Stage>, std::size_t> silent;
  // blackhole egress ports -> count.
  std::map<util::PortId, std::size_t> blackholes;
  // (first emission point, second emission point) -> count.
  std::map<std::pair<std::string, std::string>, std::size_t> doubles;
  // emission point -> count, on forward/consumed paths (false positives).
  std::map<std::string, std::size_t> spurious;
  // distinct uninitialized-read descriptions -> path count.
  std::map<std::string, std::size_t> uninit;
  SymbolicSummary summary;
};

void fold_path(Folded& f, const SymbolicPath& path) {
  SymbolicSummary& s = f.summary;
  ++s.paths;
  const auto emissions = static_cast<int>(path.emissions.size());
  s.max_emissions_per_packet = std::max(s.max_emissions_per_packet, emissions);
  if (path.verdict == PathVerdict::kDrop) {
    ++s.drop_paths;
    s.reason_reachable[static_cast<std::size_t>(path.reason)] = true;
    if (emissions == 0) {
      ++s.silent_drop_paths;
      ++f.silent[{path.reason, terminal_stage(path)}];
    } else {
      ++s.covered_drop_paths;
    }
  } else if (path.verdict == PathVerdict::kBlackhole) {
    ++s.drop_paths;
    ++s.silent_drop_paths;
    ++f.blackholes[path.egress_port];
  } else if (emissions > 0) {
    // Forward/consumed paths owe no loss event: any emission here is a
    // false positive by construction.
    for (const auto& e : path.emissions) ++f.spurious[e.point];
  }
  if (emissions >= 2) {
    ++s.double_report_paths;
    ++f.doubles[{path.emissions[0].point, path.emissions[1].point}];
  }
  if (!path.uninit_reads.empty()) {
    ++s.uninit_read_paths;
    for (const auto& read : path.uninit_reads) ++f.uninit[read];
  }
}

void report_coverage(Report& report, const pdp::Switch& sw, const core::NetSeerConfig& config,
                     const Folded& f, const ExecNotes& notes) {
  report.mark_pass(kPassCoverage);
  const DiagnosticSource source{kPassCoverage, sw.name(), sw.id()};
  char buf[240];
  if (notes.truncated) {
    std::snprintf(buf, sizeof(buf),
                  "path enumeration truncated at %zu paths — coverage cannot be proven for "
                  "this deployed state",
                  notes.paths);
    report.add(source.make(Severity::kError, "executor", buf, static_cast<double>(notes.paths)));
    return;
  }
  for (const auto& [key, count] : f.silent) {
    const auto [reason, stage] = key;
    std::string component = "path.";
    component += pdp::to_string(stage);
    std::snprintf(buf, sizeof(buf),
                  "%zu reachable drop path(s) with reason %s cross no event-emission "
                  "point — a false negative by construction",
                  count, pdp::to_string(reason));
    report.add(source.make(Severity::kError, std::move(component), buf,
                           static_cast<double>(count)));
  }
  for (const auto& [port, count] : f.blackholes) {
    std::snprintf(buf, sizeof(buf),
                  "%zu reachable path(s) forward into port %u, which is unwired: the "
                  "frame is enqueued and never transmitted, with no drop point crossed — "
                  "silent loss",
                  count, port);
    report.add(source.make(Severity::kError, "path.blackhole", buf, static_cast<double>(count),
                           static_cast<double>(port)));
  }
  if (!config.monitored_prefixes.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "partial deployment: %zu monitored prefix(es) configured — drops of "
                  "unmonitored flows are recovered but not reported, so zero-FN holds only "
                  "for monitored traffic",
                  config.monitored_prefixes.size());
    report.add(source.make(Severity::kWarning, "deploy.monitored_prefixes", buf,
                           static_cast<double>(config.monitored_prefixes.size())));
  }
}

void report_duplicate(Report& report, const pdp::Switch& sw, const Folded& f) {
  report.mark_pass(kPassDuplicate);
  const DiagnosticSource source{kPassDuplicate, sw.name(), sw.id()};
  char buf[240];
  for (const auto& [points, count] : f.doubles) {
    std::snprintf(buf, sizeof(buf),
                  "%zu reachable path(s) cross two emission points (%s then %s): the same "
                  "packet is reported twice before dedup — a false positive the CPU cannot "
                  "reconcile",
                  count, points.first.c_str(), points.second.c_str());
    report.add(source.make(Severity::kError, points.second, buf, static_cast<double>(count), 1.0));
  }
  for (const auto& [point, count] : f.spurious) {
    std::snprintf(buf, sizeof(buf),
                  "emission point %s fires on %zu path(s) where the packet is delivered or "
                  "consumed — events reported for packets that were never lost",
                  point.c_str(), count);
    report.add(source.make(Severity::kError, point, buf, static_cast<double>(count)));
  }
}

void report_reachability(Report& report, const pdp::Switch& sw, const ExecNotes& notes) {
  report.mark_pass(kPassReach);
  const DiagnosticSource source{kPassReach, sw.name(), sw.id()};
  char buf[240];
  const auto& entries = sw.routes().entries();
  for (const int index : notes.dead_lpm_entries) {
    const auto& entry = entries[static_cast<std::size_t>(index)];
    std::snprintf(buf, sizeof(buf),
                  "LPM entry %s is dead: every address it covers is claimed by "
                  "longer-prefix entries, so no packet can ever match it",
                  entry.prefix.to_string().c_str());
    report.add(source.make(Severity::kWarning, "lpm." + entry.prefix.to_string(), buf));
  }
  for (const int index : notes.corrupted_lpm_entries) {
    const auto& entry = entries[static_cast<std::size_t>(index)];
    std::snprintf(buf, sizeof(buf),
                  "LPM entry %s is parity-corrupted and skipped by lookups: its flows now "
                  "take the route-miss drop path (covered, but a service outage)",
                  entry.prefix.to_string().c_str());
    report.add(source.make(Severity::kWarning, "lpm." + entry.prefix.to_string(), buf));
  }
  for (const std::uint16_t rule_id : notes.dead_acl_rules) {
    std::snprintf(buf, sizeof(buf),
                  "ACL rule %u is unreachable on every enumerated path (shadowed by an "
                  "earlier rule or outside all routed destinations)",
                  rule_id);
    report.add(source.make(Severity::kWarning, "acl.rule." + std::to_string(rule_id), buf));
  }
  if (notes.admit_unreachable) {
    std::snprintf(buf, sizeof(buf),
                  "MMU queue capacity %lld B is below the %u B minimum frame: no packet can "
                  "ever be admitted — forwarding is structurally impossible",
                  static_cast<long long>(sw.config().mmu.queue_capacity_bytes),
                  packet::kMinFrameBytes);
    report.add(source.make(Severity::kWarning, "mmu.capacity", buf,
                           static_cast<double>(sw.config().mmu.queue_capacity_bytes),
                           static_cast<double>(packet::kMinFrameBytes)));
  }
}

void report_metadata(Report& report, const pdp::Switch& sw, const Folded& f) {
  report.mark_pass(kPassMeta);
  const DiagnosticSource source{kPassMeta, sw.name(), sw.id()};
  char buf[240];
  for (const auto& [read, count] : f.uninit) {
    std::snprintf(buf, sizeof(buf),
                  "uninitialized metadata read on %zu reachable path(s): %s — the consumer "
                  "observes a stale or sentinel value",
                  count, read.c_str());
    report.add(source.make(Severity::kError, "meta." + read, buf, static_cast<double>(count)));
  }
}

void report_capacity(Report& report, const pdp::Switch& sw, const core::NetSeerConfig& config,
                     const VerifyOptions& options, SymbolicSummary& summary) {
  report.mark_pass(kPassCapacity);
  const DiagnosticSource source{kPassCapacity, sw.name(), sw.id()};
  char buf[240];
  const Assumptions& a = options.assumptions;

  // The structural bound assumes `event_fraction` of line-rate traffic is
  // eventful. The path-sensitive bound is a theorem: every enumerated
  // path crosses at most max_emissions_per_packet emission points, and
  // every event packet crosses the internal port, whose rate caps the
  // event stream no matter what traffic does.
  summary.structural_event_rate_eps = worst_case_event_rate_eps(sw, a);
  double per_packet_rate = summary.structural_event_rate_eps;
  if (!config.internal_port_rate.is_zero()) {
    const double internal_ceiling_eps =
        static_cast<double>(config.internal_port_rate.bits_per_second()) /
        (8.0 * static_cast<double>(a.event_pkt_bytes));
    per_packet_rate = std::min(per_packet_rate, internal_ceiling_eps);
  }
  summary.path_sensitive_event_rate_eps =
      per_packet_rate * static_cast<double>(summary.max_emissions_per_packet);
  const double rate = summary.path_sensitive_event_rate_eps;

  if (summary.max_emissions_per_packet > 1) {
    std::snprintf(buf, sizeof(buf),
                  "a single packet can trigger up to %d emissions, inflating the worst-case "
                  "event rate to %.3g events/s — downstream drains are checked against the "
                  "inflated rate",
                  summary.max_emissions_per_packet, rate);
    report.add(source.make(Severity::kWarning, "emissions", buf,
                           static_cast<double>(summary.max_emissions_per_packet), 1.0));
  }

  const auto& cebp = config.cebp;
  if (cebp.num_cebps >= 1 && cebp.batch_size >= 1 && cebp.recirc_latency > 0) {
    const double drain = core::capacity::cebp_throughput_eps(cebp, cebp.batch_size);
    if (rate > drain) {
      std::snprintf(buf, sizeof(buf),
                    "path-sensitive worst-case event rate %.3g events/s exceeds the CEBP "
                    "drain %.3g events/s — the event stack overflows on the proven "
                    "worst-case path mix",
                    rate, drain);
      report.add(source.make(Severity::kError, "cebp", buf, rate, drain));
    }
    const double flush_burst = rate * static_cast<double>(cebp.flush_latency) / 1e9;
    if (config.event_stack_capacity > 0 &&
        flush_burst > static_cast<double>(config.event_stack_capacity)) {
      std::snprintf(buf, sizeof(buf),
                    "event stack (%zu entries) cannot absorb the %.0f events arriving during "
                    "one CEBP flush window at the path-sensitive rate",
                    config.event_stack_capacity, flush_burst);
      report.add(source.make(Severity::kError, "batch.stack", buf, flush_burst,
                             static_cast<double>(config.event_stack_capacity)));
    }
    const double pcie_drain = core::PcieChannel::throughput_eps(
        config.pcie, static_cast<std::size_t>(cebp.batch_size));
    if (rate > pcie_drain) {
      std::snprintf(buf, sizeof(buf),
                    "path-sensitive worst-case event rate %.3g events/s exceeds the PCIe "
                    "drain %.3g events/s at batch size %d",
                    rate, pcie_drain, cebp.batch_size);
      report.add(source.make(Severity::kError, "pcie", buf, rate, pcie_drain));
    }
  }
}

}  // namespace

SymbolicSummary check_symbolic(Report& report, const pdp::Switch& sw,
                               const core::NetSeerConfig& config, const VerifyOptions& options,
                               const SymbolicOptions& symbolic) {
  const pdp::PipelineView view = pdp::make_pipeline_view(sw);
  Folded folded;
  const ExecNotes notes = enumerate_paths(
      view, config, symbolic, [&folded](const SymbolicPath& path) { fold_path(folded, path); });

  report_coverage(report, sw, config, folded, notes);
  report_duplicate(report, sw, folded);
  report_reachability(report, sw, notes);
  report_metadata(report, sw, folded);
  report_capacity(report, sw, config, options, folded.summary);
  return folded.summary;
}

}  // namespace netseer::verify
