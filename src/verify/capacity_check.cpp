#include <algorithm>
#include <cstdio>

#include "core/capacity.h"
#include "core/pcie.h"
#include "pdp/switch.h"
#include "verify/passes.h"

namespace netseer::verify {

namespace {

constexpr char kPass[] = "capacity";
constexpr std::uint32_t kNotifyFrameBytes = 64;  // notification packet incl. L2 overhead

}  // namespace

double worst_case_event_rate_eps(const pdp::Switch& sw, const Assumptions& assumptions) {
  std::int64_t connected_bps = 0;
  for (util::PortId p = 0; p < sw.config().num_ports; ++p) {
    if (sw.link(p) != nullptr) connected_bps += sw.config().port_rate.bits_per_second();
  }
  const double pps = static_cast<double>(connected_bps) /
                     (8.0 * static_cast<double>(assumptions.event_pkt_bytes));
  return pps * assumptions.event_fraction;
}

void check_capacity(Report& report, const pdp::Switch& sw, const core::NetSeerConfig& config,
                    const VerifyOptions& options) {
  report.mark_pass(kPass);
  const DiagnosticSource source{kPass, sw.name(), sw.id()};
  char buf[240];
  const Assumptions& a = options.assumptions;

  // ---- Fig. 15a: ring buffers must cover the notification round trip ----
  // While a loss notification is in flight, line-rate minimum-size frames
  // keep overwriting the ring; the dropped packet's slot must survive
  // until the lookup. Evaluate the worst connected port.
  if (config.enable_interswitch) {
    std::size_t worst_required = 0;
    util::PortId worst_port = util::kInvalidPort;
    for (util::PortId p = 0; p < sw.config().num_ports; ++p) {
      const net::Link* link = sw.link(p);
      if (link == nullptr) continue;
      const util::SimDuration notify_rtt =
          2 * link->delay() + 2 * sw.config().pipeline_latency +
          sw.config().port_rate.serialization_delay(
              static_cast<std::int64_t>(kNotifyFrameBytes) *
              std::max(1, config.interswitch.notify_copies));
      const std::size_t required = core::capacity::slots_for_consecutive_drops(
          a.consecutive_drops, sw.config().port_rate, notify_rtt, a.ring_pkt_bytes);
      if (required > worst_required) {
        worst_required = required;
        worst_port = p;
      }
    }
    if (worst_required > 0) {
      const std::size_t configured = config.interswitch.ring_slots;
      if (configured < worst_required) {
        std::snprintf(buf, sizeof(buf),
                      "ring buffer undersized: %zu slots configured but port %u needs %zu to "
                      "survive %d back-to-back drops of %u B frames during the notification "
                      "round trip — dropped flows become unrecoverable",
                      configured, worst_port, worst_required, a.consecutive_drops,
                      a.ring_pkt_bytes);
        report.add(source.make(Severity::kError, "iswitch.ring", buf,
                               static_cast<double>(configured),
                               static_cast<double>(worst_required)));
      } else if (static_cast<double>(configured) * a.headroom <
                 static_cast<double>(worst_required)) {
        std::snprintf(buf, sizeof(buf),
                      "ring buffer within %.0f%% of its safety bound (%zu slots, %zu needed)",
                      100.0 * (1.0 - a.headroom), configured, worst_required);
        report.add(source.make(Severity::kWarning, "iswitch.ring", buf,
                               static_cast<double>(configured),
                               static_cast<double>(worst_required)));
      }
    }
  }

  // ---- Event path drains vs the worst-case event rate --------------------
  const double event_rate = worst_case_event_rate_eps(sw, a);

  if (config.event_stack_capacity == 0) {
    report.add(source.make(Severity::kError, "batch.stack",
                           "event stack capacity is 0 — every extracted event overflows"));
  }
  if (config.group_cache.report_interval == 0) {
    report.add(source.make(Severity::kError, "dedup.cache",
                           "group-cache report interval C = 0 — aggregated counts are never "
                           "re-reported, losing the paper's counter guarantee"));
  }
  if (config.group_cache.entries == 0) {
    report.add(source.make(Severity::kWarning, "dedup.cache",
                           "group cache disabled (0 entries): every event packet is reported "
                           "individually, forfeiting the Fig. 13 dedup reduction"));
  }

  const auto& cebp = config.cebp;
  if (cebp.num_cebps >= 1 && cebp.batch_size >= 1 && cebp.recirc_latency > 0) {
    const double drain = core::capacity::cebp_throughput_eps(cebp, cebp.batch_size);
    if (event_rate > drain) {
      std::snprintf(buf, sizeof(buf),
                    "CEBP drain %.2g events/s cannot keep up with the worst-case event rate "
                    "%.2g events/s — the event stack overflows under sustained load",
                    drain, event_rate);
      report.add(source.make(Severity::kError, "cebp", buf, event_rate, drain));
    } else if (event_rate > drain * a.headroom) {
      std::snprintf(buf, sizeof(buf),
                    "CEBP drain within %.0f%% of the worst-case event rate",
                    100.0 * (1.0 - a.headroom));
      report.add(source.make(Severity::kWarning, "cebp", buf, event_rate, drain));
    }

    // Burst absorption: while a CEBP pays its flush latency it collects
    // nothing; the stack must absorb the events arriving in that window.
    const double flush_burst =
        event_rate * static_cast<double>(cebp.flush_latency) / 1e9;
    if (config.event_stack_capacity > 0 &&
        flush_burst > static_cast<double>(config.event_stack_capacity)) {
      std::snprintf(buf, sizeof(buf),
                    "event stack (%zu entries) cannot absorb the %.0f events arriving during "
                    "one CEBP flush window",
                    config.event_stack_capacity, flush_burst);
      report.add(source.make(Severity::kError, "batch.stack", buf, flush_burst,
                             static_cast<double>(config.event_stack_capacity)));
    }

    // PCIe: the pipeline-to-CPU channel must sustain the same rate.
    const double pcie_drain = core::PcieChannel::throughput_eps(
        config.pcie, static_cast<std::size_t>(cebp.batch_size));
    if (event_rate > pcie_drain) {
      std::snprintf(buf, sizeof(buf),
                    "PCIe channel drains %.2g events/s at batch size %d, below the "
                    "worst-case event rate %.2g events/s",
                    pcie_drain, cebp.batch_size, event_rate);
      report.add(source.make(Severity::kError, "pcie", buf, event_rate, pcie_drain));
    }
  }

  // ---- §4 internal-port budget for event packets --------------------------
  // Pause, pipeline-drop, and redirected MMU-drop packets share the
  // internal port; at the worst-case event rate their bytes must fit it.
  if (!config.internal_port_rate.is_zero()) {
    const double event_gbps =
        event_rate * static_cast<double>(a.event_pkt_bytes) * 8.0 / 1e9;
    const double budget_gbps = config.internal_port_rate.gbps_value();
    if (event_gbps > budget_gbps) {
      std::snprintf(buf, sizeof(buf),
                    "worst-case event-packet traffic %.1f Gb/s exceeds the internal-port "
                    "budget %.1f Gb/s — events would be dropped at the internal port",
                    event_gbps, budget_gbps);
      report.add(source.make(Severity::kError, "internal_port", buf, event_gbps, budget_gbps));
    } else if (event_gbps > budget_gbps * a.headroom) {
      std::snprintf(buf, sizeof(buf),
                    "worst-case event-packet traffic within %.0f%% of the internal-port "
                    "budget",
                    100.0 * (1.0 - a.headroom));
      report.add(source.make(Severity::kWarning, "internal_port", buf, event_gbps, budget_gbps));
    }
  }
}

}  // namespace netseer::verify
