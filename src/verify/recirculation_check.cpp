#include <cstdio>

#include "core/capacity.h"
#include "verify/passes.h"

namespace netseer::verify {

namespace {

constexpr char kPass[] = "recirculation";

}  // namespace

void check_recirculation(Report& report, const core::NetSeerConfig& config, std::uint32_t mtu,
                         const std::string& switch_name, util::NodeId switch_id) {
  report.mark_pass(kPass);
  const DiagnosticSource source{kPass, switch_name, switch_id};
  char buf[224];
  const auto& cebp = config.cebp;

  // ---- Progress: the collection loop must be able to terminate ----------
  if (cebp.num_cebps < 1) {
    report.add(source.make(Severity::kError, "cebp",
                           "no CEBPs configured — events pushed onto the stack are never collected",
                           cebp.num_cebps, 1));
  }
  if (cebp.batch_size < 1) {
    report.add(source.make(Severity::kError, "cebp",
                           "batch_size < 1 — a CEBP can never fill and flush, so collection "
                           "livelocks",
                           cebp.batch_size, 1));
  }
  if (cebp.recirc_latency <= 0) {
    report.add(source.make(Severity::kError, "cebp",
                           "recirculation latency must be positive — a zero-latency loop "
                           "recirculates unboundedly within one simulated instant",
                           static_cast<double>(cebp.recirc_latency), 1));
  }

  // ---- Termination: a CEBP must survive its trip around the pipeline ----
  // A recirculating packet larger than the MTU is dropped at the internal
  // port, so the batch (and every event in it) would be lost and the
  // collection loop starved for that CEBP slot.
  const std::size_t cebp_bytes =
      core::EventBatch::kHeaderSize +
      static_cast<std::size_t>(cebp.batch_size > 0 ? cebp.batch_size : 0) *
          core::FlowEvent::kWireSize;
  if (cebp_bytes > mtu) {
    std::snprintf(buf, sizeof(buf),
                  "a full CEBP is %zu B but the MTU is %u B — the batch would be dropped "
                  "mid-recirculation and its events lost",
                  cebp_bytes, mtu);
    report.add(source.make(Severity::kError, "cebp", buf, static_cast<double>(cebp_bytes), mtu));
  }

  // ---- Loss-notification loop bounds ------------------------------------
  if (config.interswitch.notify_copies < 1) {
    report.add(source.make(Severity::kError, "iswitch.notify",
                           "notify_copies < 1 — gaps detected downstream are never reported "
                           "upstream, so inter-switch drops go unrecovered",
                           config.interswitch.notify_copies, 1));
  } else if (config.interswitch.notify_copies > 8) {
    report.add(source.make(Severity::kWarning, "iswitch.notify",
                           "more than 8 redundant notification copies per gap wastes reverse-path "
                           "bandwidth (the paper uses 3)",
                           config.interswitch.notify_copies, 8));
  }
  if (config.interswitch.max_gap == 0) {
    report.add(source.make(Severity::kError, "iswitch.rx",
                           "max_gap = 0 — every out-of-order arrival resynchronizes silently and "
                           "no loss is ever reported"));
  } else if (config.interswitch.max_gap > (1u << 30)) {
    report.add(source.make(Severity::kWarning, "iswitch.rx",
                           "max_gap exceeds a quarter of the sequence space — a peer restart is "
                           "indistinguishable from a giant loss and queues unbounded lookups",
                           config.interswitch.max_gap, static_cast<double>(1u << 30)));
  }

  // ---- Internal-port bandwidth fit ---------------------------------------
  // Steady-state CEBP output (batches leaving for the CPU) shares the
  // internal port with event packets; it must fit the configured budget.
  if (cebp.num_cebps >= 1 && cebp.batch_size >= 1 && cebp.recirc_latency > 0) {
    const double batch_gbps = core::capacity::cebp_throughput_gbps(cebp, cebp.batch_size);
    const double budget_gbps = config.internal_port_rate.gbps_value();
    if (budget_gbps > 0 && batch_gbps > budget_gbps) {
      std::snprintf(buf, sizeof(buf),
                    "steady-state CEBP batch output %.1f Gb/s exceeds the internal-port "
                    "budget %.1f Gb/s",
                    batch_gbps, budget_gbps);
      report.add(source.make(Severity::kError, "internal_port", buf, batch_gbps, budget_gbps));
    }
  }

  // The MMU redirect ceiling also drains through the internal port; a
  // redirect rate above the port rate is unservable by construction.
  if (config.mmu_redirect_rate > config.internal_port_rate &&
      !config.internal_port_rate.is_zero()) {
    std::snprintf(buf, sizeof(buf),
                  "MMU redirect ceiling %.0f Gb/s exceeds the internal-port rate %.0f Gb/s",
                  config.mmu_redirect_rate.gbps_value(),
                  config.internal_port_rate.gbps_value());
    report.add(source.make(Severity::kError, "mmu_redirect", buf,
                           config.mmu_redirect_rate.gbps_value(),
                           config.internal_port_rate.gbps_value()));
  }
}

}  // namespace netseer::verify
