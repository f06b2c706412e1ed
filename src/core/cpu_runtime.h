#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "core/switch_cpu.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"

namespace netseer::core {

/// The switch-CPU stage of the NetSeer pipeline (§3.6): consumes batches
/// delivered over PCIe, runs false-positive elimination (with the
/// pipeline's pre-computed hash), re-batches surviving events, and hands
/// them to the submit callback (normally a ReliableReporter). Per-event
/// processing cost is modeled as simulated service time; the real
/// data-structure throughput is measured in bench_fig14_pcie_cpu.
class SwitchCpu {
 public:
  using Submit = std::function<void(EventBatch&&)>;

  SwitchCpu(sim::Simulator& sim, util::NodeId switch_id, const SwitchCpuConfig& config,
            Submit submit)
      : sim_(sim), switch_id_(switch_id), config_(config), fp_(config.fp),
        submit_(std::move(submit)) {}

  /// Batch arrival from the PCIe channel.
  void on_batch(EventBatch&& batch) {
    events_received_ += batch.events.size();
    batch_sizes_.record(static_cast<double>(batch.events.size()));
    const auto service =
        config_.per_event_cost * static_cast<std::int64_t>(batch.events.size());
    busy_until_ = std::max(busy_until_, sim_.now()) + service;
    (void)sim_.schedule_at(busy_until_, [this, batch = std::move(batch)]() mutable {
      process(std::move(batch));
    });
  }

  /// Push out any partially filled report (end of experiment).
  void flush() {
    if (!out_buffer_.empty()) emit_report();
  }

  [[nodiscard]] const FpEliminator& fp() const { return fp_; }
  /// Distribution of PCIe batch sizes this CPU consumed.
  [[nodiscard]] const telemetry::Histogram& batch_sizes() const { return batch_sizes_; }
  [[nodiscard]] std::uint64_t events_received() const { return events_received_; }
  [[nodiscard]] std::uint64_t events_forwarded() const { return events_forwarded_; }
  [[nodiscard]] std::uint64_t reports_submitted() const { return reports_; }

 private:
  void process(EventBatch&& batch) {
    for (auto& event : batch.events) {
      event.switch_id = switch_id_;
      if (!fp_.admit(event, sim_.now())) continue;
      out_buffer_.push_back(event);
      ++events_forwarded_;
      if (static_cast<int>(out_buffer_.size()) >= config_.report_batch) emit_report();
    }
    if (!out_buffer_.empty() && !flush_timer_.active()) {
      flush_timer_ = sim_.schedule_after(util::milliseconds(1), [this] {
        if (!out_buffer_.empty()) emit_report();
      });
    }
  }

  void emit_report() {
    EventBatch report;
    report.switch_id = switch_id_;
    report.seq = next_report_seq_++;
    report.emitted_at = sim_.now();
    report.events = std::move(out_buffer_);
    out_buffer_.clear();
    ++reports_;
    submit_(std::move(report));
  }

  sim::Simulator& sim_;
  util::NodeId switch_id_;
  SwitchCpuConfig config_;
  FpEliminator fp_;
  Submit submit_;
  util::SimTime busy_until_ = 0;
  std::vector<FlowEvent> out_buffer_;
  std::uint32_t next_report_seq_ = 0;
  sim::TaskHandle flush_timer_;
  telemetry::Histogram batch_sizes_;
  std::uint64_t events_received_ = 0;
  std::uint64_t events_forwarded_ = 0;
  std::uint64_t reports_ = 0;
};

}  // namespace netseer::core
