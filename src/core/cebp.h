#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/event.h"
#include "core/event_stack.h"
#include "sim/simulator.h"

namespace netseer::core {

struct CebpConfig {
  /// Circulating packets kept in flight on the internal recirculation
  /// port. More CEBPs = more pops per unit time.
  int num_cebps = 35;
  /// Events per batch packet before it is flushed to the CPU (the paper
  /// recommends 50).
  int batch_size = 50;
  /// One trip around the pipeline via the internal port.
  util::SimDuration recirc_latency = util::nanoseconds(400);
  /// Cost of forwarding a full CEBP to the CPU and cloning an empty
  /// replacement (the clone rejoins circulation after this).
  util::SimDuration flush_latency = util::microseconds(2);
};

/// Circulating event batching (§3.5). CEBPs constantly recirculate
/// through the pipeline; each time one "hits the stack" it pops a single
/// event and appends it to its payload. A CEBP flushes to the switch CPU
/// when its payload reaches batch_size, or when the stack empties ("all
/// events have been collected"), and is cloned empty to keep collecting.
///
/// CEBPs idle (stop recirculating in the model) while the stack is empty
/// and wake on the next push — equivalent behaviour, far fewer simulator
/// events.
class CebpBatcher {
 public:
  using Flush = std::function<void(EventBatch&&)>;

  CebpBatcher(sim::Simulator& sim, util::NodeId switch_id, EventStack& stack,
              const CebpConfig& config, Flush flush)
      : sim_(sim), switch_id_(switch_id), stack_(stack), config_(config),
        flush_(std::move(flush)), cebps_(static_cast<std::size_t>(config.num_cebps)) {}

  /// Signal that an event was pushed onto the stack; wakes one idle CEBP.
  void notify() {
    for (std::size_t i = 0; i < cebps_.size(); ++i) {
      if (!cebps_[i].active) {
        cebps_[i].active = true;
        (void)sim_.schedule_after(config_.recirc_latency, [this, i] { circulate(i); });
        return;
      }
    }
  }

  /// Teardown (end of experiment): drain the stack into full batches
  /// without waiting for circulations, then flush every partially filled
  /// CEBP, so one flush_all() and a simulator run deliver everything.
  void flush_all() {
    std::vector<FlowEvent> payload;
    while (const auto event = stack_.pop()) {
      payload.push_back(*event);
      if (static_cast<int>(payload.size()) >= config_.batch_size) emit(payload);
    }
    if (!payload.empty()) emit(payload);
    for (auto& cebp : cebps_) {
      if (!cebp.payload.empty()) emit(cebp.payload);
    }
  }

  [[nodiscard]] std::uint64_t batches_flushed() const { return batches_; }
  [[nodiscard]] std::uint64_t events_batched() const { return events_; }
  /// Trips around the internal port — the recirculation bandwidth a real
  /// chip would spend on CEBPs.
  [[nodiscard]] std::uint64_t recirculations() const { return recirculations_; }
  [[nodiscard]] const CebpConfig& config() const { return config_; }

 private:
  struct Cebp {
    bool active = false;
    std::vector<FlowEvent> payload;
  };

  void circulate(std::size_t i) {
    ++recirculations_;
    Cebp& cebp = cebps_[i];
    const auto popped = stack_.pop();
    if (popped) {
      cebp.payload.push_back(*popped);
      if (static_cast<int>(cebp.payload.size()) >= config_.batch_size) {
        emit(cebp.payload);
        (void)sim_.schedule_after(config_.flush_latency, [this, i] { circulate(i); });
        return;
      }
      (void)sim_.schedule_after(config_.recirc_latency, [this, i] { circulate(i); });
      return;
    }
    // Stack drained: flush a partial payload, then go idle.
    if (!cebp.payload.empty()) {
      emit(cebp.payload);
      (void)sim_.schedule_after(config_.flush_latency, [this, i] {
        // After the flush trip, re-check for new work before idling.
        if (!stack_.empty()) {
          circulate(i);
        } else {
          cebps_[i].active = false;
        }
      });
      return;
    }
    cebp.active = false;
  }

  void emit(std::vector<FlowEvent>& payload) {
    EventBatch batch;
    batch.switch_id = switch_id_;
    batch.seq = next_batch_seq_++;
    batch.emitted_at = sim_.now();
    batch.events = std::move(payload);
    payload.clear();
    events_ += batch.events.size();
    ++batches_;
    flush_(std::move(batch));
  }

  sim::Simulator& sim_;
  util::NodeId switch_id_;
  EventStack& stack_;
  CebpConfig config_;
  Flush flush_;
  std::vector<Cebp> cebps_;
  std::uint32_t next_batch_seq_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t recirculations_ = 0;
};

}  // namespace netseer::core
