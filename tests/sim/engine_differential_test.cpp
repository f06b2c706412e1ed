// Differential test of the event engine against a reference queue. A
// seeded workload mixes schedule_at / schedule_after / schedule_every,
// cancel() from inside and outside callbacks, stop(), and run_until() at
// random limits with schedules issued between runs. Delays reach 6 ms,
// about 700x the calendar ring's 8.2 us horizon, so entries ride the
// overflow heap, the cursor jumps, and runs end short of pending work.
// Every fire is checked against a std::map keyed by (when, seq) that
// models the engine's contract: pops in (when, seq) order, cancelled
// entries reaped in place (still advancing time), periodics requeued
// after their callback returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace netseer::sim {
namespace {

class Differential {
 public:
  explicit Differential(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}

  /// Drive one seeded workload to completion; false at the first
  /// divergence from the reference, described by failure().
  bool run() {
    for (int round = 0; round < kRounds && ok_; ++round) {
      for (std::uint64_t n = rnd() % 6; n > 0; --n) schedule();
      for (std::uint64_t n = rnd() % 3; n > 0; --n) cancel_some();
      if (rnd() % 16 == 0) sim_.stop();  // idle stop: the next run consumes it
      SimTime limit = now_;
      switch (rnd() % 6) {
        case 0:
          break;  // just the pending same-instant work
        case 1:
          limit += static_cast<SimTime>(rnd() % 64);
          break;
        case 2:
          limit += static_cast<SimTime>(rnd() % 8192);
          break;
        case 3:
          limit += static_cast<SimTime>(rnd() % 200'000);
          break;
        case 4:
          limit += static_cast<SimTime>(rnd() % 7'000'000);
          break;
        default:
          limit -= static_cast<SimTime>(rnd() % 100);  // behind now
          break;
      }
      stop_called_ = false;
      sim_.run_until(limit);
      settle(limit, /*until=*/true);
    }
    // Drain: no new work, every periodic cancelled, run() to empty.
    budget_ = 0;
    for (Model& model : tasks_) {
      if (model.interval > 0) cancel(model);
    }
    for (int pass = 0; ok_ && !sim_.empty(); ++pass) {
      if (!check(pass < 1000, "run() never drained the queue")) break;
      stop_called_ = false;
      sim_.run();
      settle(std::numeric_limits<SimTime>::max(), /*until=*/false);
    }
    return ok_;
  }

  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] std::uint64_t fires() const { return fires_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (when, seq)

  /// The reference's view of one scheduled task.
  struct Model {
    TaskHandle handle;
    SimDuration interval = 0;  // > 0: periodic
    bool live = false;         // queued or firing
    bool cancelled = false;
  };

  static constexpr int kRounds = 120;

  std::uint64_t rnd() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }

  bool check(bool cond, const char* what) {
    if (!cond && ok_) {
      ok_ = false;
      failure_ = std::string(what) + " at fire " + std::to_string(fires_);
      sim_.stop();
    }
    return cond;
  }

  SimDuration delay() {
    switch (rnd() % 8) {
      case 0:
        return 0;  // same instant
      case 1:
        return static_cast<SimDuration>(rnd() % 4);
      case 2:
      case 3:
        return static_cast<SimDuration>(rnd() % 8192);  // in the ring
      case 4:
        return static_cast<SimDuration>(8000 + rnd() % 400);  // the horizon's edge
      case 5:
        return static_cast<SimDuration>(rnd() % 100'000);
      default:
        return static_cast<SimDuration>(rnd() % 6'000'000);  // up to 6 ms
    }
  }

  /// Schedule one task by a random entry point, on both sides.
  void schedule() {
    check(sim_.now() == now_, "now() diverged before a schedule");
    const auto id = static_cast<std::uint32_t>(tasks_.size());
    tasks_.emplace_back();
    Model& model = tasks_.back();
    auto fire = [this, id] { on_fire(id); };
    SimTime when = now_;
    switch (rnd() % 8) {
      case 0: {  // absolute time, possibly in the past (clamped to now)
        SimTime at = now_ + delay();
        at -= static_cast<SimTime>(rnd() % 2000);
        model.handle = sim_.schedule_at(at, fire);
        when = std::max(at, now_);
        break;
      }
      case 1: {  // periodic; non-positive intervals clamp to 1 ns
        SimDuration interval = 0;
        if (rnd() % 4 == 0) {
          interval = static_cast<SimDuration>(rnd() % 3) - 1;
        } else {
          interval = 1 + delay();
        }
        model.handle = sim_.schedule_every(interval, fire);
        model.interval = std::max<SimDuration>(interval, 1);
        when = now_ + model.interval;
        periodics_.push_back(id);
        break;
      }
      default: {
        const SimDuration d = rnd() % 16 == 0 ? -static_cast<SimDuration>(rnd() % 50) : delay();
        model.handle = sim_.schedule_after(d, fire);
        when = now_ + std::max<SimDuration>(d, 0);
        break;
      }
    }
    model.live = true;
    queue_.emplace(Key{when, seq_++}, id);
  }

  void cancel(Model& model) {
    check(model.handle.active() == (model.live && !model.cancelled), "active() diverged");
    model.handle.cancel();
    if (model.live) model.cancelled = true;
  }

  /// Cancel a random task (often dead or already cancelled: a no-op),
  /// favouring periodics so they do not pile up.
  void cancel_some() {
    if (!periodics_.empty() && rnd() % 2 == 0) {
      cancel(tasks_[periodics_[rnd() % periodics_.size()]]);
    } else if (!tasks_.empty()) {
      cancel(tasks_[rnd() % tasks_.size()]);
    }
  }

  /// Pop the reference's head, which the engine reached and reaped.
  std::uint32_t pop() {
    const auto head = queue_.begin();
    const std::uint32_t id = head->second;
    now_ = head->first.first;
    queue_.erase(head);
    return id;
  }

  void on_fire(std::uint32_t id) {
    if (!check(!stop_called_, "fired after stop()")) return;
    // The cancelled entries ahead of this one were reaped silently.
    while (!queue_.empty() && tasks_[queue_.begin()->second].cancelled) {
      tasks_[pop()].live = false;
    }
    if (!check(!queue_.empty() && queue_.begin()->second == id, "fired out of (when, seq) order")) {
      return;
    }
    pop();
    ++fires_;
    if (!check(sim_.now() == now_, "now() is not the fired entry's time")) return;

    if (budget_ > 0) {
      --budget_;
      for (std::uint64_t n = rnd() % 3; n > 0; --n) schedule();
    }
    if (rnd() % 4 == 0) cancel_some();
    Model& model = tasks_[id];  // only now: schedule() may grow tasks_
    if (model.interval > 0 && rnd() % 32 == 0) cancel(model);
    if (rnd() % 512 == 0) {
      sim_.stop();
      stop_called_ = true;
    }
    // The engine requeues a live periodic after the callback returns.
    if (model.interval > 0 && !model.cancelled) {
      queue_.emplace(Key{now_ + model.interval, seq_++}, id);
    } else {
      model.live = false;
    }
  }

  /// Mirror the end of a run: unless a callback stopped it, the engine
  /// reaped every entry due by `limit`, all of which must be cancelled,
  /// and run_until() leaves now() at the limit.
  void settle(SimTime limit, bool until) {
    if (!ok_) return;
    if (!stop_called_) {
      while (!queue_.empty() && queue_.begin()->first.first <= limit) {
        const std::uint32_t id = pop();
        if (!check(tasks_[id].cancelled, "a due entry did not fire")) return;
        tasks_[id].live = false;
      }
      if (until) now_ = std::max(now_, limit);
    }
    check(sim_.now() == now_, "now() diverged after a run");
    check(sim_.empty() == queue_.empty(), "empty() diverged after a run");
    check(sim_.tasks_scheduled() == seq_, "seq diverged after a run");
    check(sim_.events_processed() == fires_, "events_processed() diverged after a run");
  }

  Simulator sim_;
  std::uint64_t state_;
  std::vector<Model> tasks_;
  std::vector<std::uint32_t> periodics_;
  std::map<Key, std::uint32_t> queue_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t fires_ = 0;
  std::uint64_t budget_ = 3000;  // callbacks that may still spawn work
  bool stop_called_ = false;
  bool ok_ = true;
  std::string failure_;
};

TEST(EngineDifferential, EveryFireMatchesAReferenceQueue) {
  constexpr std::uint64_t kSeeds = 128;
  std::uint64_t fires = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Differential workload(seed);
    if (!workload.run()) {
      ADD_FAILURE() << "seed " << seed << ": " << workload.failure();
      break;
    }
    fires += workload.fires();
  }
  // The workload must actually exercise the engine.
  EXPECT_GT(fires, kSeeds * 1000);
}

}  // namespace
}  // namespace netseer::sim
