#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "detect/alerts.h"
#include "detect/rules.h"
#include "detect/window.h"
#include "store/store.h"
#include "store/subscription.h"
#include "util/annotations.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace netseer::detect {

struct DetectOptions {
  RuleSet rules = RuleSet::defaults();
  /// Resume-LSN checkpoint file; empty disables checkpointing. When the
  /// file exists at construction, the subscription resumes after the
  /// checkpointed LSN instead of replaying the retained history.
  std::string checkpoint_path;
  /// Start after this LSN when no checkpoint file resumes (a checkpoint
  /// always wins — it is the stronger claim about what was consumed).
  std::uint64_t from_lsn = 0;
};

struct DetectServiceStats {
  std::uint64_t rows = 0;         // rows pumped through the engines
  std::uint64_t pumps = 0;        // pump() calls
  std::uint64_t checkpoints = 0;  // resume-LSN checkpoint writes
  std::uint64_t resumed_lsn = 0;  // checkpoint the service started from
  bool resumed = false;           // a checkpoint file existed at startup
};

/// The streaming anomaly-detection service: one subscription tailing the
/// store's durable watermark, fanned into one WindowEngine per rule,
/// all feeding one AlertManager. pump() is the only engine entry point,
/// so the service runs wherever its owner calls it from: on a simulator
/// timer the owner schedules (perfbench), once over a settled store
/// (`scenarios::incidents`), or over a store directory (netseer_detect).
///
/// Restarts are exactly-once at row granularity: pump() checkpoints the
/// last consumed LSN (after the rows are applied), and a new service
/// constructed over the same checkpoint file resumes strictly after it —
/// no row is scored twice and none is skipped. Open-window partial
/// aggregates are NOT checkpointed: a restart re-opens windows from the
/// next row, so at most one in-flight window per key restarts cold.
class DetectService {
 public:
  DetectService(const store::FlowEventStore& store, DetectOptions options = {});

  // The engines hold references into options_.rules and the sink
  // captures `this`: the service is pinned in place.
  DetectService(const DetectService&) = delete;
  DetectService& operator=(const DetectService&) = delete;

  /// Drain everything currently durable through the detectors, advance
  /// the event-time watermark, checkpoint. Returns rows consumed.
  /// Serialized against finish() and other pumps by mu_, so two threads
  /// that drive one service cannot interleave engine updates. Blocking:
  /// the checkpoint write is file I/O.
  NETSEER_BLOCKING std::size_t pump() NETSEER_EXCLUDES(mu_);

  /// End-of-stream flush: force every open window closed (including the
  /// quiet windows that resolve still-active alerts). Call once after
  /// the final pump(); pumping again afterwards would double-close.
  void finish() NETSEER_EXCLUDES(mu_);

  // Quiescent read-only views: call them only while no pump()/finish()
  // is in flight (between simulator steps, or after a driving thread
  // joined). They deliberately bypass the analysis — taking mu_ here
  // would make every accessor a lock site inside test assertions.
  [[nodiscard]] const RuleSet& rules() const { return options_.rules; }
  [[nodiscard]] const std::vector<WindowEngine>& engines() const
      NETSEER_NO_THREAD_SAFETY_ANALYSIS {
    return engines_;
  }
  [[nodiscard]] const AlertManager& alerts() const NETSEER_NO_THREAD_SAFETY_ANALYSIS {
    return alerts_;
  }
  [[nodiscard]] const DetectServiceStats& stats() const NETSEER_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }
  [[nodiscard]] const store::Subscription& subscription() const
      NETSEER_NO_THREAD_SAFETY_ANALYSIS {
    return sub_;
  }
  /// Max detected_at seen (the event-time watermark windows close against).
  [[nodiscard]] util::SimTime watermark() const NETSEER_NO_THREAD_SAFETY_ANALYSIS {
    return watermark_;
  }

  /// Resume-LSN checkpoint file I/O ("NSDC" format). Exposed for the
  /// restart tests and `netseer_detect`.
  [[nodiscard]] static NETSEER_BLOCKING bool save_checkpoint(const std::string& path,
                                                            std::uint64_t lsn);
  [[nodiscard]] static NETSEER_BLOCKING std::optional<std::uint64_t> load_checkpoint(
      const std::string& path);

 private:
  NETSEER_BLOCKING std::size_t pump_locked() NETSEER_REQUIRES(mu_);

  DetectOptions options_;
  /// Serializes pump()/finish() across drivers. The engines, the
  /// subscription cursor, and the stats all mutate under it.
  util::Mutex mu_;
  std::vector<WindowEngine> engines_ NETSEER_GUARDED_BY(mu_);
  AlertManager alerts_ NETSEER_GUARDED_BY(mu_);
  WindowEngine::Sink sink_;
  /// Before sub_: the checkpoint it resumes from sets where sub_ starts.
  DetectServiceStats stats_ NETSEER_GUARDED_BY(mu_);
  store::Subscription sub_ NETSEER_GUARDED_BY(mu_);
  util::SimTime watermark_ NETSEER_GUARDED_BY(mu_) = 0;
  bool finished_ NETSEER_GUARDED_BY(mu_) = false;
};

}  // namespace netseer::detect
