#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace netseer::telemetry {
class Registry;
}  // namespace netseer::telemetry

namespace netseer::scenarios {

/// The §5.1 "troubleshooting occasional SLA violations" study (Fig. 8b):
/// an RPC application runs over the testbed while application-side slow
/// periods and network faults (incast congestion, a lossy link window)
/// are injected. Each slow RPC is then attributed using three data
/// sources of increasing power:
///   host        — coarse host metrics only (the paper's 15 s counters,
///                 scaled to the simulation's metric window)
///   host+ping   — plus Pingmesh probe anomalies
///   host+netseer— plus backend flow events for exactly that RPC's flow
struct SlaBreakdown {
  double app = 0;      // attributed to the application
  double net = 0;      // attributed to the network
  double both = 0;     // both contributed
  double unknown = 0;  // unexplained

  [[nodiscard]] double explained() const { return app + net + both; }
};

struct SlaStudyResult {
  std::size_t total_rpcs = 0;
  std::size_t slow_rpcs = 0;
  SlaBreakdown host_only;
  SlaBreakdown host_pingmesh;
  SlaBreakdown host_netseer;
  /// Ground-truth composition of the slow RPCs, for validation.
  SlaBreakdown truth;
  /// Fraction of slow RPCs each source attributed to the same category
  /// as the ground truth ("explained" alone rewards confident guessing).
  double host_only_accuracy = 0;
  double host_pingmesh_accuracy = 0;
  double host_netseer_accuracy = 0;
};

struct SlaStudyConfig {
  std::uint64_t seed = 1;
  util::SimTime duration = util::milliseconds(60);
  /// RPC slower than this violates the SLA.
  util::SimDuration slow_threshold = util::milliseconds(1);
  /// When non-null, the study folds its harness counters in after settling.
  telemetry::Registry* metrics = nullptr;
};

[[nodiscard]] SlaStudyResult run_sla_study(const SlaStudyConfig& config = {});

[[nodiscard]] std::string format_breakdown(const char* source, const SlaBreakdown& b);

}  // namespace netseer::scenarios
