#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenarios/harness.h"

namespace netseer::scenarios {

/// A detection-service alert, detached from the service that raised it
/// (the service dies with the incident's harness). The e2e suite pins
/// exact expected sets of these per incident.
struct IncidentAlert {
  std::string rule;           // rule name ("drop-burst", ...)
  std::string severity;       // "warning" / "critical"
  std::string state;          // "active" / "resolved"
  util::NodeId switch_id = util::kInvalidNode;
  std::uint64_t group = 0;    // flow hash / ACL rule id / 0, per rule scope
  packet::FlowKey flow{};     // representative flow from the alert sample
  util::SimTime raised_at = 0;
  std::uint32_t firing_windows = 0;
  std::uint32_t flaps = 0;
};

/// Outcome of replaying one of the paper's five real incidents (§5.1,
/// Fig. 8a) on the simulated testbed. "Location time with NetSeer" is
/// measured as the time from fault onset until the backend holds an
/// event that names the victim flow and the faulty device; the
/// without-NetSeer number is the paper's reported operator time (human
/// troubleshooting cannot be simulated).
struct IncidentReport {
  std::string id;
  std::string name;
  double paper_without_minutes;  // Fig. 8a, w/o NetSeer
  double paper_with_seconds;     // Fig. 8a, w. NetSeer
  util::SimTime fault_onset = 0;
  /// -1 when no attributable event reached the backend.
  util::SimDuration detection_latency = -1;
  std::size_t attributable_events = 0;
  bool network_exonerated = false;  // only meaningful for incident #5
  std::string evidence;

  /// What the streaming detection service raised over this incident's
  /// event stream (every alert, active and resolved, in raise order).
  std::vector<IncidentAlert> alerts;

  [[nodiscard]] bool located() const { return detection_latency >= 0; }

  /// Alerts of `rule` whose fingerprint names `switch_id` (any group).
  [[nodiscard]] std::size_t alert_count(std::string_view rule, util::NodeId switch_id) const;
};

/// Replays of the five §5.1 incidents. Each builds its own harness,
/// drives background traffic plus the victim workload, injects the
/// fault, and answers "when could an operator, querying the backend by
/// the victim flow, have located the cause?".
class IncidentSuite {
 public:
  explicit IncidentSuite(std::uint64_t seed = 1) : seed_(seed) {}

  /// When set, every replay folds its harness counters into `registry`
  /// after settling (see Harness::collect_metrics).
  void set_metrics(telemetry::Registry* registry) { metrics_ = registry; }

  /// #1 Routing error due to network update: wrong route installed at
  /// the core layer; victim traffic loops and dies by TTL.
  [[nodiscard]] IncidentReport routing_error();

  /// #2 ACL configuration error: a deny rule blackholes a new VM.
  [[nodiscard]] IncidentReport acl_misconfiguration();

  /// #3 Silent drop due to parity error: a bit-flipped route entry on
  /// one aggregation switch probabilistically blackholes flows that ECMP
  /// onto it.
  [[nodiscard]] IncidentReport parity_error();

  /// #4 Congestion due to unexpected volume: a bully flow congests a
  /// fabric link; operators must identify which flow to migrate.
  [[nodiscard]] IncidentReport unexpected_volume();

  /// #5 SSD firmware bug: the slowness is server-side; NetSeer's value
  /// is exonerating the network quickly.
  [[nodiscard]] IncidentReport server_side_bug();

  /// Fault-free control: the same testbed and victim-style traffic with
  /// no fault injected. The detection service must stay silent here —
  /// the e2e suite asserts alerts is empty.
  [[nodiscard]] IncidentReport baseline();

  [[nodiscard]] std::vector<IncidentReport> run_all();

 private:
  std::uint64_t seed_;
  telemetry::Registry* metrics_ = nullptr;
};

}  // namespace netseer::scenarios
