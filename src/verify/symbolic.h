#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "packet/addr.h"
#include "packet/packet.h"
#include "pdp/introspect.h"
#include "verify/diagnostics.h"
#include "verify/passes.h"

namespace netseer::verify {

// ---- Symbolic value domain --------------------------------------------------
//
// A deliberately small abstract domain: closed integer intervals for the
// scalar header fields the pipeline compares against thresholds, and
// exact unions of disjoint prefixes for the address fields it matches
// with masks. Both are closed under every constraint the pipeline model
// generates, so path conditions never need widening.

/// Closed interval [lo, hi] over a 32-bit field; empty when lo > hi.
struct Interval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0xffffffffU;

  [[nodiscard]] static constexpr Interval exact(std::uint32_t v) { return Interval{v, v}; }

  [[nodiscard]] constexpr bool empty() const { return lo > hi; }
  [[nodiscard]] constexpr bool contains(std::uint32_t v) const { return v >= lo && v <= hi; }

  /// Intersect with [other.lo, other.hi]; returns whether non-empty.
  bool intersect(const Interval& other) {
    if (other.lo > lo) lo = other.lo;
    if (other.hi < hi) hi = other.hi;
    return !empty();
  }
};

/// Exact union of pairwise-disjoint IPv4 prefixes — the symbolic value of
/// an address field. Exact subtraction is what makes the LPM path
/// conditions exact ("first healthy entry containing dst") instead of
/// over-approximate.
class PrefixSet {
 public:
  /// The full address space, as a single /0.
  [[nodiscard]] static PrefixSet any();
  /// Exactly one prefix.
  [[nodiscard]] static PrefixSet of(const packet::Ipv4Prefix& prefix);

  /// Keep only addresses inside `prefix`.
  void intersect(const packet::Ipv4Prefix& prefix);
  /// Remove all addresses inside `prefix` (splits containing prefixes
  /// into their uncovered siblings).
  void subtract(const packet::Ipv4Prefix& prefix);

  [[nodiscard]] bool empty() const { return prefixes_.empty(); }
  [[nodiscard]] bool contains(packet::Ipv4Addr addr) const;
  /// Number of addresses covered (exact; the members are disjoint).
  [[nodiscard]] std::uint64_t address_count() const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<packet::Ipv4Prefix> prefixes_;  // pairwise disjoint, unordered
};

/// Per-field symbolic packet: the constraint store a path accumulates.
/// Address fields are exact prefix unions; scalars are intervals; shape
/// booleans are fixed per path (the executor branches on them at the
/// root, so inside a path they are concrete).
struct SymPacket {
  PrefixSet src = PrefixSet::any();
  PrefixSet dst = PrefixSet::any();
  Interval proto{0, 0xff};
  Interval sport{0, 0xffff};
  Interval dport{0, 0xffff};
  Interval ttl{0, 0xff};
  /// L3 datagram length as the MTU check computes it (wire bytes minus
  /// L2 overhead, so padding to the 64 B minimum is already applied).
  Interval ip_bytes{0, 0xffff};
  bool is_ipv4 = true;
  bool corrupted = false;
  bool is_pfc = false;

  [[nodiscard]] bool empty() const {
    return src.empty() || dst.empty() || proto.empty() || sport.empty() || dport.empty() ||
           ttl.empty() || ip_bytes.empty();
  }

  /// Does the concrete packet satisfy every stored field constraint?
  [[nodiscard]] bool admits(const packet::Packet& pkt) const;
};

/// The L3 datagram length run_pipeline compares against the egress MTU,
/// recomputed from a concrete packet (shared with the differential test).
[[nodiscard]] std::uint32_t mtu_check_bytes(const packet::Packet& pkt);

// ---- Paths ------------------------------------------------------------------

enum class PathVerdict : std::uint8_t {
  kForward = 0,  // admitted to an egress queue toward a wired port
  kDrop,         // discarded; `reason` says where
  kConsumed,     // MAC-control traffic consumed before the pipeline
  kBlackhole,    // admitted to the queue of an unwired port: never
                 // delivered, never reported — the silent-loss class
};

[[nodiscard]] const char* to_string(PathVerdict verdict);

/// A point on a path where the deployed NetSeer program emits (or
/// recovers) a flow event for the packet.
struct Emission {
  pdp::Stage stage = pdp::Stage::kWire;
  std::string point;  // "event.pipeline_drop", "event.mmu_drop", "iswitch.recovery", ...
};

struct PathStep {
  pdp::Stage stage = pdp::Stage::kWire;
  std::string note;
};

/// One enumerated execution path through a switch's pipeline model. The
/// constraint store plus the recorded branch choices (LPM entry, ECMP
/// member, first-matching ACL rule) form the path condition.
struct SymbolicPath {
  SymPacket packet;
  std::vector<PathStep> steps;
  PathVerdict verdict = PathVerdict::kForward;
  pdp::DropReason reason = pdp::DropReason::kNone;
  util::PortId egress_port = util::kInvalidPort;
  /// Index into routes->entries() of the matched LPM entry; -1 = miss.
  int lpm_entry = -1;
  /// Whether this path fixes an ECMP member (egress_port meaningful).
  bool ecmp_selected = false;
  /// Index (evaluation order) of the first-matching ACL rule; -1 = no
  /// rule matched (default permit). Only meaningful past the ACL stage.
  int acl_rule_index = -1;
  bool acl_evaluated = false;
  /// Wire-level pseudo path (loss on the attached cable): enumerated for
  /// the coverage proof but never taken by a packet handed to the MAC.
  bool synthetic = false;
  std::vector<Emission> emissions;
  /// Requires-def metadata reads that no stage wrote first ("stage/field
  /// by actor"); non-empty only for defective pipeline models.
  std::vector<std::string> uninit_reads;

  /// Path-condition membership: would `pkt`, handed to this switch's MAC
  /// on a healthy ingress port, take exactly this path? Branch choices
  /// (ECMP selection, ACL first match) are evaluated against the deployed
  /// tables in `view`. Synthetic wire paths admit nothing.
  [[nodiscard]] bool admits(const packet::Packet& pkt, const pdp::PipelineView& view) const;

  [[nodiscard]] std::string describe() const;
};

// ---- Executor ---------------------------------------------------------------

/// Structural defects injected into the *pipeline model* (not the switch),
/// mirroring how the stage-hazard fixture plants conflicts in a custom
/// PipelineLayout. Used by seeded-defect fixtures and tests to prove the
/// symbolic passes actually fire.
struct SymbolicDefects {
  /// An additional event-emission point: fires on every path that crosses
  /// `stage` and (when `reason` != kNone) drops for `reason` there.
  struct ExtraEmission {
    pdp::Stage stage = pdp::Stage::kAcl;
    pdp::DropReason reason = pdp::DropReason::kNone;
    std::string point;
  };
  /// An additional requires-def metadata read at entry to `stage`.
  struct ExtraRead {
    pdp::Stage stage = pdp::Stage::kMmuAdmit;
    pdp::MetaField field = pdp::MetaField::kAclRuleId;
    std::string actor;
  };
  std::vector<ExtraEmission> extra_emissions;
  std::vector<ExtraRead> extra_reads;

  [[nodiscard]] bool empty() const { return extra_emissions.empty() && extra_reads.empty(); }
};

struct SymbolicOptions {
  SymbolicDefects defects;
  /// Hard stop for pathological table states; exceeding it is reported
  /// as a verification error (never silently truncated).
  std::size_t max_paths = 1U << 20;
};

/// Aggregate facts the executor derives while enumerating, beyond the
/// per-path stream: dead deployed state and enumeration bookkeeping.
struct ExecNotes {
  std::vector<int> dead_lpm_entries;       // indices into routes->entries()
  std::vector<int> corrupted_lpm_entries;  // parity-corrupted (skipped) entries
  std::vector<std::uint16_t> dead_acl_rules;  // rule ids shadowed by one earlier rule
  bool admit_unreachable = false;  // queue capacity below the minimum frame
  bool truncated = false;          // max_paths exceeded
  std::size_t paths = 0;
};

/// Enumerate every execution path of `view`'s pipeline under `config`'s
/// NetSeer deployment, calling `sink` once per path. Deterministic: path
/// order is a function of the deployed state only.
ExecNotes enumerate_paths(const pdp::PipelineView& view, const core::NetSeerConfig& config,
                          const SymbolicOptions& options,
                          const std::function<void(const SymbolicPath&)>& sink);

/// Convenience: materialize the full path set (tests, differential
/// harness, path dumps).
[[nodiscard]] std::vector<SymbolicPath> collect_paths(const pdp::PipelineView& view,
                                                      const core::NetSeerConfig& config,
                                                      const SymbolicOptions& options = {});

// ---- Passes -----------------------------------------------------------------

/// What the symbolic pass family proved about one switch; returned for
/// tests and machine consumers, independent of the Report diagnostics.
struct SymbolicSummary {
  std::size_t paths = 0;
  std::size_t drop_paths = 0;
  std::size_t covered_drop_paths = 0;
  std::size_t silent_drop_paths = 0;   // reachable loss with no emission
  std::size_t double_report_paths = 0;
  std::size_t uninit_read_paths = 0;
  int max_emissions_per_packet = 0;
  /// Indexed by static_cast<size_t>(DropReason): is any path with this
  /// reason reachable?
  std::array<bool, 16> reason_reachable{};
  double structural_event_rate_eps = 0.0;
  double path_sensitive_event_rate_eps = 0.0;
};

/// Run the symbolic pass family over one constructed switch: path
/// enumeration plus the drop-coverage, double-report, reachability,
/// metadata-initialization, and path-sensitive capacity checks. Adds
/// diagnostics to `report` under the "symbolic.*" pass names.
SymbolicSummary check_symbolic(Report& report, const pdp::Switch& sw,
                               const core::NetSeerConfig& config, const VerifyOptions& options,
                               const SymbolicOptions& symbolic = {});

}  // namespace netseer::verify
