#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/netseer_app.h"
#include "verify/symbolic.h"

namespace netseer::verify {

namespace {

/// Emission-point names, shared with the checkers and fixtures.
constexpr char kEmitPipelineDrop[] = "event.pipeline_drop";
constexpr char kEmitMmuDrop[] = "event.mmu_drop";
constexpr char kEmitInterSwitch[] = "iswitch.recovery";

/// DFS state threaded through the stage walk. One Walker enumerates the
/// whole path set; `path` is mutated in place and snapshotted at leaves.
class Walker {
 public:
  Walker(const pdp::PipelineView& view, const core::NetSeerConfig& config,
         const SymbolicOptions& options, const std::function<void(const SymbolicPath&)>& sink)
      : view_(view), config_(config), options_(options), sink_(sink) {
    if (view_.acl != nullptr) acl_branch_taken_.assign(view_.acl->size(), false);
  }

  void run() {
    enumerate_wire_paths();
    enumerate_mac_paths();
    enumerate_ip_paths();
    finish();
  }

  [[nodiscard]] ExecNotes take_notes() { return std::move(notes_); }

 private:
  // ---- Leaf handling --------------------------------------------------------

  void emit(SymbolicPath path) {
    if (notes_.truncated) return;
    if (notes_.paths >= options_.max_paths) {
      notes_.truncated = true;
      return;
    }
    apply_defects(path);
    ++notes_.paths;
    sink_(path);
  }

  void apply_defects(SymbolicPath& path) const {
    const auto crosses = [&path](pdp::Stage stage) {
      return std::any_of(path.steps.begin(), path.steps.end(),
                         [stage](const PathStep& s) { return s.stage == stage; });
    };
    for (const auto& extra : options_.defects.extra_emissions) {
      if (!crosses(extra.stage)) continue;
      if (extra.reason != pdp::DropReason::kNone && path.reason != extra.reason) continue;
      path.emissions.push_back(Emission{extra.stage, extra.point});
    }
    for (const auto& extra : options_.defects.extra_reads) {
      if (!crosses(extra.stage)) continue;
      if (field_defined_before(path, extra.stage, extra.field)) continue;
      std::string read = pdp::to_string(extra.stage);
      read += "/";
      read += pdp::to_string(extra.field);
      read += " by ";
      read += extra.actor;
      path.uninit_reads.push_back(std::move(read));
    }
  }

  /// Is `field` carrying a meaningful value when stage `at` begins on
  /// this path? Mirrors the writes in Switch::run_pipeline: egress_port
  /// on an ECMP selection, queue at queue-select, acl_rule_id only on
  /// the ACL deny branch (whose path terminates at the ACL stage).
  [[nodiscard]] static bool field_defined_before(const SymbolicPath& path, pdp::Stage at,
                                                 pdp::MetaField field) {
    switch (field) {
      case pdp::MetaField::kEgressPort:
        return path.ecmp_selected && at > pdp::Stage::kRoute;
      case pdp::MetaField::kQueue:
        return at > pdp::Stage::kQueueSelect &&
               std::any_of(path.steps.begin(), path.steps.end(), [](const PathStep& s) {
                 return s.stage == pdp::Stage::kQueueSelect;
               });
      case pdp::MetaField::kAclRuleId:
        return at == pdp::Stage::kAcl && path.verdict == PathVerdict::kDrop &&
               path.reason == pdp::DropReason::kAclDeny;
    }
    return false;
  }

  void finish() {
    if (view_.acl != nullptr) {
      std::size_t index = 0;
      view_.acl->for_each_rule([&](const pdp::AclRule& rule) {
        if (!acl_branch_taken_[index]) notes_.dead_acl_rules.push_back(rule.rule_id);
        ++index;
      });
    }
  }

  // ---- Wire / MAC stages ----------------------------------------------------

  void enumerate_wire_paths() {
    // Loss and corruption on the attached cables: the packet never
    // reaches this switch's programmable logic, so coverage (if any)
    // comes from inter-switch sequencing — the upstream egress logged
    // the packet and the downstream gap detector triggers recovery.
    if (!view_.any_port_wired()) return;
    for (const pdp::DropReason reason :
         {pdp::DropReason::kLinkLoss, pdp::DropReason::kCorruption}) {
      SymbolicPath path;
      path.synthetic = true;
      path.verdict = PathVerdict::kDrop;
      path.reason = reason;
      path.steps.push_back({pdp::Stage::kWire, pdp::to_string(reason)});
      if (config_.enable_interswitch) {
        path.emissions.push_back(Emission{pdp::Stage::kWire, kEmitInterSwitch});
      }
      emit(path);
    }
  }

  void enumerate_mac_paths() {
    {
      // FCS failure: the MAC discards silently; with inter-switch
      // detection enabled the loss surfaces as a sequence gap and the
      // upstream ring lookup recovers the flow.
      SymbolicPath path;
      path.packet.corrupted = true;
      path.verdict = PathVerdict::kDrop;
      path.reason = pdp::DropReason::kCorruption;
      path.steps.push_back({pdp::Stage::kMacRx, "fcs failure"});
      if (config_.enable_interswitch) {
        path.emissions.push_back(Emission{pdp::Stage::kMacRx, kEmitInterSwitch});
      }
      emit(path);
    }
    {
      // PFC pause/resume: consumed by the MAC-control layer; nothing is
      // lost, so no event is owed.
      SymbolicPath path;
      path.packet.is_pfc = true;
      path.verdict = PathVerdict::kConsumed;
      path.steps.push_back({pdp::Stage::kMacRx, "pfc consumed"});
      emit(path);
    }
  }

  // ---- L3 pipeline ----------------------------------------------------------

  void enumerate_ip_paths() {
    {
      // Parser: any surviving non-IPv4 frame is a pipeline drop.
      SymbolicPath path;
      path.packet.is_ipv4 = false;
      path.steps.push_back({pdp::Stage::kMacRx, ""});
      drop_leaf(path, pdp::Stage::kParser, pdp::DropReason::kParserError, "non-ipv4");
    }

    SymbolicPath base;
    base.steps.push_back({pdp::Stage::kMacRx, ""});
    base.steps.push_back({pdp::Stage::kParser, "ipv4"});

    // LPM: entries are sorted longest-prefix-first and equal-length
    // prefixes are disjoint, so subtracting each live entry's prefix from
    // the running remainder yields the exact match set of every entry —
    // and the final remainder is the exact miss set. Corrupted entries
    // are skipped by lookups: their traffic falls through to the miss
    // path (or a shorter live entry), which is why a parity error shows
    // up as route-miss drops rather than silence in this model.
    PrefixSet remaining = PrefixSet::any();
    if (view_.routes != nullptr) {
      const auto& entries = view_.routes->entries();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& entry = entries[i];
        if (entry.corrupted) {
          notes_.corrupted_lpm_entries.push_back(static_cast<int>(i));
          continue;
        }
        PrefixSet covered = remaining;
        covered.intersect(entry.prefix);
        remaining.subtract(entry.prefix);
        if (covered.empty()) {
          notes_.dead_lpm_entries.push_back(static_cast<int>(i));
          continue;
        }
        enumerate_route_hit(base, static_cast<int>(i), entry, covered);
      }
    }
    if (!remaining.empty()) {
      SymbolicPath path = base;
      path.packet.dst = remaining;
      drop_leaf(path, pdp::Stage::kRoute, pdp::DropReason::kRouteMiss, "lpm miss");
    }
  }

  void enumerate_route_hit(const SymbolicPath& base, int entry_index,
                           const pdp::LpmTable::Entry& entry, const PrefixSet& covered) {
    if (entry.nexthops.empty()) {
      SymbolicPath path = base;
      path.packet.dst = covered;
      path.lpm_entry = entry_index;
      drop_leaf(path, pdp::Stage::kRoute, pdp::DropReason::kRouteMiss, "empty ecmp group");
      return;
    }
    // One branch per distinct ECMP member. The selector hashes the
    // 5-tuple modulo the member count, so every member is reachable for
    // some flow (hash-surjectivity assumption, see DESIGN.md).
    std::vector<util::PortId> members;
    for (const util::PortId port : entry.nexthops.ports) {
      if (std::find(members.begin(), members.end(), port) == members.end()) {
        members.push_back(port);
      }
    }
    for (const util::PortId member : members) {
      SymbolicPath path = base;
      path.packet.dst = covered;
      path.lpm_entry = entry_index;
      path.egress_port = member;
      path.ecmp_selected = true;
      std::string note = "entry ";
      note += entry.prefix.to_string();
      note += " -> port ";
      note += std::to_string(member);
      if (member >= view_.num_ports) {
        drop_leaf(path, pdp::Stage::kRoute, pdp::DropReason::kRouteMiss,
                  note + " (out of range)");
        continue;
      }
      path.steps.push_back({pdp::Stage::kRoute, std::move(note)});
      enumerate_acl(path);
    }
  }

  void enumerate_acl(const SymbolicPath& base) {
    if (view_.acl != nullptr && view_.acl->size() > 0) {
      std::vector<const pdp::AclRule*> rules;
      view_.acl->for_each_rule([&rules](const pdp::AclRule& rule) { rules.push_back(&rule); });
      for (std::size_t j = 0; j < rules.size(); ++j) {
        // A rule fully covered by one earlier rule can never be the
        // first match; its branch is exactly infeasible.
        bool shadowed = false;
        for (std::size_t k = 0; k < j && !shadowed; ++k) {
          shadowed = rule_covers(*rules[k], *rules[j]);
        }
        if (shadowed) continue;
        SymbolicPath path = base;
        if (!constrain_to_rule(path.packet, *rules[j])) continue;  // unsat in this context
        path.acl_evaluated = true;
        path.acl_rule_index = static_cast<int>(j);
        acl_branch_taken_[j] = true;
        std::string note = "rule ";
        note += std::to_string(rules[j]->rule_id);
        if (rules[j]->permit) {
          path.steps.push_back({pdp::Stage::kAcl, note + " permit"});
          enumerate_ttl(path);
        } else {
          drop_leaf(path, pdp::Stage::kAcl, pdp::DropReason::kAclDeny, note + " deny");
        }
      }
    }
    // Default action: permit. The "matched no rule" exclusion is not
    // encoded per-field (the complement of a ternary rule is not a
    // product of intervals); the branch over-approximates and admits()
    // restores exactness by concrete first-match evaluation.
    SymbolicPath path = base;
    path.acl_evaluated = true;
    path.acl_rule_index = -1;
    path.steps.push_back({pdp::Stage::kAcl, "default permit"});
    enumerate_ttl(path);
  }

  /// Constrain `pkt` to match `rule`; false if the result is empty.
  static bool constrain_to_rule(SymPacket& pkt, const pdp::AclRule& rule) {
    if (rule.src.length > 0) pkt.src.intersect(rule.src);
    if (rule.dst.length > 0) pkt.dst.intersect(rule.dst);
    if (rule.proto && !pkt.proto.intersect(Interval::exact(*rule.proto))) return false;
    if (!pkt.sport.intersect(Interval{rule.sport_lo, rule.sport_hi})) return false;
    if (!pkt.dport.intersect(Interval{rule.dport_lo, rule.dport_hi})) return false;
    return !pkt.src.empty() && !pkt.dst.empty();
  }

  void enumerate_ttl(const SymbolicPath& base) {
    {
      SymbolicPath path = base;
      if (path.packet.ttl.intersect(Interval{0, 1})) {
        drop_leaf(path, pdp::Stage::kTtl, pdp::DropReason::kTtlExpired, "ttl <= 1");
      }
    }
    SymbolicPath path = base;
    if (!path.packet.ttl.intersect(Interval{2, 0xff})) return;
    path.steps.push_back({pdp::Stage::kTtl, "decrement"});
    enumerate_mtu(path);
  }

  void enumerate_mtu(const SymbolicPath& base) {
    if (view_.mtu < 0xffff) {
      SymbolicPath path = base;
      if (path.packet.ip_bytes.intersect(Interval{view_.mtu + 1, 0xffff})) {
        drop_leaf(path, pdp::Stage::kMtu, pdp::DropReason::kMtuExceeded, "over egress mtu");
      }
    }
    SymbolicPath path = base;
    if (!path.packet.ip_bytes.intersect(Interval{0, view_.mtu})) return;
    path.steps.push_back({pdp::Stage::kMtu, ""});
    path.steps.push_back({pdp::Stage::kQueueSelect, "dscp -> queue"});
    enumerate_mmu(path);
  }

  void enumerate_mmu(const SymbolicPath& base) {
    {
      // Tail drop is reachable whenever queues can fill — a dynamic
      // condition the static model keeps as an unconditional branch.
      SymbolicPath path = base;
      drop_leaf(path, pdp::Stage::kMmuAdmit, pdp::DropReason::kCongestion, "tail drop");
    }
    if (view_.queue_capacity_bytes < static_cast<std::int64_t>(packet::kMinFrameBytes)) {
      // Even an empty queue rejects a minimum frame: forwarding is
      // structurally impossible on this switch.
      notes_.admit_unreachable = true;
      return;
    }
    SymbolicPath path = base;
    path.steps.push_back({pdp::Stage::kMmuAdmit, "admitted"});
    path.steps.push_back({pdp::Stage::kEgress, ""});
    if (view_.ports[path.egress_port].wired) {
      path.verdict = PathVerdict::kForward;
    } else {
      // An unwired egress enqueues, but the TxPort can never transmit:
      // the packet is lost with no drop point ever crossed. The coverage
      // pass flags this.
      path.verdict = PathVerdict::kBlackhole;
      path.steps.back().note = "unwired egress: frame never leaves";
    }
    emit(path);
  }

  void drop_leaf(SymbolicPath& path, pdp::Stage stage, pdp::DropReason reason,
                 const std::string& note) {
    path.verdict = PathVerdict::kDrop;
    path.reason = reason;
    path.steps.push_back({stage, note});
    if (stage == pdp::Stage::kMmuAdmit) {
      path.emissions.push_back(Emission{stage, kEmitMmuDrop});
    } else {
      path.emissions.push_back(Emission{stage, kEmitPipelineDrop});
    }
    emit(path);
  }

  const pdp::PipelineView& view_;
  const core::NetSeerConfig& config_;
  const SymbolicOptions& options_;
  const std::function<void(const SymbolicPath&)>& sink_;
  std::vector<bool> acl_branch_taken_;
  ExecNotes notes_;
};

}  // namespace

ExecNotes enumerate_paths(const pdp::PipelineView& view, const core::NetSeerConfig& config,
                          const SymbolicOptions& options,
                          const std::function<void(const SymbolicPath&)>& sink) {
  Walker walker(view, config, options, sink);
  walker.run();
  return walker.take_notes();
}

std::vector<SymbolicPath> collect_paths(const pdp::PipelineView& view,
                                        const core::NetSeerConfig& config,
                                        const SymbolicOptions& options) {
  std::vector<SymbolicPath> paths;
  enumerate_paths(view, config, options, [&paths](const SymbolicPath& p) { paths.push_back(p); });
  return paths;
}

bool SymbolicPath::admits(const packet::Packet& pkt, const pdp::PipelineView& view) const {
  if (synthetic) return false;
  if (!packet.admits(pkt)) return false;
  if (packet.corrupted || packet.is_pfc || !packet.is_ipv4) return true;

  const packet::FlowKey flow = pkt.flow();

  // The stored dst PrefixSet is the exact match set of the chosen LPM
  // entry (or the exact miss set), so LPM agreement is already implied by
  // packet.admits(). ECMP member choice is evaluated concretely.
  if (ecmp_selected && view.routes != nullptr) {
    const auto& entries = view.routes->entries();
    const auto& nexthops = entries[static_cast<std::size_t>(lpm_entry)].nexthops;
    const util::PortId selected = nexthops.select(flow.hash64(), view.ecmp_seed);
    if (selected != egress_port) return false;
  }

  // The ACL "no earlier rule matched" exclusion is over-approximated in
  // the constraint store; restore exactness with a concrete first-match.
  if (acl_evaluated && view.acl != nullptr) {
    int first_match = -1;
    int index = 0;
    view.acl->for_each_rule([&](const pdp::AclRule& rule) {
      if (first_match < 0 && rule.matches(flow)) first_match = index;
      ++index;
    });
    if (first_match != acl_rule_index) return false;
  }
  return true;
}

}  // namespace netseer::verify
