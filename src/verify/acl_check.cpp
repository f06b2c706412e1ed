#include <cstdio>

#include "pdp/acl.h"
#include "pdp/switch.h"
#include "verify/passes.h"

namespace netseer::verify {

namespace {

constexpr char kPass[] = "acl";

/// Does prefix `a` contain every address prefix `b` matches?
bool prefix_covers(const packet::Ipv4Prefix& a, const packet::Ipv4Prefix& b) {
  return a.length <= b.length && a.contains(b.network);
}

/// Do the two prefixes match at least one common address? Prefixes are
/// either nested or disjoint, so overlap == one contains the other.
bool prefixes_intersect(const packet::Ipv4Prefix& a, const packet::Ipv4Prefix& b) {
  return a.length <= b.length ? a.contains(b.network) : b.contains(a.network);
}

}  // namespace

bool rule_covers(const pdp::AclRule& a, const pdp::AclRule& b) {
  if (!prefix_covers(a.src, b.src) || !prefix_covers(a.dst, b.dst)) return false;
  if (a.proto && (!b.proto || *a.proto != *b.proto)) return false;
  if (a.sport_lo > b.sport_lo || a.sport_hi < b.sport_hi) return false;
  if (a.dport_lo > b.dport_lo || a.dport_hi < b.dport_hi) return false;
  return true;
}

bool rules_intersect(const pdp::AclRule& a, const pdp::AclRule& b) {
  if (!prefixes_intersect(a.src, b.src) || !prefixes_intersect(a.dst, b.dst)) return false;
  if (a.proto && b.proto && *a.proto != *b.proto) return false;
  if (a.sport_lo > b.sport_hi || b.sport_lo > a.sport_hi) return false;
  if (a.dport_lo > b.dport_hi || b.dport_lo > a.dport_hi) return false;
  return true;
}

void check_acl(Report& report, const pdp::Switch& sw) {
  report.mark_pass(kPass);
  const DiagnosticSource source{kPass, sw.name(), sw.id()};
  char buf[224];

  // AclTable evaluates rules in insertion order (first match wins), so
  // insertion order IS priority order.
  std::vector<const pdp::AclRule*> rules;
  rules.reserve(sw.acl().size());
  sw.acl().for_each_rule([&rules](const pdp::AclRule& rule) { rules.push_back(&rule); });

  for (std::size_t j = 0; j < rules.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const auto& hi = *rules[i];  // higher priority (matched first)
      const auto& lo = *rules[j];
      if (rule_covers(hi, lo)) {
        const char* effect = hi.permit == lo.permit ? "same action — redundant entry"
                                                    : "conflicting action — never applied";
        std::snprintf(buf, sizeof(buf),
                      "rule %u is dead: fully shadowed by higher-priority rule %u (%s)",
                      lo.rule_id, hi.rule_id, effect);
        report.add(source.make(Severity::kError, "acl rule " + std::to_string(lo.rule_id), buf));
        break;  // one shadowing witness per dead rule is enough
      }
      if (hi.permit != lo.permit && rules_intersect(hi, lo)) {
        std::snprintf(buf, sizeof(buf),
                      "rules %u (%s) and %u (%s) overlap with conflicting actions; flows in "
                      "the intersection take rule %u's action",
                      hi.rule_id, hi.permit ? "permit" : "deny", lo.rule_id,
                      lo.permit ? "permit" : "deny", hi.rule_id);
        report.add(source.make(Severity::kWarning, "acl rule " + std::to_string(lo.rule_id), buf));
      }
    }
  }
}

}  // namespace netseer::verify
