#include "verify/coverage.h"

#include <algorithm>
#include <unordered_set>

#include "pdp/switch.h"
#include "util/json.h"

namespace netseer::verify {

std::vector<CoverageClass> coverage_classes(const Report& report,
                                            const SymbolicSummary& summary) {
  std::vector<CoverageClass> classes;
  std::unordered_set<std::string> seen;
  const auto add = [&](std::string name, bool silent, std::string source) {
    if (!seen.insert(name).second) return;
    classes.push_back({std::move(name), silent, std::move(source)});
  };

  // Reachable drop reasons: every one of these produces flow events at
  // an emission point, so a runtime detector CAN observe it — the
  // cross-check demands that one actually does.
  for (std::size_t r = 1; r < summary.reason_reachable.size(); ++r) {
    if (!summary.reason_reachable[r]) continue;
    add(std::string("drop.") + pdp::to_string(static_cast<pdp::DropReason>(r)), false,
        "symbolic.summary");
  }

  // Silent loss and dead deployed state, from the symbolic diagnostics.
  for (const Diagnostic& d : report.diagnostics()) {
    const bool silent_loss =
        d.pass == "symbolic.coverage" && d.component.starts_with("path.");
    const bool dead_state = d.pass == "symbolic.reachability" &&
                            (d.component.starts_with("lpm.") ||
                             d.component.starts_with("acl.rule."));
    if (silent_loss || dead_state) add(d.component, true, d.pass);
  }

  std::sort(classes.begin(), classes.end(),
            [](const CoverageClass& a, const CoverageClass& b) { return a.name < b.name; });
  return classes;
}

std::vector<CoverageClass> collect_coverage(Report& report,
                                            const std::vector<pdp::Switch*>& switches,
                                            const core::NetSeerConfig& config,
                                            const VerifyOptions& options,
                                            const SymbolicOptions& symbolic) {
  SymbolicSummary merged;
  for (pdp::Switch* sw : switches) {
    const SymbolicSummary s = check_symbolic(report, *sw, config, options, symbolic);
    for (std::size_t r = 0; r < merged.reason_reachable.size(); ++r) {
      merged.reason_reachable[r] = merged.reason_reachable[r] || s.reason_reachable[r];
    }
  }
  return coverage_classes(report, merged);
}

std::string render_coverage_json(const std::vector<CoverageClass>& classes) {
  std::string out = "{\"classes\":[";
  bool first = true;
  for (const CoverageClass& c : classes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    util::append_json_string(out, c.name);
    out += ",\"silent\":";
    out += c.silent ? "true" : "false";
    out += ",\"source\":";
    util::append_json_string(out, c.source);
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace netseer::verify
