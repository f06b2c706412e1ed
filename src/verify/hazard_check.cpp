#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "verify/passes.h"

namespace netseer::verify {

namespace {

constexpr char kPass[] = "hazards";

bool writes(AccessMode mode) { return mode != AccessMode::kRead; }

}  // namespace

void check_hazards(Report& report, const PipelineLayout& layout, const std::string& switch_name,
                   util::NodeId switch_id) {
  report.mark_pass(kPass);
  const DiagnosticSource source{kPass, switch_name, switch_id};
  char buf[224];

  // Group accesses per register array — the nodes of the dependency graph.
  std::map<std::string, std::vector<const RegisterAccess*>> by_array;
  for (const auto& access : layout.accesses) {
    by_array[access.array].push_back(&access);

    if (access.stage < 0 || access.stage >= layout.num_stages) {
      std::snprintf(buf, sizeof(buf),
                    "placed in stage %d but the pipeline has %d stages (actor '%s')",
                    access.stage, layout.num_stages, access.actor.c_str());
      report.add(source.make(Severity::kError, access.array, buf));
    }
  }

  for (const auto& [array, accesses] : by_array) {
    // A register array physically lives in one stage of one gress;
    // touching it from two stages means the program aliases two copies
    // that silently diverge.
    std::set<int> stages;
    std::set<Gress> gresses;
    for (const auto* access : accesses) {
      stages.insert(access->stage);
      gresses.insert(access->gress);
    }
    if (stages.size() > 1) {
      std::snprintf(buf, sizeof(buf),
                    "accessed from %zu different stages — a register array occupies exactly "
                    "one stage; later stages read a stale copy",
                    stages.size());
      report.add(source.make(Severity::kError, array, buf));
    }
    if (gresses.size() > 1) {
      std::snprintf(buf, sizeof(buf),
                    "aliased across ingress and egress pipelines — Tofino-class registers "
                    "are owned by one gress; cross-pipeline access is not coherent");
      report.add(source.make(Severity::kError, array, buf));
    }

    // Same-stage dependency edges between DISTINCT actors. Intra-stage
    // ordering is undefined, so any write racing another access is a
    // hazard: write/write -> WAW, read vs write -> RAW.
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      for (std::size_t j = i + 1; j < accesses.size(); ++j) {
        const auto& a = *accesses[i];
        const auto& b = *accesses[j];
        if (a.stage != b.stage || a.gress != b.gress || a.actor == b.actor) continue;
        if (writes(a.mode) && writes(b.mode)) {
          std::snprintf(buf, sizeof(buf),
                        "same-stage WAW hazard in %s stage %d: actors '%s' and '%s' both "
                        "write with undefined ordering",
                        to_string(a.gress), a.stage, a.actor.c_str(), b.actor.c_str());
          report.add(source.make(Severity::kError, array, buf));
        } else if (writes(a.mode) || writes(b.mode)) {
          const auto& writer = writes(a.mode) ? a : b;
          const auto& reader = writes(a.mode) ? b : a;
          std::snprintf(buf, sizeof(buf),
                        "same-stage RAW hazard in %s stage %d: '%s' reads while '%s' writes; "
                        "the read may observe either value",
                        to_string(a.gress), a.stage, reader.actor.c_str(),
                        writer.actor.c_str());
          report.add(source.make(Severity::kError, array, buf));
        }
      }
    }
  }

  // Per-(gress, stage) stateful ALU budget: each array with any write
  // access occupies one stateful ALU in its stage.
  std::map<std::pair<Gress, int>, std::set<std::string>> alus;
  for (const auto& access : layout.accesses) {
    if (writes(access.mode)) alus[{access.gress, access.stage}].insert(access.array);
  }
  for (const auto& [slot, arrays] : alus) {
    if (static_cast<int>(arrays.size()) <= layout.stateful_alus_per_stage) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s stage %d needs %zu stateful ALUs but the chip provides %d per stage",
                  to_string(slot.first), slot.second, arrays.size(),
                  layout.stateful_alus_per_stage);
    report.add(source.make(Severity::kError, "stage " + std::to_string(slot.second), buf,
                           static_cast<double>(arrays.size()), layout.stateful_alus_per_stage));
  }
}

}  // namespace netseer::verify
