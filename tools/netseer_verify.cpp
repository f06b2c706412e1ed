// netseer_verify — static pipeline-invariant checker. Constructs (but
// never runs) a topology, deploys the NetSeer configuration to be
// verified, and proves the paper's deployability invariants over it:
// resource fitting (Fig. 7), stage hazards, recirculation termination,
// ACL shadowing, and the no-overflow capacity conditions (§4, Fig. 15).
// With --symbolic it additionally enumerates every pipeline execution
// path per switch and proves the behavioral coverage claims: every
// reachable drop path crosses exactly one event-emission point (zero
// FN), no path crosses two (zero FP), plus reachability, metadata, and
// path-sensitive capacity checks.
//
//   ./build/tools/netseer_verify --topology testbed --symbolic # exit 0
//   ./build/tools/netseer_verify --fixture tcam-overflow       # exit 1
//   ./build/tools/netseer_verify --fixture silent-drop         # exit 1
//
// Exit codes: 0 = verifies clean, 1 = diagnostics failed, 2 = usage.
#include <cstdio>
#include <string>

#include "fabric/fat_tree.h"
#include "packet/addr.h"
#include "pdp/switch.h"
#include "util/cli.h"
#include "util/output.h"
#include "verify/coverage.h"
#include "verify/symbolic.h"
#include "verify/verifier.h"

using namespace netseer;

namespace {

struct Args {
  std::string topology = "testbed";
  std::string fixture;       // empty = verify the topology as shipped
  std::string coverage_out;  // write machine-readable loss classes here
  bool json = false;
  bool strict = false;
  bool symbolic = false;
};

// ---- Seeded defects ---------------------------------------------------------
// Each fixture plants exactly the class of mistake its verifier pass
// exists to catch, on an otherwise-clean topology.

/// A wildcard permit deployed above a specific deny: the deny is dead.
void seed_shadowed_acl(pdp::Switch& sw) {
  pdp::AclRule permit_any;
  permit_any.rule_id = 10;
  permit_any.permit = true;
  sw.acl().add_rule(permit_any);

  pdp::AclRule deny_specific;
  deny_specific.rule_id = 20;
  deny_specific.src = packet::Ipv4Prefix{packet::Ipv4Addr::from_octets(10, 0, 0, 0), 8};
  deny_specific.permit = false;
  sw.acl().add_rule(deny_specific);
}

/// Enough ternary rules to blow the 6.2 Mb TCAM past 100%. Disjoint /32
/// destinations so the rules don't also shadow each other.
void seed_tcam_overflow(pdp::Switch& sw) {
  for (std::uint32_t i = 0; i < 15000; ++i) {
    pdp::AclRule rule;
    rule.rule_id = static_cast<std::uint16_t>(1000 + (i % 60000));
    rule.dst = packet::Ipv4Prefix{
        packet::Ipv4Addr{(std::uint32_t{172} << 24) | (std::uint32_t{16} << 16) | i}, 32};
    rule.permit = false;
    sw.acl().add_rule(rule);
  }
}

/// A second actor writing the path table in its own stage: same-stage
/// WAW with undefined intra-stage ordering.
verify::PipelineLayout seed_stage_hazard(const core::NetSeerConfig& config) {
  verify::PipelineLayout layout = verify::netseer_layout(config);
  layout.add("detect.path_table", "rogue flow sampler", 3, verify::Gress::kIngress,
             verify::AccessMode::kWrite);
  return layout;
}

/// A route into a port that has no cable: the packet enqueues and is
/// never transmitted — silent loss with no drop point crossed
/// (symbolic.coverage catches it).
bool seed_silent_drop(pdp::Switch& sw) {
  for (util::PortId p = 0; p < sw.config().num_ports; ++p) {
    if (sw.link(p) == nullptr) {
      sw.routes().insert(
          packet::Ipv4Prefix{packet::Ipv4Addr::from_octets(99, 0, 0, 0), 8},
          pdp::EcmpGroup{{p}});
      return true;
    }
  }
  return false;
}

/// A reachable deny rule, used together with a seeded extra emission
/// point at the ACL stage: the deny path then reports the same packet
/// twice (symbolic.duplicate catches it).
void seed_udp_deny(pdp::Switch& sw) {
  pdp::AclRule deny_udp;
  deny_udp.rule_id = 30;
  deny_udp.proto = static_cast<std::uint8_t>(packet::IpProto::kUdp);
  deny_udp.permit = false;
  sw.acl().add_rule(deny_udp);
}

/// A stale aggregate under more-specific routes: clone an existing host
/// /32's sibling, then add the covering /31 — every address the /31
/// covers is claimed by the longer entries, so it can never match
/// (symbolic.reachability warns).
bool seed_dead_route(pdp::Switch& sw) {
  for (const auto& entry : sw.routes().entries()) {
    if (entry.prefix.length != 32 || entry.corrupted) continue;
    const pdp::EcmpGroup group = entry.nexthops;
    const std::uint32_t addr = entry.prefix.network.value;
    sw.routes().insert(packet::Ipv4Prefix{packet::Ipv4Addr{addr ^ 1U}, 32}, group);
    sw.routes().insert(packet::Ipv4Prefix{packet::Ipv4Addr{addr & ~1U}, 31}, group);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  util::CommandLine cli{
      "netseer_verify — statically verify a constructed NetSeer deployment; print one\n"
      "diagnostic per violated invariant. --symbolic also enumerates all pipeline\n"
      "execution paths and proves drop coverage (zero-FN), no double-report\n"
      "(zero-FP), reachability, metadata initialization, and path-sensitive\n"
      "capacity. --fixture seeds a known defect, to prove each verifier pass\n"
      "fires. --coverage-out runs the symbolic pass and writes the loss classes\n"
      "the deployment can exhibit as JSON, the list the detect-coverage\n"
      "cross-check consumes.\n\n"
      "Exit codes: 0 = clean, 1 = diagnostics failed or the --coverage-out file\n"
      "could not be written, 2 = usage error."};
  cli.flag("topology", &args.topology, "testbed | fat<k>, k even (fat4, fat6, fat8)")
      .flag("fixture", &args.fixture,
            "shadowed-acl | tcam-overflow | undersized-ring | stage-hazard | silent-drop |"
            " double-emit | uninit-meta | dead-route")
      .flag("json", &args.json, "print the report as JSON")
      .flag("strict", &args.strict, "warnings fail the run too")
      .flag("symbolic", &args.symbolic, "run the symbolic pipeline executor")
      .flag("coverage-out", &args.coverage_out, "write the loss classes as JSON to this path")
      .parse(argc, argv);

  const auto topo = fabric::resolve_topology(args.topology);
  if (!topo) cli.fail("unknown topology '" + args.topology + "'");
  fabric::Testbed tb = fabric::make_testbed(*topo);

  core::NetSeerConfig config;
  verify::VerifyOptions options;
  options.strict = args.strict;

  bool hazard_fixture = false;
  // Symbolic-executor defects are seeded into the pipeline *model* of
  // tors[0] only (mirroring how stage-hazard plants a layout conflict),
  // so the expected diagnostic appears exactly once.
  verify::SymbolicOptions symopts;
  bool symbolic_defect = false;
  if (args.fixture == "shadowed-acl") {
    seed_shadowed_acl(*tb.tors[0]);
  } else if (args.fixture == "tcam-overflow") {
    seed_tcam_overflow(*tb.tors[0]);
  } else if (args.fixture == "undersized-ring") {
    config.interswitch.ring_slots = 64;
  } else if (args.fixture == "stage-hazard") {
    hazard_fixture = true;
  } else if (args.fixture == "silent-drop") {
    if (!seed_silent_drop(*tb.aggs[0])) {
      std::fprintf(stderr, "silent-drop: no unwired port on %s\n",
                   tb.aggs[0]->name().c_str());
      return 2;
    }
    args.symbolic = true;
  } else if (args.fixture == "double-emit") {
    seed_udp_deny(*tb.tors[0]);
    symopts.defects.extra_emissions.push_back(
        {pdp::Stage::kAcl, pdp::DropReason::kAclDeny, "rogue.acl_mirror"});
    symbolic_defect = true;
  } else if (args.fixture == "uninit-meta") {
    symopts.defects.extra_reads.push_back(
        {pdp::Stage::kMmuAdmit, pdp::MetaField::kAclRuleId, "rogue acl aggregator"});
    symbolic_defect = true;
  } else if (args.fixture == "dead-route") {
    if (!seed_dead_route(*tb.tors[0])) {
      std::fprintf(stderr, "dead-route: no host /32 to shadow on %s\n",
                   tb.tors[0]->name().c_str());
      return 2;
    }
    args.symbolic = true;
  } else if (!args.fixture.empty()) {
    cli.fail("unknown fixture '" + args.fixture + "'");
  }
  options.symbolic = args.symbolic;

  verify::Report report;
  if (hazard_fixture) {
    const verify::PipelineLayout layout = seed_stage_hazard(config);
    for (pdp::Switch* sw : tb.all_switches()) {
      report.merge(verify::verify_switch(*sw, config, layout, options));
    }
  } else {
    report = verify::verify_testbed(tb, config, options);
  }
  if (symbolic_defect) {
    verify::check_symbolic(report, *tb.tors[0], config, options, symopts);
  }

  if (!args.coverage_out.empty()) {
    // A scratch report: the symbolic pass re-runs for class extraction
    // without duplicating diagnostics into the exit-code report.
    verify::Report scratch;
    const auto classes = verify::collect_coverage(scratch, tb.all_switches(), config,
                                                  options, symopts);
    if (!util::write_file(args.coverage_out, verify::render_coverage_json(classes))) {
      std::fprintf(stderr, "cannot write %s\n", args.coverage_out.c_str());
      return 1;
    }
  }

  if (args.json) {
    std::fputs(report.render_json().c_str(), stdout);
  } else {
    std::printf("netseer_verify: %s, %zu switches%s%s\n", args.topology.c_str(),
                tb.all_switches().size(),
                args.fixture.empty() ? "" : ", fixture ", args.fixture.c_str());
    std::fputs(report.render_text().c_str(), stdout);
  }
  return report.ok(args.strict) ? 0 : 1;
}
