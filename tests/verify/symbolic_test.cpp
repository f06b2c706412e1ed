// Unit tests for the symbolic pipeline executor: the value domain, the
// path enumeration over shipped topologies, the invariant passes, and
// the seeded-defect hooks that prove each pass can actually fire.
#include "verify/symbolic.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "fabric/fat_tree.h"
#include "packet/builder.h"
#include "pdp/introspect.h"
#include "pdp/switch.h"
#include "verify/verifier.h"

namespace netseer::verify {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

// ---- Interval ---------------------------------------------------------------

TEST(IntervalTest, IntersectNarrowsAndDetectsEmpty) {
  Interval i{0, 100};
  EXPECT_TRUE(i.intersect(Interval{50, 200}));
  EXPECT_EQ(i.lo, 50u);
  EXPECT_EQ(i.hi, 100u);
  EXPECT_TRUE(i.contains(50));
  EXPECT_TRUE(i.contains(100));
  EXPECT_FALSE(i.contains(101));
  EXPECT_FALSE(i.intersect(Interval{101, 200}));
  EXPECT_TRUE(i.empty());
}

TEST(IntervalTest, ExactIsSingleton) {
  const Interval i = Interval::exact(7);
  EXPECT_TRUE(i.contains(7));
  EXPECT_FALSE(i.contains(6));
  EXPECT_FALSE(i.contains(8));
}

// ---- PrefixSet --------------------------------------------------------------

TEST(PrefixSetTest, AnyCoversEverything) {
  const PrefixSet any = PrefixSet::any();
  EXPECT_FALSE(any.empty());
  EXPECT_EQ(any.address_count(), std::uint64_t{1} << 32);
  EXPECT_TRUE(any.contains(Ipv4Addr::from_octets(0, 0, 0, 0)));
  EXPECT_TRUE(any.contains(Ipv4Addr::from_octets(255, 255, 255, 255)));
}

TEST(PrefixSetTest, SubtractIsExact) {
  PrefixSet set = PrefixSet::any();
  const Ipv4Prefix ten8{Ipv4Addr::from_octets(10, 0, 0, 0), 8};
  set.subtract(ten8);
  EXPECT_EQ(set.address_count(), (std::uint64_t{1} << 32) - (std::uint64_t{1} << 24));
  EXPECT_FALSE(set.contains(Ipv4Addr::from_octets(10, 1, 2, 3)));
  EXPECT_TRUE(set.contains(Ipv4Addr::from_octets(11, 0, 0, 0)));
  EXPECT_TRUE(set.contains(Ipv4Addr::from_octets(9, 255, 255, 255)));
  // Idempotent: the removed range stays removed.
  set.subtract(ten8);
  EXPECT_EQ(set.address_count(), (std::uint64_t{1} << 32) - (std::uint64_t{1} << 24));
  // Removing everything leaves the empty set.
  set.subtract(Ipv4Prefix{});
  EXPECT_TRUE(set.empty());
}

TEST(PrefixSetTest, SubtractSingleAddressSplitsFully) {
  PrefixSet set = PrefixSet::of(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 24});
  set.subtract(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 7), 32});
  EXPECT_EQ(set.address_count(), 255u);
  EXPECT_FALSE(set.contains(Ipv4Addr::from_octets(10, 0, 0, 7)));
  EXPECT_TRUE(set.contains(Ipv4Addr::from_octets(10, 0, 0, 6)));
  EXPECT_TRUE(set.contains(Ipv4Addr::from_octets(10, 0, 0, 8)));
}

TEST(PrefixSetTest, IntersectKeepsOnlyTheOverlap) {
  PrefixSet set = PrefixSet::of(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8});
  set.intersect(Ipv4Prefix{Ipv4Addr::from_octets(10, 1, 0, 0), 16});
  EXPECT_EQ(set.address_count(), std::uint64_t{1} << 16);
  EXPECT_TRUE(set.contains(Ipv4Addr::from_octets(10, 1, 2, 3)));
  EXPECT_FALSE(set.contains(Ipv4Addr::from_octets(10, 2, 0, 0)));
  set.intersect(Ipv4Prefix{Ipv4Addr::from_octets(192, 168, 0, 0), 16});
  EXPECT_TRUE(set.empty());
}

TEST(PrefixSetTest, RandomizedSubtractionMatchesReferencePredicate) {
  // Deterministic LCG; membership after a pile of subtractions must equal
  // "no subtracted prefix contains the address".
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 32);
  };
  PrefixSet set = PrefixSet::any();
  std::vector<Ipv4Prefix> removed;
  for (int i = 0; i < 64; ++i) {
    Ipv4Prefix p;
    p.length = static_cast<std::uint8_t>(next() % 33);
    p.network.value = next() & p.mask();
    removed.push_back(p);
    set.subtract(p);
  }
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Addr addr{next()};
    bool outside = true;
    for (const auto& p : removed) outside = outside && !p.contains(addr);
    EXPECT_EQ(set.contains(addr), outside) << addr.to_string();
  }
}

// ---- SymPacket / mtu_check_bytes -------------------------------------------

TEST(SymPacketTest, MtuCheckBytesMatchesPipelineFormula) {
  packet::Packet pkt = packet::make_tcp(FlowKey{Ipv4Addr{1}, Ipv4Addr{2}, 6, 1, 2}, 1000);
  EXPECT_EQ(mtu_check_bytes(pkt), 1040u);  // 20 IP + 20 TCP + 1000 payload
  pkt.seq_tag = 7;
  EXPECT_EQ(mtu_check_bytes(pkt), 1040u);  // shim overhead excluded from L3 length
}

TEST(SymPacketTest, AdmitsChecksEveryConstrainedField) {
  SymPacket sym;
  sym.dst = PrefixSet::of(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8});
  sym.proto = Interval::exact(6);
  sym.ttl = Interval{2, 0xff};

  packet::Packet hit = packet::make_tcp(
      FlowKey{Ipv4Addr::from_octets(1, 1, 1, 1), Ipv4Addr::from_octets(10, 0, 0, 5), 6, 9, 9},
      100);
  EXPECT_TRUE(sym.admits(hit));

  packet::Packet wrong_dst = hit;
  wrong_dst.ip->dst = Ipv4Addr::from_octets(11, 0, 0, 5);
  EXPECT_FALSE(sym.admits(wrong_dst));

  packet::Packet low_ttl = hit;
  low_ttl.ip->ttl = 1;
  EXPECT_FALSE(sym.admits(low_ttl));

  packet::Packet corrupted = hit;
  corrupted.corrupted = true;
  EXPECT_FALSE(sym.admits(corrupted));
}

// ---- Executor on shipped topologies ----------------------------------------

TEST(SymbolicExecTest, CleanTorPathsAreSoundAndDeterministic) {
  const fabric::Testbed tb = fabric::make_testbed();
  const pdp::PipelineView view = pdp::make_pipeline_view(*tb.tors[0]);
  const core::NetSeerConfig config;
  const std::vector<SymbolicPath> paths = collect_paths(view, config);
  ASSERT_FALSE(paths.empty());

  for (const SymbolicPath& path : paths) {
    switch (path.verdict) {
      case PathVerdict::kDrop:
        // Zero-FN: every reachable loss crosses exactly one emission
        // point on a healthy shipped topology.
        EXPECT_NE(path.reason, pdp::DropReason::kNone) << path.describe();
        EXPECT_EQ(path.emissions.size(), 1u) << path.describe();
        break;
      case PathVerdict::kForward:
      case PathVerdict::kConsumed:
        // Zero-FP: delivered or consumed packets owe no loss event.
        EXPECT_TRUE(path.emissions.empty()) << path.describe();
        break;
      case PathVerdict::kBlackhole:
        ADD_FAILURE() << "blackhole on a shipped topology: " << path.describe();
        break;
    }
    EXPECT_TRUE(path.uninit_reads.empty()) << path.describe();
  }

  // Enumeration is a pure function of the deployed state.
  const std::vector<SymbolicPath> again = collect_paths(view, config);
  ASSERT_EQ(paths.size(), again.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].describe(), again[i].describe());
  }
}

TEST(SymbolicExecTest, ReachableReasonsMatchTopologyStructure) {
  const fabric::Testbed tb = fabric::make_testbed();
  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, *tb.tors[0], core::NetSeerConfig{}, VerifyOptions{});
  EXPECT_TRUE(report.ok(true)) << report.render_text();

  const auto reachable = [&summary](pdp::DropReason r) {
    return summary.reason_reachable[static_cast<std::size_t>(r)];
  };
  EXPECT_TRUE(reachable(pdp::DropReason::kParserError));
  EXPECT_TRUE(reachable(pdp::DropReason::kRouteMiss));
  EXPECT_TRUE(reachable(pdp::DropReason::kTtlExpired));
  EXPECT_TRUE(reachable(pdp::DropReason::kMtuExceeded));
  EXPECT_TRUE(reachable(pdp::DropReason::kCongestion));
  EXPECT_TRUE(reachable(pdp::DropReason::kCorruption));
  // No ACL rules on the shipped testbed.
  EXPECT_FALSE(reachable(pdp::DropReason::kAclDeny));
  EXPECT_GT(summary.paths, 0u);
  EXPECT_EQ(summary.silent_drop_paths, 0u);
  EXPECT_EQ(summary.max_emissions_per_packet, 1);
}

TEST(SymbolicExecTest, AclDenyBranchesAreEnumeratedPerRoute) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];
  pdp::AclRule deny;
  deny.rule_id = 42;
  deny.proto = 17;  // UDP
  deny.permit = false;
  sw.acl().add_rule(deny);

  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, sw, core::NetSeerConfig{}, VerifyOptions{});
  EXPECT_TRUE(report.ok(true)) << report.render_text();
  EXPECT_TRUE(summary.reason_reachable[static_cast<std::size_t>(pdp::DropReason::kAclDeny)]);

  // Every deny path still emits exactly once (coverage holds with ACLs).
  const pdp::PipelineView view = pdp::make_pipeline_view(sw);
  for (const SymbolicPath& path : collect_paths(view, core::NetSeerConfig{})) {
    if (path.reason == pdp::DropReason::kAclDeny) {
      EXPECT_EQ(path.emissions.size(), 1u) << path.describe();
      EXPECT_EQ(path.acl_rule_index, 0) << path.describe();
    }
  }
}

TEST(SymbolicPassTest, BlackholeRouteIsACoverageError) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.aggs[0];  // aggs have unwired spare ports
  util::PortId spare = util::kInvalidPort;
  for (util::PortId p = 0; p < sw.config().num_ports; ++p) {
    if (sw.link(p) == nullptr) {
      spare = p;
      break;
    }
  }
  ASSERT_NE(spare, util::kInvalidPort);
  sw.routes().insert(Ipv4Prefix{Ipv4Addr::from_octets(99, 0, 0, 0), 8},
                     pdp::EcmpGroup{{spare}});

  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, sw, core::NetSeerConfig{}, VerifyOptions{});
  EXPECT_FALSE(report.ok(false)) << report.render_text();
  EXPECT_GT(summary.silent_drop_paths, 0u);
  bool found = false;
  for (const auto& d : report.diagnostics()) {
    found = found || (d.pass == "symbolic.coverage" && d.component == "path.blackhole" &&
                      d.severity == Severity::kError);
  }
  EXPECT_TRUE(found) << report.render_text();
}

TEST(SymbolicPassTest, DisabledInterswitchUncoversWireLoss) {
  const fabric::Testbed tb = fabric::make_testbed();
  core::NetSeerConfig config;
  config.enable_interswitch = false;
  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, *tb.tors[0], config, VerifyOptions{});
  // Corruption/link-loss drops now cross no emission point.
  EXPECT_GT(summary.silent_drop_paths, 0u);
  EXPECT_FALSE(report.ok(false)) << report.render_text();
}

TEST(SymbolicPassTest, ExtraEmissionIsADuplicateError) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];
  pdp::AclRule deny;
  deny.rule_id = 30;
  deny.proto = 17;
  deny.permit = false;
  sw.acl().add_rule(deny);

  SymbolicOptions symopts;
  symopts.defects.extra_emissions.push_back(
      {pdp::Stage::kAcl, pdp::DropReason::kAclDeny, "rogue.acl_mirror"});
  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, sw, core::NetSeerConfig{}, VerifyOptions{}, symopts);
  EXPECT_GT(summary.double_report_paths, 0u);
  EXPECT_EQ(summary.max_emissions_per_packet, 2);
  bool found = false;
  for (const auto& d : report.diagnostics()) {
    found = found || (d.pass == "symbolic.duplicate" && d.severity == Severity::kError);
  }
  EXPECT_TRUE(found) << report.render_text();
}

TEST(SymbolicPassTest, EmissionOnForwardPathsIsAFalsePositiveError) {
  const fabric::Testbed tb = fabric::make_testbed();
  SymbolicOptions symopts;
  // Unconditional emission at the egress stage: fires on delivered
  // packets — events for traffic that was never lost.
  symopts.defects.extra_emissions.push_back(
      {pdp::Stage::kEgress, pdp::DropReason::kNone, "rogue.postcard"});
  Report report;
  check_symbolic(report, *tb.tors[0], core::NetSeerConfig{}, VerifyOptions{}, symopts);
  bool found = false;
  for (const auto& d : report.diagnostics()) {
    found = found || (d.pass == "symbolic.duplicate" && d.component == "rogue.postcard");
  }
  EXPECT_TRUE(found) << report.render_text();
}

TEST(SymbolicPassTest, UninitializedMetadataReadIsAnError) {
  const fabric::Testbed tb = fabric::make_testbed();
  SymbolicOptions symopts;
  symopts.defects.extra_reads.push_back(
      {pdp::Stage::kMmuAdmit, pdp::MetaField::kAclRuleId, "rogue acl aggregator"});
  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, *tb.tors[0], core::NetSeerConfig{}, VerifyOptions{}, symopts);
  EXPECT_GT(summary.uninit_read_paths, 0u);
  bool found = false;
  for (const auto& d : report.diagnostics()) {
    found = found || (d.pass == "symbolic.metadata" && d.severity == Severity::kError);
  }
  EXPECT_TRUE(found) << report.render_text();
}

TEST(SymbolicPassTest, GuardedAclRuleIdReadIsNotFlagged) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];
  pdp::AclRule deny;
  deny.rule_id = 30;
  deny.proto = 17;
  deny.permit = false;
  sw.acl().add_rule(deny);
  // The real NetSeer ACL aggregation reads acl_rule_id at the ACL stage,
  // where the deny branch has just written it: defined, not a defect.
  SymbolicOptions symopts;
  symopts.defects.extra_reads.push_back(
      {pdp::Stage::kAcl, pdp::MetaField::kAclRuleId, "acl drop aggregation"});
  Report report;
  const SymbolicSummary summary =
      check_symbolic(report, sw, core::NetSeerConfig{}, VerifyOptions{}, symopts);
  // Deny paths read a defined value; permit/default paths never wrote it
  // and are flagged — which is exactly the P4-style discipline: an
  // unconditional read of a conditionally-written field is a bug.
  EXPECT_GT(summary.uninit_read_paths, 0u);
  const pdp::PipelineView view = pdp::make_pipeline_view(sw);
  for (const SymbolicPath& path : collect_paths(view, core::NetSeerConfig{}, symopts)) {
    if (path.reason == pdp::DropReason::kAclDeny) {
      EXPECT_TRUE(path.uninit_reads.empty()) << path.describe();
    }
  }
}

TEST(SymbolicPassTest, DeadRoutesAndShadowedRulesAreReachabilityWarnings) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];

  // A /31 fully covered by its two /32s can never match.
  const auto& first = sw.routes().entries().front();
  ASSERT_EQ(first.prefix.length, 32);
  const std::uint32_t addr = first.prefix.network.value;
  const pdp::EcmpGroup group = first.nexthops;
  sw.routes().insert(Ipv4Prefix{Ipv4Addr{addr ^ 1U}, 32}, group);
  sw.routes().insert(Ipv4Prefix{Ipv4Addr{addr & ~1U}, 31}, group);

  // A deny shadowed by an earlier wildcard permit can never be first
  // match.
  pdp::AclRule permit_any;
  permit_any.rule_id = 10;
  permit_any.permit = true;
  sw.acl().add_rule(permit_any);
  pdp::AclRule dead_deny;
  dead_deny.rule_id = 20;
  dead_deny.permit = false;
  sw.acl().add_rule(dead_deny);

  Report report;
  check_symbolic(report, sw, core::NetSeerConfig{}, VerifyOptions{});
  EXPECT_TRUE(report.ok(false)) << report.render_text();   // warnings only
  EXPECT_FALSE(report.ok(true)) << report.render_text();
  bool dead_route = false;
  bool dead_rule = false;
  for (const auto& d : report.diagnostics()) {
    if (d.pass != "symbolic.reachability") continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    dead_route = dead_route || d.component.rfind("lpm.", 0) == 0;
    dead_rule = dead_rule || d.component == "acl.rule.20";
  }
  EXPECT_TRUE(dead_route) << report.render_text();
  EXPECT_TRUE(dead_rule) << report.render_text();
}

TEST(SymbolicPassTest, CorruptedLpmEntryIsWarnedAndItsTrafficFallsToMiss) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];
  const Ipv4Prefix victim = sw.routes().entries().front().prefix;
  ASSERT_TRUE(sw.routes().set_corrupted(victim, true));

  Report report;
  check_symbolic(report, sw, core::NetSeerConfig{}, VerifyOptions{});
  bool warned = false;
  for (const auto& d : report.diagnostics()) {
    warned = warned || (d.pass == "symbolic.reachability" &&
                        d.component == "lpm." + victim.to_string());
  }
  EXPECT_TRUE(warned) << report.render_text();

  // The corrupted entry's addresses take the (covered) route-miss path.
  const pdp::PipelineView view = pdp::make_pipeline_view(sw);
  bool miss_covers_victim = false;
  for (const SymbolicPath& path : collect_paths(view, core::NetSeerConfig{})) {
    if (path.reason == pdp::DropReason::kRouteMiss && path.lpm_entry == -1) {
      miss_covers_victim = miss_covers_victim || path.packet.dst.contains(victim.network);
    }
  }
  EXPECT_TRUE(miss_covers_victim);
}

TEST(SymbolicPassTest, TruncationIsAnExplicitError) {
  const fabric::Testbed tb = fabric::make_testbed();
  SymbolicOptions symopts;
  symopts.max_paths = 3;
  Report report;
  check_symbolic(report, *tb.tors[0], core::NetSeerConfig{}, VerifyOptions{}, symopts);
  bool found = false;
  for (const auto& d : report.diagnostics()) {
    found = found || (d.pass == "symbolic.coverage" && d.component == "executor");
  }
  EXPECT_TRUE(found) << report.render_text();
}

TEST(SymbolicPassTest, MonitoredPrefixesDowngradeZeroFnToAWarning) {
  const fabric::Testbed tb = fabric::make_testbed();
  core::NetSeerConfig config;
  config.monitored_prefixes.push_back(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 8});
  Report report;
  check_symbolic(report, *tb.tors[0], config, VerifyOptions{});
  EXPECT_TRUE(report.ok(false)) << report.render_text();
  EXPECT_FALSE(report.ok(true)) << report.render_text();
}

// ---- Path-sensitive capacity ------------------------------------------------

TEST(SymbolicCapacityTest, PathSensitiveRateIsCappedByTheInternalPort) {
  const fabric::Testbed tb = fabric::make_testbed();
  core::NetSeerConfig config;
  VerifyOptions options;
  // Pathological assumption: every packet is eventful. The structural
  // bound explodes; the internal-port ceiling keeps the proven bound
  // finite and tighter.
  options.assumptions.event_fraction = 1.0;
  Report report;
  const SymbolicSummary summary = check_symbolic(report, *tb.tors[0], config, options);
  EXPECT_GT(summary.structural_event_rate_eps, summary.path_sensitive_event_rate_eps);
  const double ceiling =
      static_cast<double>(config.internal_port_rate.bits_per_second()) /
      (8.0 * static_cast<double>(options.assumptions.event_pkt_bytes));
  EXPECT_DOUBLE_EQ(summary.path_sensitive_event_rate_eps,
                   ceiling * summary.max_emissions_per_packet);
}

TEST(SymbolicCapacityTest, DoubleEmissionInflatesTheProvenBound) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];
  pdp::AclRule deny;
  deny.rule_id = 30;
  deny.proto = 17;
  deny.permit = false;
  sw.acl().add_rule(deny);
  SymbolicOptions symopts;
  symopts.defects.extra_emissions.push_back(
      {pdp::Stage::kAcl, pdp::DropReason::kAclDeny, "rogue.acl_mirror"});

  Report clean_report;
  const SymbolicSummary clean =
      check_symbolic(clean_report, sw, core::NetSeerConfig{}, VerifyOptions{});
  Report defect_report;
  const SymbolicSummary defect =
      check_symbolic(defect_report, sw, core::NetSeerConfig{}, VerifyOptions{}, symopts);
  EXPECT_DOUBLE_EQ(defect.path_sensitive_event_rate_eps,
                   2.0 * clean.path_sensitive_event_rate_eps);
}

// ---- Path-condition membership (admits) ------------------------------------

TEST(SymbolicAdmitsTest, EachCraftedPacketLandsOnExactlyOneMatchingPath) {
  const fabric::Testbed tb = fabric::make_testbed();
  pdp::Switch& sw = *tb.tors[0];
  const pdp::PipelineView view = pdp::make_pipeline_view(sw);
  const std::vector<SymbolicPath> paths = collect_paths(view, core::NetSeerConfig{});

  const auto expect_unique = [&](const packet::Packet& pkt, PathVerdict verdict,
                                 pdp::DropReason reason) {
    int matching = 0;
    for (const SymbolicPath& path : paths) {
      if (path.admits(pkt, view) && path.verdict == verdict && path.reason == reason) {
        ++matching;
      }
    }
    EXPECT_EQ(matching, 1) << pkt.summary();
  };

  // A routed host address forwards (and can also tail-drop — two
  // admitting paths, one per verdict).
  const Ipv4Addr host = sw.routes().entries().front().prefix.network;
  packet::Packet good =
      packet::make_tcp(FlowKey{Ipv4Addr::from_octets(1, 2, 3, 4), host, 6, 999, 80}, 200);
  expect_unique(good, PathVerdict::kForward, pdp::DropReason::kNone);
  expect_unique(good, PathVerdict::kDrop, pdp::DropReason::kCongestion);

  packet::Packet miss = good;
  miss.ip->dst = Ipv4Addr::from_octets(203, 0, 113, 9);
  expect_unique(miss, PathVerdict::kDrop, pdp::DropReason::kRouteMiss);

  packet::Packet expired = good;
  expired.ip->ttl = 1;
  expect_unique(expired, PathVerdict::kDrop, pdp::DropReason::kTtlExpired);

  packet::Packet oversized =
      packet::make_tcp(FlowKey{Ipv4Addr::from_octets(1, 2, 3, 4), host, 6, 999, 80}, 1600);
  expect_unique(oversized, PathVerdict::kDrop, pdp::DropReason::kMtuExceeded);

  packet::Packet corrupt = good;
  corrupt.corrupted = true;
  expect_unique(corrupt, PathVerdict::kDrop, pdp::DropReason::kCorruption);

  const packet::Packet pause = packet::make_pfc(3, 0xff);
  expect_unique(pause, PathVerdict::kConsumed, pdp::DropReason::kNone);

  packet::Packet non_ip;
  non_ip.uid = packet::next_packet_uid();
  expect_unique(non_ip, PathVerdict::kDrop, pdp::DropReason::kParserError);
}

}  // namespace
}  // namespace netseer::verify
