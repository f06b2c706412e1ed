// End-to-end detection over the five replayed §5.1 incidents: the
// streaming detection service, fed each incident's event store, must
// raise exactly the expected alert set — right rule, right device,
// right flow fingerprint — and stay silent on the fault-free baseline.
// CI's sanitize job runs these pinned expectations under ASan/UBSan;
// the replays are fully deterministic, so exact counts and fingerprints
// are stable.
#include <gtest/gtest.h>

#include <set>

#include "fabric/fat_tree.h"
#include "net/host.h"
#include "pdp/switch.h"
#include "scenarios/incidents.h"

namespace netseer::scenarios {
namespace {

/// Device ids and host addresses of the default testbed the suite
/// replays on (construction is deterministic, so the mapping holds for
/// every incident's private harness).
struct Topo {
  fabric::Testbed tb = fabric::make_testbed();

  [[nodiscard]] util::NodeId agg0() const { return tb.aggs[0]->id(); }
  [[nodiscard]] util::NodeId tor0() const { return tb.tors[0]->id(); }
  [[nodiscard]] util::NodeId tor3() const { return tb.tors[3]->id(); }
  [[nodiscard]] packet::Ipv4Addr host(std::size_t i) const { return tb.hosts[i]->addr(); }
};

TEST(IncidentDetectE2eTest, BaselineRaisesNothing) {
  IncidentSuite suite;
  const IncidentReport report = suite.baseline();
  EXPECT_TRUE(report.alerts.empty()) << report.evidence;
  EXPECT_TRUE(report.located());  // for the baseline: "no false alarm"
}

TEST(IncidentDetectE2eTest, RoutingErrorRaisesOneDropBurstOnTheVictimFlow) {
  Topo topo;
  IncidentSuite suite;
  const IncidentReport report = suite.routing_error();

  // Exactly one alert: the victim flow's TTL deaths, fingerprinted at
  // pod 0's first aggregation switch (where the core<->agg loop expires).
  ASSERT_EQ(report.alerts.size(), 1u);
  const IncidentAlert& alert = report.alerts[0];
  EXPECT_EQ(alert.rule, "drop-burst");
  EXPECT_EQ(alert.severity, "warning");
  EXPECT_EQ(alert.state, "active");
  EXPECT_EQ(alert.switch_id, topo.agg0());
  EXPECT_EQ(alert.flow.src, topo.host(0));
  EXPECT_EQ(alert.flow.dst, topo.host(31));
  EXPECT_EQ(alert.flow.sport, 5001);
  EXPECT_EQ(alert.flow.dport, 80);
  EXPECT_EQ(alert.raised_at, report.fault_onset);  // caught in the first window
  EXPECT_GE(alert.firing_windows, 2u);             // loop persists across windows
  EXPECT_EQ(report.alert_count("drop-burst", topo.agg0()), 1u);
}

TEST(IncidentDetectE2eTest, AclMisconfigurationRaisesOneAclDenyNamingTheRule) {
  Topo topo;
  IncidentSuite suite;
  const IncidentReport report = suite.acl_misconfiguration();

  ASSERT_EQ(report.alerts.size(), 1u);
  const IncidentAlert& alert = report.alerts[0];
  EXPECT_EQ(alert.rule, "acl-deny");
  EXPECT_EQ(alert.severity, "warning");
  EXPECT_EQ(alert.switch_id, topo.tor0());
  EXPECT_EQ(alert.group, 501u);  // device-rule scope: the ACL rule id IS the fingerprint
  EXPECT_EQ(alert.flow.src, topo.host(5));  // the blackholed VM
  EXPECT_GE(alert.raised_at, report.fault_onset);
  EXPECT_EQ(report.alert_count("acl-deny", topo.tor0()), 1u);
}

TEST(IncidentDetectE2eTest, ParityErrorRaisesPerFlowBurstsAtTheFaultyAgg) {
  Topo topo;
  IncidentSuite suite;
  const IncidentReport report = suite.parity_error();

  // Six of the twelve client flows ECMP onto the corrupted route; each
  // raises its own drop-burst at the faulty aggregation switch.
  ASSERT_EQ(report.alerts.size(), 6u);
  std::set<std::uint64_t> groups;
  for (const IncidentAlert& alert : report.alerts) {
    EXPECT_EQ(alert.rule, "drop-burst");
    EXPECT_EQ(alert.switch_id, topo.agg0());
    EXPECT_EQ(alert.flow.dst, topo.host(2));  // all victims target the redis VIP
    EXPECT_EQ(alert.flow.dport, 6379);
    EXPECT_EQ(alert.raised_at, report.fault_onset);
    groups.insert(alert.group);
  }
  EXPECT_EQ(groups.size(), 6u);  // distinct per-flow fingerprints, no dedup collisions
  EXPECT_EQ(report.alert_count("drop-burst", topo.agg0()), 6u);
}

TEST(IncidentDetectE2eTest, UnexpectedVolumeRaisesIncastBurstsAtTheVictimTor) {
  Topo topo;
  IncidentSuite suite;
  const IncidentReport report = suite.unexpected_volume();

  // The incast overruns the victim ToR's MMU: per-sender drop bursts,
  // all fingerprinted at that ToR, all targeting the victim service.
  ASSERT_EQ(report.alerts.size(), 6u);
  std::set<std::uint64_t> groups;
  for (const IncidentAlert& alert : report.alerts) {
    EXPECT_EQ(alert.rule, "drop-burst");
    EXPECT_EQ(alert.switch_id, topo.tor0());
    EXPECT_EQ(alert.flow.dst, topo.host(0));
    EXPECT_EQ(alert.flow.dport, 80);
    EXPECT_EQ(alert.raised_at, report.fault_onset);
    groups.insert(alert.group);
  }
  EXPECT_EQ(groups.size(), 6u);
  EXPECT_EQ(report.alert_count("drop-burst", topo.tor0()), 6u);
}

TEST(IncidentDetectE2eTest, ServerSideBugExoneratesTheStorageFlow) {
  Topo topo;
  IncidentSuite suite;
  const IncidentReport report = suite.server_side_bug();

  EXPECT_TRUE(report.network_exonerated);
  // The red-herring incast at the noise senders' ToR does alert — those
  // drops are real — but nothing fingerprints the storage flow, which is
  // the exoneration: the suspect flow has a clean bill of health.
  ASSERT_EQ(report.alerts.size(), 4u);
  for (const IncidentAlert& alert : report.alerts) {
    EXPECT_EQ(alert.rule, "drop-burst");
    EXPECT_EQ(alert.switch_id, topo.tor3());
    EXPECT_EQ(alert.flow.dst, topo.host(17));  // the incast target, not the storage server
    EXPECT_NE(alert.flow.src, topo.host(0));   // never the storage client
    EXPECT_NE(alert.flow.dport, 3260);         // never the iSCSI victim flow
  }
  EXPECT_EQ(report.alert_count("drop-burst", topo.tor3()), 4u);
}

}  // namespace
}  // namespace netseer::scenarios
