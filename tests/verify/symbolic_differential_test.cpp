// Differential property test keeping the symbolic executor honest: random
// concrete packets pushed through the real pdp pipeline must each land on
// an enumerated symbolic path with the same verdict. If the model and the
// pipeline ever disagree — a path the model missed, a verdict it got
// wrong, an emission point that doesn't line up with a real drop hook —
// this test localizes the packet that proves it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/fat_tree.h"
#include "packet/builder.h"
#include "packet/pool.h"
#include "pdp/agent.h"
#include "pdp/introspect.h"
#include "pdp/switch.h"
#include "verify/symbolic.h"

namespace netseer::verify {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;

/// What the concrete pipeline did with one packet, keyed by uid.
struct Observed {
  enum class Kind : std::uint8_t {
    kNone = 0,    // no hook fired (PFC frames are consumed hook-free)
    kForward,     // admitted to an egress queue
    kPipelineDrop,
    kMmuDrop,
    kCorrupt,     // MAC discarded on FCS failure
  };
  Kind kind = Kind::kNone;
  pdp::DropReason reason = pdp::DropReason::kNone;
  util::PortId egress = util::kInvalidPort;
};

/// SwitchAgent recording the terminal pipeline hook per packet uid.
class VerdictRecorder : public pdp::SwitchAgent {
 public:
  void on_mac_rx(pdp::Switch&, const packet::Packet& pkt, util::PortId,
                 bool corrupted) override {
    if (corrupted) records_[pkt.uid].kind = Observed::Kind::kCorrupt;
  }
  void on_pipeline_drop(pdp::Switch&, const packet::Packet& pkt,
                        const pdp::PipelineContext& ctx) override {
    Observed& o = records_[pkt.uid];
    o.kind = Observed::Kind::kPipelineDrop;
    o.reason = ctx.drop;
    o.egress = ctx.egress_port;
  }
  void on_mmu_drop(pdp::Switch&, const packet::Packet& pkt,
                   const pdp::PipelineContext& ctx) override {
    Observed& o = records_[pkt.uid];
    o.kind = Observed::Kind::kMmuDrop;
    o.reason = ctx.drop;
    o.egress = ctx.egress_port;
  }
  void on_enqueue(pdp::Switch&, const packet::Packet& pkt, const pdp::PipelineContext& ctx,
                  bool) override {
    Observed& o = records_[pkt.uid];
    o.kind = Observed::Kind::kForward;
    o.egress = ctx.egress_port;
  }

  [[nodiscard]] Observed lookup(util::PacketUid uid) const {
    const auto it = records_.find(uid);
    return it == records_.end() ? Observed{} : it->second;
  }

 private:
  std::unordered_map<util::PacketUid, Observed> records_;
};

/// The symbolic verdict the concrete observation should map onto.
struct Expected {
  PathVerdict verdict = PathVerdict::kForward;
  pdp::DropReason reason = pdp::DropReason::kNone;
  util::PortId egress = util::kInvalidPort;
  bool compare_egress = false;
};

/// Random packet soup: routed/unrouted dsts, short TTLs, oversized
/// frames, corrupted frames, PFC, non-IP, TCP and UDP.
packet::Packet random_packet(std::mt19937_64& rng,
                             const std::vector<Ipv4Addr>& routed_dsts) {
  const auto u32 = [&rng]() { return static_cast<std::uint32_t>(rng()); };
  const std::uint32_t roll = u32() % 100;
  if (roll < 3) {
    // Pause/resume frames; mostly resumes so pauses can't pile up.
    return packet::make_pfc(static_cast<std::uint8_t>(u32() % 8),
                            (u32() % 4 == 0) ? std::uint16_t{64} : std::uint16_t{0});
  }
  if (roll < 6) {
    packet::Packet pkt;  // non-IP data frame: parser drop
    pkt.uid = packet::next_packet_uid();
    pkt.payload_bytes = u32() % 256;
    return pkt;
  }

  FlowKey flow;
  flow.src = Ipv4Addr{u32()};
  flow.dst = (u32() % 10 < 7 && !routed_dsts.empty())
                 ? routed_dsts[u32() % routed_dsts.size()]
                 : Ipv4Addr{u32()};
  flow.proto = static_cast<std::uint8_t>(
      (u32() % 2 == 0) ? packet::IpProto::kTcp : packet::IpProto::kUdp);
  flow.sport = static_cast<std::uint16_t>(u32());
  flow.dport = static_cast<std::uint16_t>(u32());

  // Past-MTU payloads are rare but must be exercised (1460 is the TCP
  // payload that exactly fills a 1500 B datagram).
  const std::uint32_t payload = (u32() % 10 == 0) ? 1400 + u32() % 300 : u32() % 1200;
  packet::Packet pkt = (flow.proto == static_cast<std::uint8_t>(packet::IpProto::kTcp))
                           ? packet::make_tcp(flow, payload)
                           : packet::make_udp(flow, payload);
  static constexpr std::uint8_t kTtls[] = {0, 1, 2, 3, 64, 255};
  pkt.ip->ttl = kTtls[u32() % 6];
  pkt.ip->dscp = static_cast<std::uint8_t>(u32() % 64);
  if (roll < 10) pkt.corrupted = true;
  return pkt;
}

void run_differential(const char* topology, std::uint64_t seed, std::size_t num_packets) {
  fabric::Testbed tb = fabric::make_testbed(*fabric::resolve_topology(topology));
  pdp::Switch& sw = *tb.tors[0];
  sim::Simulator& sim = tb.net->simulator();
  constexpr util::PortId kIngressPort = 0;

  // Deploy an ACL so the first-match branches are part of the experiment:
  // deny UDP to a 1000-port band, permit a sub-band above it.
  pdp::AclRule permit_band;
  permit_band.rule_id = 7;
  permit_band.proto = static_cast<std::uint8_t>(packet::IpProto::kUdp);
  permit_band.dport_lo = 7000;
  permit_band.dport_hi = 7099;
  permit_band.permit = true;
  sw.acl().add_rule(permit_band);
  pdp::AclRule deny_band;
  deny_band.rule_id = 8;
  deny_band.proto = static_cast<std::uint8_t>(packet::IpProto::kUdp);
  deny_band.dport_lo = 7000;
  deny_band.dport_hi = 7999;
  deny_band.permit = false;
  sw.acl().add_rule(deny_band);

  VerdictRecorder recorder;
  sw.add_agent(&recorder);

  // Enumerate once against the deployed state; the path set is static.
  const pdp::PipelineView view = pdp::make_pipeline_view(sw);
  const core::NetSeerConfig config;
  const std::vector<SymbolicPath> paths = collect_paths(view, config);
  ASSERT_FALSE(paths.empty());

  std::vector<Ipv4Addr> routed_dsts;
  for (const auto& entry : sw.routes().entries()) routed_dsts.push_back(entry.prefix.network);

  std::mt19937_64 rng(seed);
  std::vector<packet::Packet> originals;
  originals.reserve(num_packets);

  // Main sweep in small bursts: draining between bursts keeps most
  // forwards uncongested while still producing some tail drops.
  constexpr std::size_t kBurst = 64;
  std::size_t sent = 0;
  while (sent < num_packets) {
    const std::size_t batch = std::min(kBurst, num_packets - sent);
    for (std::size_t i = 0; i < batch; ++i) {
      originals.push_back(random_packet(rng, routed_dsts));
      packet::Packet copy = originals.back();
      sw.receive(packet::Pool::local().acquire(std::move(copy)), kIngressPort);
    }
    sent += batch;
    sim.run();
  }

  // Congestion phase: hammer one host queue back-to-back so tail drop is
  // exercised heavily, not just incidentally.
  if (!routed_dsts.empty()) {
    for (int i = 0; i < 400; ++i) {
      const FlowKey flow{Ipv4Addr{static_cast<std::uint32_t>(rng())}, routed_dsts[0],
                         static_cast<std::uint8_t>(packet::IpProto::kTcp),
                         static_cast<std::uint16_t>(rng()), 80};
      originals.push_back(packet::make_tcp(flow, 1000));
      packet::Packet copy = originals.back();
      sw.receive(packet::Pool::local().acquire(std::move(copy)), kIngressPort);
    }
    sim.run();
  }

  std::size_t failures = 0;
  std::string first_failure;
  const auto fail = [&failures, &first_failure](const packet::Packet& pkt,
                                                const std::string& why) {
    if (failures++ == 0) first_failure = why + " — packet: " + pkt.summary();
  };

  for (const packet::Packet& pkt : originals) {
    const Observed obs = recorder.lookup(pkt.uid);
    Expected want;
    switch (obs.kind) {
      case Observed::Kind::kNone:
        if (pkt.kind != packet::PacketKind::kPfc || pkt.corrupted) {
          fail(pkt, "packet vanished: no pipeline hook fired and it is not a PFC frame");
          continue;
        }
        want.verdict = PathVerdict::kConsumed;
        break;
      case Observed::Kind::kCorrupt:
        want.verdict = PathVerdict::kDrop;
        want.reason = pdp::DropReason::kCorruption;
        break;
      case Observed::Kind::kPipelineDrop:
        want.verdict = PathVerdict::kDrop;
        want.reason = obs.reason;
        break;
      case Observed::Kind::kMmuDrop:
        want.verdict = PathVerdict::kDrop;
        want.reason = pdp::DropReason::kCongestion;
        want.egress = obs.egress;
        want.compare_egress = true;
        break;
      case Observed::Kind::kForward:
        want.verdict = PathVerdict::kForward;
        want.egress = obs.egress;
        want.compare_egress = true;
        break;
    }

    int admitting = 0;
    int matching = 0;
    for (const SymbolicPath& path : paths) {
      if (!path.admits(pkt, view)) continue;
      ++admitting;
      if (path.verdict == want.verdict && path.reason == want.reason &&
          (!want.compare_egress || path.egress_port == want.egress)) {
        ++matching;
      }
    }
    if (admitting == 0) {
      fail(pkt, "no enumerated symbolic path admits this packet (incomplete enumeration)");
    } else if (matching != 1) {
      fail(pkt, "expected exactly 1 admitting path with verdict " +
                    std::string(to_string(want.verdict)) + "/" +
                    std::string(pdp::to_string(want.reason)) + ", got " +
                    std::to_string(matching) + " of " + std::to_string(admitting) +
                    " admitting");
    }
  }
  EXPECT_EQ(failures, 0u) << "first of " << failures << " disagreement(s): " << first_failure;
}

TEST(SymbolicDifferentialTest, Testbed10kPackets) {
  run_differential("testbed", 0x5eed0001, 10000);
}

TEST(SymbolicDifferentialTest, Fat4_10kPackets) {
  run_differential("fat4", 0x5eed0004, 10000);
}

TEST(SymbolicDifferentialTest, Fat6_10kPackets) {
  run_differential("fat6", 0x5eed0006, 10000);
}

TEST(SymbolicDifferentialTest, Fat8_10kPackets) {
  run_differential("fat8", 0x5eed0008, 10000);
}

}  // namespace
}  // namespace netseer::verify
