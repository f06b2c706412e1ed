#include "pdp/switch.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "packet/builder.h"
#include "packet/pool.h"
#include "sim/simulator.h"

namespace netseer::pdp {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;
using packet::Packet;

/// Terminal node that records everything it receives.
class CaptureNode final : public net::Node {
 public:
  CaptureNode(util::NodeId id, std::string name) : Node(id, std::move(name)) {}

  void receive(packet::PooledPacket pkt, util::PortId in_port) override {
    pkt->meta.ingress_port = in_port;
    packets.push_back(std::move(*pkt));
  }

  std::vector<Packet> packets;
};

/// Agent that records hook invocations.
class RecordingAgent final : public SwitchAgent {
 public:
  bool on_ingress(Switch& sw, Packet& pkt, PipelineContext& ctx) override {
    (void)sw; (void)ctx;
    ++ingress_count;
    if (consume_kind && pkt.kind == *consume_kind) {
      ++consumed;
      return false;
    }
    return true;
  }
  void on_pipeline_drop(Switch&, const Packet&, const PipelineContext& ctx) override {
    pipeline_drops.push_back(ctx);
  }
  void on_mmu_drop(Switch&, const Packet&, const PipelineContext& ctx) override {
    mmu_drops.push_back(ctx);
  }
  void on_enqueue(Switch&, const Packet&, const PipelineContext&, bool paused) override {
    ++enqueues;
    paused_enqueues += paused ? 1 : 0;
  }
  void on_egress(Switch&, Packet&, const EgressInfo& info) override {
    egress_infos.push_back(info);
  }
  void on_mac_rx(Switch&, const Packet&, util::PortId, bool corrupted) override {
    ++mac_rx;
    mac_rx_corrupted += corrupted ? 1 : 0;
  }
  void on_pfc_rx(Switch&, const packet::PfcFrame&, util::PortId) override { ++pfc_rx; }
  void on_pfc_tx(Switch&, util::PortId, util::QueueId, bool pause) override {
    pfc_tx_pause += pause ? 1 : 0;
    pfc_tx_resume += pause ? 0 : 1;
  }

  std::optional<packet::PacketKind> consume_kind;
  int ingress_count = 0;
  int consumed = 0;
  int enqueues = 0;
  int paused_enqueues = 0;
  int mac_rx = 0;
  int mac_rx_corrupted = 0;
  int pfc_rx = 0;
  int pfc_tx_pause = 0;
  int pfc_tx_resume = 0;
  std::vector<PipelineContext> pipeline_drops;
  std::vector<PipelineContext> mmu_drops;
  std::vector<EgressInfo> egress_infos;
};

FlowKey flow_to(Ipv4Addr dst, std::uint16_t sport = 1000) {
  return FlowKey{Ipv4Addr::from_octets(10, 0, 0, 1), dst, 6, sport, 80};
}

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest()
      : sw_(sim_, 1, "sw", make_config()), capture_(100, "capture"),
        link_(sim_, util::Rng(9), capture_, 0, util::microseconds(1), sw_.id()) {
    sw_.connect(1, &link_);
    sw_.add_agent(&agent_);
    sw_.routes().insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 1, 0), 24}, EcmpGroup{{1}});
  }

  static SwitchConfig make_config() {
    SwitchConfig config;
    config.num_ports = 4;
    config.port_rate = util::BitRate::gbps(100);
    config.pipeline_latency = 0;  // keep tests synchronous-ish
    config.mmu.queue_capacity_bytes = 1'000'000;
    return config;
  }

  Packet data_packet(std::uint32_t payload = 1000, std::uint8_t ttl = 64) {
    auto pkt = packet::make_tcp(flow_to(Ipv4Addr::from_octets(10, 0, 1, 5)), payload);
    pkt.ip->ttl = ttl;
    return pkt;
  }

  void deliver_and_run(Packet&& pkt, util::PortId in_port = 0) {
    sw_.receive(packet::Pool::local().acquire(std::move(pkt)), in_port);
    sim_.run();
  }

  sim::Simulator sim_;
  Switch sw_;
  CaptureNode capture_;
  net::Link link_;
  RecordingAgent agent_;
};

TEST_F(SwitchTest, ForwardsRoutedPacket) {
  deliver_and_run(data_packet());
  ASSERT_EQ(capture_.packets.size(), 1u);
  EXPECT_EQ(capture_.packets[0].ip->ttl, 63);  // decremented
  EXPECT_EQ(sw_.counters(0).rx_packets, 1u);
  EXPECT_EQ(sw_.total_drops(), 0u);
}

TEST_F(SwitchTest, RouteMissDrops) {
  auto pkt = packet::make_tcp(flow_to(Ipv4Addr::from_octets(192, 168, 0, 1)), 100);
  deliver_and_run(std::move(pkt));
  EXPECT_TRUE(capture_.packets.empty());
  EXPECT_EQ(sw_.drops(DropReason::kRouteMiss), 1u);
  ASSERT_EQ(agent_.pipeline_drops.size(), 1u);
  EXPECT_EQ(agent_.pipeline_drops[0].drop, DropReason::kRouteMiss);
  EXPECT_EQ(agent_.pipeline_drops[0].ingress_port, 0);
}

TEST_F(SwitchTest, AclDenyDropsWithRuleId) {
  AclRule rule;
  rule.rule_id = 77;
  rule.dst = Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 1, 0), 24};
  rule.permit = false;
  sw_.acl().add_rule(rule);

  deliver_and_run(data_packet());
  EXPECT_TRUE(capture_.packets.empty());
  EXPECT_EQ(sw_.drops(DropReason::kAclDeny), 1u);
  ASSERT_EQ(agent_.pipeline_drops.size(), 1u);
  EXPECT_EQ(agent_.pipeline_drops[0].acl_rule_id, 77);
}

TEST_F(SwitchTest, TtlExpiryDrops) {
  deliver_and_run(data_packet(100, /*ttl=*/1));
  EXPECT_TRUE(capture_.packets.empty());
  EXPECT_EQ(sw_.drops(DropReason::kTtlExpired), 1u);
}

TEST_F(SwitchTest, MtuExceededDrops) {
  deliver_and_run(data_packet(/*payload=*/2000));
  EXPECT_TRUE(capture_.packets.empty());
  EXPECT_EQ(sw_.drops(DropReason::kMtuExceeded), 1u);
}

TEST_F(SwitchTest, MaxMtuPacketForwards) {
  // 1460 payload + 40 headers = exactly 1500 IP bytes.
  deliver_and_run(data_packet(/*payload=*/1460));
  EXPECT_EQ(capture_.packets.size(), 1u);
}

TEST_F(SwitchTest, NonIpDataIsParserError) {
  Packet pkt;
  pkt.uid = packet::next_packet_uid();
  deliver_and_run(std::move(pkt));
  EXPECT_EQ(sw_.drops(DropReason::kParserError), 1u);
}

TEST_F(SwitchTest, CorruptedFrameDiscardedAtMac) {
  auto pkt = data_packet();
  pkt.corrupted = true;
  deliver_and_run(std::move(pkt));
  EXPECT_TRUE(capture_.packets.empty());
  EXPECT_EQ(sw_.counters(0).rx_fcs_errors, 1u);
  EXPECT_EQ(sw_.counters(0).rx_packets, 0u);
  EXPECT_EQ(agent_.mac_rx_corrupted, 1);
  EXPECT_EQ(agent_.ingress_count, 0);  // never reached the pipeline
}

TEST_F(SwitchTest, AgentCanConsumePacket) {
  agent_.consume_kind = packet::PacketKind::kLossNotify;
  auto pkt = data_packet();
  pkt.kind = packet::PacketKind::kLossNotify;
  deliver_and_run(std::move(pkt));
  EXPECT_EQ(agent_.consumed, 1);
  EXPECT_TRUE(capture_.packets.empty());
  EXPECT_EQ(sw_.total_drops(), 0u);
}

TEST_F(SwitchTest, MmuDropWhenQueueFull) {
  // Shrink the queue so back-to-back arrivals overflow it.
  // Capacity 3000 bytes, each frame 1058 bytes -> 2 fit, rest drop
  // (transmission takes ~85ns per frame, arrivals are simultaneous).
  SwitchConfig config = make_config();
  config.mmu.queue_capacity_bytes = 3000;
  Switch small(sim_, 2, "small", config);
  CaptureNode sink(101, "sink");
  net::Link link(sim_, util::Rng(4), sink, 0, util::microseconds(1), small.id());
  small.connect(1, &link);
  RecordingAgent agent;
  small.add_agent(&agent);
  small.routes().insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 1, 0), 24}, EcmpGroup{{1}});

  for (int i = 0; i < 10; ++i) small.receive(packet::Pool::local().acquire(data_packet()), 0);
  sim_.run();

  EXPECT_GT(small.drops(DropReason::kCongestion), 0u);
  EXPECT_EQ(agent.mmu_drops.size(), small.drops(DropReason::kCongestion));
  EXPECT_EQ(sink.packets.size() + small.drops(DropReason::kCongestion), 10u);
  EXPECT_EQ(small.counters(1).egress_drops, small.drops(DropReason::kCongestion));
}

TEST_F(SwitchTest, EgressAgentSeesQueueDelayAndPorts) {
  deliver_and_run(data_packet());
  ASSERT_EQ(agent_.egress_infos.size(), 1u);
  EXPECT_EQ(agent_.egress_infos[0].ingress_port, 0);
  EXPECT_EQ(agent_.egress_infos[0].egress_port, 1);
  EXPECT_GE(agent_.egress_infos[0].queue_delay, 0);
}

TEST_F(SwitchTest, QueueDelayGrowsUnderBackup) {
  for (int i = 0; i < 20; ++i) sw_.receive(packet::Pool::local().acquire(data_packet()), 0);
  sim_.run();
  ASSERT_EQ(agent_.egress_infos.size(), 20u);
  // Later packets waited behind earlier ones: ~85ns per 1058B at 100G.
  EXPECT_GT(agent_.egress_infos.back().queue_delay, agent_.egress_infos[0].queue_delay);
  EXPECT_GT(agent_.egress_infos.back().queue_delay, util::nanoseconds(1000));
}

TEST_F(SwitchTest, PfcFramePausesPortAndNotifiesAgents) {
  sw_.receive(packet::Pool::local().acquire(packet::make_pfc(0, 0xffff)), /*in_port=*/1);
  sim_.run_until(sim_.now() + 1);  // stay inside the pause window
  EXPECT_EQ(agent_.pfc_rx, 1);
  EXPECT_TRUE(sw_.port(1).is_paused(0));
  EXPECT_FALSE(sw_.port(1).is_paused(1));
}

TEST_F(SwitchTest, PfcResumeUnpauses) {
  sw_.receive(packet::Pool::local().acquire(packet::make_pfc(0, 0xffff)), 1);
  sim_.run_until(sim_.now() + 1);
  ASSERT_TRUE(sw_.port(1).is_paused(0));
  sw_.receive(packet::Pool::local().acquire(packet::make_pfc(0, 0)), 1);
  sim_.run_until(sim_.now() + 1);
  EXPECT_FALSE(sw_.port(1).is_paused(0));
}

TEST_F(SwitchTest, GeneratesPauseWhenXoffCrossed) {
  SwitchConfig config = make_config();
  config.mmu.queue_capacity_bytes = 1'000'000;
  config.mmu.pfc_xoff_bytes = 3000;
  config.mmu.pfc_xon_bytes = 1000;
  Switch pfc_switch(sim_, 3, "pfc", config);
  CaptureNode sink(102, "sink");
  CaptureNode upstream(103, "upstream");
  net::Link out(sim_, util::Rng(4), sink, 0, util::microseconds(1), pfc_switch.id());
  net::Link back(sim_, util::Rng(5), upstream, 0, util::microseconds(1), pfc_switch.id());
  pfc_switch.connect(1, &out);
  pfc_switch.connect(0, &back);  // ingress port 0's reverse direction
  RecordingAgent agent;
  pfc_switch.add_agent(&agent);
  pfc_switch.routes().insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 1, 0), 24},
                             EcmpGroup{{1}});

  for (int i = 0; i < 8; ++i) pfc_switch.receive(packet::Pool::local().acquire(data_packet()), 0);
  sim_.run();

  EXPECT_GE(agent.pfc_tx_pause, 1);
  // The upstream capture node received at least one PFC frame.
  int pfc_frames = 0;
  for (const auto& pkt : upstream.packets) pfc_frames += (pkt.kind == packet::PacketKind::kPfc);
  EXPECT_GE(pfc_frames, 1);
  // Drain eventually triggers resume.
  EXPECT_GE(agent.pfc_tx_resume, 1);
}

TEST_F(SwitchTest, EnqueueToPausedQueueReported) {
  // Pause egress port 1 class 0, then forward a packet into it.
  sw_.receive(packet::Pool::local().acquire(packet::make_pfc(0, 0xffff)), 1);
  sw_.receive(packet::Pool::local().acquire(data_packet()), 0);
  sim_.run_until(util::microseconds(1));
  EXPECT_EQ(agent_.paused_enqueues, 1);
}

TEST_F(SwitchTest, InjectBypassesPipeline) {
  auto pkt = data_packet(100, /*ttl=*/1);  // would be dropped by the pipeline
  pkt.kind = packet::PacketKind::kLossNotify;
  sw_.inject(std::move(pkt), 1, 7);
  sim_.run();
  ASSERT_EQ(capture_.packets.size(), 1u);
  EXPECT_EQ(capture_.packets[0].kind, packet::PacketKind::kLossNotify);
  EXPECT_EQ(sw_.total_drops(), 0u);
}

TEST_F(SwitchTest, EcmpSpreadsFlows) {
  sw_.routes().insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 2, 0), 24},
                      EcmpGroup{{1, 2, 3}});
  CaptureNode sink2(104, "s2"), sink3(105, "s3");
  net::Link l2(sim_, util::Rng(6), sink2, 0, util::microseconds(1), sw_.id());
  net::Link l3(sim_, util::Rng(7), sink3, 0, util::microseconds(1), sw_.id());
  sw_.connect(2, &l2);
  sw_.connect(3, &l3);

  for (std::uint16_t s = 0; s < 300; ++s) {
    auto pkt = packet::make_tcp(flow_to(Ipv4Addr::from_octets(10, 0, 2, 9), s), 100);
    sw_.receive(packet::Pool::local().acquire(std::move(pkt)), 0);
  }
  sim_.run();
  const auto n1 = capture_.packets.size();
  const auto n2 = sink2.packets.size();
  const auto n3 = sink3.packets.size();
  EXPECT_EQ(n1 + n2 + n3, 300u);
  EXPECT_GT(n1, 50u);
  EXPECT_GT(n2, 50u);
  EXPECT_GT(n3, 50u);
}

TEST_F(SwitchTest, SameFlowStaysOnOnePath) {
  sw_.routes().insert(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 2, 0), 24},
                      EcmpGroup{{1, 2, 3}});
  CaptureNode sink2(104, "s2"), sink3(105, "s3");
  net::Link l2(sim_, util::Rng(6), sink2, 0, util::microseconds(1), sw_.id());
  net::Link l3(sim_, util::Rng(7), sink3, 0, util::microseconds(1), sw_.id());
  sw_.connect(2, &l2);
  sw_.connect(3, &l3);

  for (int i = 0; i < 50; ++i) {
    auto pkt = packet::make_tcp(flow_to(Ipv4Addr::from_octets(10, 0, 2, 9), 555), 100);
    sw_.receive(packet::Pool::local().acquire(std::move(pkt)), 0);
  }
  sim_.run();
  // All 50 packets must exit the same port.
  const std::size_t max_count =
      std::max({capture_.packets.size(), sink2.packets.size(), sink3.packets.size()});
  EXPECT_EQ(max_count, 50u);
}

TEST(SwitchChain, OnePoolSlotPerFrameWhateverTheHopCount) {
  // src -> sw1 -> sw2 -> sw3 -> dst, pipeline latency on. A frame takes
  // its pool slot when it is created and keeps it through every queue,
  // link and pipeline hop: acquires count frames, not hops.
  sim::Simulator sim;
  const Ipv4Addr dst_addr = Ipv4Addr::from_octets(10, 0, 9, 1);
  net::Host src(sim, 10, "src", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(100));
  net::Host dst(sim, 11, "dst", dst_addr, util::BitRate::gbps(100));
  SwitchConfig config;
  config.num_ports = 2;
  ASSERT_GT(config.pipeline_latency, 0);
  std::vector<std::unique_ptr<Switch>> chain;
  std::vector<std::unique_ptr<net::Link>> links;
  const auto cable = [&](net::Node& peer, util::NodeId from) {
    links.push_back(std::make_unique<net::Link>(sim, util::Rng(links.size() + 1), peer, 0,
                                                util::microseconds(1), from));
    return links.back().get();
  };
  for (util::NodeId id = 1; id <= 3; ++id) {
    chain.push_back(std::make_unique<Switch>(sim, id, "sw" + std::to_string(id), config));
  }
  src.set_uplink(cable(*chain.front(), src.id()));
  for (std::size_t i = 0; i < chain.size(); ++i) {
    net::Node& next = i + 1 < chain.size() ? static_cast<net::Node&>(*chain[i + 1]) : dst;
    chain[i]->connect(1, cable(next, chain[i]->id()));
    chain[i]->routes().insert(Ipv4Prefix{dst_addr, 32}, EcmpGroup{{1}});
  }

  constexpr int kFrames = 40;
  const std::uint64_t before = packet::Pool::local().acquires();
  for (int i = 0; i < kFrames; ++i) {
    src.send(packet::make_tcp(
        FlowKey{src.addr(), dst_addr, 6, static_cast<std::uint16_t>(1000 + i), 80}, 500));
  }
  sim.run();

  EXPECT_EQ(dst.rx_packets(), static_cast<std::uint64_t>(kFrames));
  for (const auto& sw : chain) {
    EXPECT_EQ(sw->counters(0).rx_packets, static_cast<std::uint64_t>(kFrames)) << sw->name();
  }
  EXPECT_EQ(packet::Pool::local().acquires() - before, static_cast<std::uint64_t>(kFrames));
}

}  // namespace
}  // namespace netseer::pdp
