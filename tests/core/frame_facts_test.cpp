// The frame facts Pool::acquire stamps (flow hash and unshimmed length)
// stay true wherever a frame is seen. Checking agents watch a faulty
// testbed run at every switch hook, on both sides of each NIC agent and
// in the link observer, and recompute both facts from the headers there.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/fat_tree.h"
#include "packet/builder.h"
#include "traffic/generator.h"

namespace netseer::core {
namespace {

/// Recomputes both facts from the headers and tallies what it saw.
struct FactChecker {
  void check(const packet::Packet& pkt, const char* where) {
    ++checked;
    std::uint32_t unpadded = pkt.header_bytes() + pkt.payload_bytes;
    if (pkt.control) unpadded += pkt.control->wire_size();
    const std::uint32_t bytes = std::max(unpadded, packet::kMinFrameBytes);
    if (pkt.wire_bytes() != bytes || pkt.flow_hash() != pkt.flow().hash64()) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << where << ": " << pkt.summary() << " reports " << pkt.wire_bytes()
                      << " bytes, headers say " << bytes << "; flow hash "
                      << (pkt.flow_hash() == pkt.flow().hash64() ? "agrees" : "disagrees");
      }
    }
    shimmed += pkt.seq_tag.has_value();
    pfc += pkt.kind == packet::PacketKind::kPfc;
    loss_notify += pkt.kind == packet::PacketKind::kLossNotify;
    corrupted += pkt.corrupted;
  }

  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t shimmed = 0;
  std::uint64_t pfc = 0;
  std::uint64_t loss_notify = 0;
  std::uint64_t corrupted = 0;
};

class CheckingSwitchAgent final : public pdp::SwitchAgent {
 public:
  explicit CheckingSwitchAgent(FactChecker& checker) : checker_(checker) {}

  void on_mac_rx(pdp::Switch&, const packet::Packet& pkt, util::PortId, bool) override {
    checker_.check(pkt, "on_mac_rx");
  }
  bool on_ingress(pdp::Switch&, packet::Packet& pkt, pdp::PipelineContext&) override {
    checker_.check(pkt, "on_ingress");
    return true;
  }
  void on_pipeline_drop(pdp::Switch&, const packet::Packet& pkt,
                        const pdp::PipelineContext&) override {
    checker_.check(pkt, "on_pipeline_drop");
  }
  void on_mmu_drop(pdp::Switch&, const packet::Packet& pkt,
                   const pdp::PipelineContext&) override {
    checker_.check(pkt, "on_mmu_drop");
  }
  void on_enqueue(pdp::Switch&, const packet::Packet& pkt, const pdp::PipelineContext&,
                  bool) override {
    checker_.check(pkt, "on_enqueue");
  }
  void on_egress(pdp::Switch&, packet::Packet& pkt, const pdp::EgressInfo&) override {
    checker_.check(pkt, "on_egress");
  }

 private:
  FactChecker& checker_;
};

/// NetSeer's NIC agent, with the facts checked before and after it runs:
/// it inserts the shim on transmit and strips it on receive.
class CheckingNicAgent final : public net::NicAgent {
 public:
  explicit CheckingNicAgent(FactChecker& checker) : checker_(checker) {}

  void on_tx(net::Host& host, packet::Packet& pkt) override {
    checker_.check(pkt, "nic on_tx");
    inner_.on_tx(host, pkt);
    checker_.check(pkt, "nic on_tx, after NetSeer");
  }
  bool on_rx(net::Host& host, packet::Packet& pkt) override {
    checker_.check(pkt, "nic on_rx");
    const bool pass = inner_.on_rx(host, pkt);
    checker_.check(pkt, "nic on_rx, after NetSeer");
    return pass;
  }

 private:
  FactChecker& checker_;
  NetSeerNicAgent inner_;
};

class CheckingLinkObserver final : public net::LinkObserver {
 public:
  explicit CheckingLinkObserver(FactChecker& checker) : checker_(checker) {}
  void on_link_fault(const packet::Packet& pkt, util::NodeId, util::NodeId,
                     net::LinkFault) override {
    checker_.check(pkt, "on_link_fault");
    ++faults;
  }
  std::uint64_t faults = 0;

 private:
  FactChecker& checker_;
};

TEST(FrameFacts, StampsMatchTheHeadersAtEveryHookOfAFaultyTestbedRun) {
  fabric::TestbedConfig topo;
  topo.mmu.pfc_xoff_bytes = 40 * 1024;
  topo.mmu.pfc_xon_bytes = 10 * 1024;
  fabric::Testbed testbed = fabric::make_testbed(topo, 26);
  auto& net = *testbed.net;
  auto& sim = net.simulator();

  FactChecker checker;
  CheckingLinkObserver observer(checker);
  net.set_link_observer(&observer);
  net::LinkFaultModel faults;
  faults.drop_prob = 0.002;
  faults.corrupt_prob = 0.002;
  for (const auto& link : net.links()) link->set_fault_model(faults);

  // A checker on each side of NetSeer: the first sees frames before it
  // strips or inserts the shim, the last after.
  CheckingSwitchAgent first(checker);
  CheckingSwitchAgent last(checker);
  net.add_agent_everywhere(&first);
  std::vector<std::unique_ptr<NetSeerApp>> apps;
  for (auto* sw : testbed.all_switches()) {
    apps.push_back(std::make_unique<NetSeerApp>(*sw, NetSeerConfig{}, nullptr,
                                                util::kInvalidNode));
  }
  net.add_agent_everywhere(&last);
  std::vector<std::unique_ptr<CheckingNicAgent>> nics;
  for (auto* host : testbed.hosts) {
    nics.push_back(std::make_unique<CheckingNicAgent>(checker));
    host->set_nic_agent(nics.back().get());
  }

  traffic::GeneratorConfig load;
  load.stop = util::milliseconds(2);
  std::vector<std::unique_ptr<traffic::FlowGenerator>> generators;
  for (auto* host : testbed.hosts) {
    std::vector<packet::Ipv4Addr> peers;
    for (auto* peer : testbed.hosts) {
      if (peer != host) peers.push_back(peer->addr());
    }
    generators.push_back(std::make_unique<traffic::FlowGenerator>(*host, std::move(peers), load,
                                                                  net.rng().fork()));
    generators.back()->start();
  }
  // An incast into one host fills its ToR's buffers: PFC pauses upstream.
  std::vector<net::Host*> senders(testbed.hosts.begin() + 8, testbed.hosts.end());
  traffic::launch_incast(senders, testbed.hosts[0]->addr(), 256 * 1024, 1000,
                         util::microseconds(500));
  // Frames that leave their source address to the host, which fills it
  // in before the pool stamps the flow hash.
  int unaddressed = 0;
  for (auto* host : testbed.hosts) {
    (void)sim.schedule_at(util::microseconds(700), [host, &testbed, &unaddressed] {
      auto pkt = packet::make_udp(
          packet::FlowKey{packet::Ipv4Addr{}, testbed.hosts[5]->addr(), 17, 4000, 53}, 200);
      host->send(std::move(pkt));
      ++unaddressed;
    });
  }

  sim.run_until(util::milliseconds(3));
  sim.run();
  for (auto& app : apps) app->flush();
  sim.run();

  EXPECT_EQ(checker.mismatches, 0u) << "of " << checker.checked << " frames checked";
  EXPECT_EQ(unaddressed, static_cast<int>(testbed.hosts.size()));
  // The run reached what the stamp has to survive.
  EXPECT_GT(checker.checked, 100000u);
  EXPECT_GT(checker.shimmed, 0u);
  EXPECT_GT(checker.pfc, 0u);
  EXPECT_GT(checker.loss_notify, 0u);
  EXPECT_GT(checker.corrupted, 0u);
  EXPECT_GT(observer.faults, 0u);
}

}  // namespace
}  // namespace netseer::core
