// Property test: the reliable reporter delivers every event exactly once
// for ANY management-network loss rate below 1 — parameterized sweep.
#include <gtest/gtest.h>

#include "backend/collector.h"
#include "core/reliable.h"
#include "scan_rows.h"

namespace netseer::core {
namespace {

class ReliableProperty : public ::testing::TestWithParam<double> {};

TEST_P(ReliableProperty, ExactlyOnceDeliveryUnderLoss) {
  const double loss = GetParam();
  sim::Simulator sim;
  ReportChannel channel(sim, util::Rng(17), util::milliseconds(1), loss);
  store::FlowEventStore store;
  backend::Collector collector(sim, 100, channel, store);
  ReliableReporter reporter(sim, channel, 1, 100);
  channel.register_endpoint(1, [&](util::NodeId, const ReportMsg& msg) {
    reporter.on_message(msg);
  });

  constexpr int kBatches = 40;
  for (std::uint16_t s = 0; s < kBatches; ++s) {
    EventBatch batch;
    batch.switch_id = 1;
    auto ev = make_event(EventType::kDrop,
                         packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, s, 80},
                         1, 0);
    batch.events.push_back(ev);
    reporter.submit(std::move(batch));
  }
  sim.run_until(util::seconds(60));

  EXPECT_EQ(store.size(), static_cast<std::size_t>(kBatches));
  EXPECT_TRUE(reporter.idle());
  // Exactly once: each flow appears exactly one time.
  for (std::uint16_t s = 0; s < kBatches; ++s) {
    backend::EventQuery query;
    query.flow = packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                 packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, s, 80};
    EXPECT_EQ(store::scan_rows(store, query).size(), 1u) << "sport " << s;
  }
  if (loss > 0.05) EXPECT_GT(reporter.retransmits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, ReliableProperty,
                         ::testing::Values(0.0, 0.05, 0.15, 0.3, 0.5, 0.7),
                         [](const auto& info) {
                           return "loss" + std::to_string(static_cast<int>(info.param * 100));
                         });

}  // namespace
}  // namespace netseer::core
