#include "core/reliable.h"

#include <gtest/gtest.h>

#include "backend/collector.h"
#include "scan_rows.h"

namespace netseer::core {
namespace {

packet::FlowKey flow(std::uint16_t sport) {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, sport, 80};
}

EventBatch batch_of(std::uint16_t sport, std::size_t n = 1) {
  EventBatch batch;
  batch.switch_id = 1;
  for (std::size_t i = 0; i < n; ++i) {
    batch.events.push_back(make_event(EventType::kDrop, flow(sport), 1, 0));
  }
  return batch;
}

struct Rig {
  explicit Rig(double loss = 0.0)
      : channel(sim, util::Rng(7), util::milliseconds(1), loss),
        collector(sim, /*id=*/100, channel, store),
        reporter(sim, channel, /*self=*/1, /*backend=*/100) {
    channel.register_endpoint(1, [this](util::NodeId, const ReportMsg& msg) {
      reporter.on_message(msg);
    });
  }
  sim::Simulator sim;
  ReportChannel channel;
  store::FlowEventStore store;
  backend::Collector collector;
  ReliableReporter reporter;
};

TEST(ReliableReporter, DeliversOverCleanChannel) {
  Rig rig;
  for (std::uint16_t s = 0; s < 10; ++s) rig.reporter.submit(batch_of(s));
  rig.sim.run();
  EXPECT_EQ(rig.store.size(), 10u);
  EXPECT_TRUE(rig.reporter.idle());
  EXPECT_EQ(rig.reporter.retransmits(), 0u);
}

TEST(ReliableReporter, SurvivesHeavyLoss) {
  Rig rig(/*loss=*/0.3);
  for (std::uint16_t s = 0; s < 50; ++s) rig.reporter.submit(batch_of(s, 3));
  rig.sim.run_until(util::seconds(10));
  EXPECT_EQ(rig.store.size(), 150u);
  EXPECT_TRUE(rig.reporter.idle());
  EXPECT_GT(rig.reporter.retransmits(), 0u);
}

TEST(ReliableReporter, NoDuplicateStorageUnderRetransmits) {
  Rig rig(/*loss=*/0.5);
  rig.reporter.submit(batch_of(1));
  rig.sim.run_until(util::seconds(10));
  // Acks get lost too -> data retransmitted -> collector must dedup.
  EXPECT_EQ(rig.store.size(), 1u);
}

TEST(ReliableReporter, WindowLimitsInflight) {
  Rig rig(/*loss=*/1.0);  // nothing gets through
  for (std::uint16_t s = 0; s < 100; ++s) rig.reporter.submit(batch_of(s));
  EXPECT_EQ(rig.reporter.backlog(), 100u);
  rig.sim.run_until(util::milliseconds(5));
  // Only the window's worth has been transmitted.
  EXPECT_LE(rig.reporter.segments_sent(), 32u);
}

TEST(ReliableReporter, OrderedDeliveryPerSwitchIsNotRequired) {
  // Loss reorders arrival; the store still ends with every event exactly
  // once.
  Rig rig(/*loss=*/0.4);
  for (std::uint16_t s = 0; s < 30; ++s) rig.reporter.submit(batch_of(s));
  rig.sim.run_until(util::seconds(10));
  EXPECT_EQ(rig.store.size(), 30u);
  // Each flow present exactly once.
  for (std::uint16_t s = 0; s < 30; ++s) {
    backend::EventQuery query;
    query.flow = flow(s);
    EXPECT_EQ(store::scan_rows(rig.store, query).size(), 1u) << s;
  }
}

TEST(Collector, TracksDuplicates) {
  Rig rig(/*loss=*/0.6);
  rig.reporter.submit(batch_of(1));
  rig.sim.run_until(util::seconds(10));
  EXPECT_EQ(rig.collector.segments_received(),
            rig.collector.duplicate_segments() + 1);
}

TEST(Collector, MultipleReportersIsolated) {
  Rig rig;
  ReliableReporter second(rig.sim, rig.channel, /*self=*/2, /*backend=*/100);
  rig.channel.register_endpoint(2, [&](util::NodeId, const ReportMsg& msg) {
    second.on_message(msg);
  });
  rig.reporter.submit(batch_of(1));
  auto b = batch_of(2);
  b.switch_id = 2;
  second.submit(std::move(b));
  rig.sim.run();
  EXPECT_EQ(rig.store.size(), 2u);
}

TEST(ReliableReporter, PacingSpreadsSends) {
  sim::Simulator sim;
  ReportChannel channel(sim, util::Rng(7), util::milliseconds(1), 0.0);
  store::FlowEventStore store;
  backend::Collector collector(sim, 100, channel, store);
  ReliableReporterConfig config;
  config.pacing_rate = util::BitRate::kbps(100);  // very slow
  config.pacing_burst = 100;
  ReliableReporter reporter(sim, channel, 1, 100, config);
  channel.register_endpoint(1, [&](util::NodeId, const ReportMsg& msg) {
    reporter.on_message(msg);
  });
  for (std::uint16_t s = 0; s < 5; ++s) reporter.submit(batch_of(s, 10));
  sim.run_until(util::seconds(120));
  EXPECT_EQ(store.size(), 50u);
  // 5 segments of ~290 B at 100 kb/s: takes on the order of 100 ms.
  EXPECT_GT(sim.events_processed(), 10u);
}

}  // namespace
}  // namespace netseer::core
