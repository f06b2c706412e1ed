#include <gtest/gtest.h>

#include "core/cebp.h"
#include "core/event_stack.h"
#include "core/pcie.h"

namespace netseer::core {
namespace {

packet::FlowKey flow(std::uint16_t sport) {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, sport, 80};
}

FlowEvent ev(std::uint16_t sport) { return make_event(EventType::kDrop, flow(sport), 1, 0); }

TEST(EventStack, PushPopLifo) {
  EventStack stack(10);
  EXPECT_TRUE(stack.push(ev(1)));
  EXPECT_TRUE(stack.push(ev(2)));
  EXPECT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack.pop()->flow.sport, 2);
  EXPECT_EQ(stack.pop()->flow.sport, 1);
  EXPECT_FALSE(stack.pop().has_value());
}

TEST(EventStack, OverflowCountsAndRejects) {
  EventStack stack(2);
  EXPECT_TRUE(stack.push(ev(1)));
  EXPECT_TRUE(stack.push(ev(2)));
  EXPECT_FALSE(stack.push(ev(3)));
  EXPECT_EQ(stack.overflows(), 1u);
  EXPECT_EQ(stack.size(), 2u);
}

TEST(EventStack, HighWatermark) {
  EventStack stack(10);
  for (int i = 0; i < 5; ++i) (void)stack.push(ev(1));
  (void)stack.pop();
  (void)stack.pop();
  EXPECT_EQ(stack.high_watermark(), 5u);
}

struct BatchLog {
  std::vector<EventBatch> batches;
  CebpBatcher::Flush fn() {
    return [this](EventBatch&& b) { batches.push_back(std::move(b)); };
  }
  [[nodiscard]] std::size_t total_events() const {
    std::size_t total = 0;
    for (const auto& b : batches) total += b.events.size();
    return total;
  }
};

CebpConfig small_cebp() {
  CebpConfig config;
  config.num_cebps = 2;
  config.batch_size = 5;
  config.recirc_latency = util::nanoseconds(400);
  config.flush_latency = util::microseconds(2);
  return config;
}

TEST(CebpBatcher, CollectsAndFlushesFullBatch) {
  sim::Simulator sim;
  EventStack stack(100);
  BatchLog log;
  CebpConfig config = small_cebp();
  config.num_cebps = 1;  // single collector -> a single full batch
  CebpBatcher batcher(sim, 7, stack, config, log.fn());

  for (std::uint16_t i = 0; i < 5; ++i) {
    (void)stack.push(ev(i));
    batcher.notify();
  }
  sim.run();
  ASSERT_EQ(log.batches.size(), 1u);
  EXPECT_EQ(log.batches[0].events.size(), 5u);
  EXPECT_EQ(log.batches[0].switch_id, 7u);
  EXPECT_TRUE(stack.empty());
}

TEST(CebpBatcher, PartialFlushWhenStackDrains) {
  sim::Simulator sim;
  EventStack stack(100);
  BatchLog log;
  CebpBatcher batcher(sim, 7, stack, small_cebp(), log.fn());

  (void)stack.push(ev(1));
  (void)stack.push(ev(2));
  batcher.notify();
  sim.run();
  // Fewer than batch_size events: flushed anyway once the stack is empty.
  EXPECT_EQ(log.total_events(), 2u);
}

TEST(CebpBatcher, ManyEventsAllDelivered) {
  sim::Simulator sim;
  EventStack stack(10000);
  BatchLog log;
  CebpBatcher batcher(sim, 7, stack, small_cebp(), log.fn());

  for (std::uint16_t i = 0; i < 1000; ++i) {
    (void)stack.push(ev(i));
    batcher.notify();
  }
  sim.run();
  EXPECT_EQ(log.total_events(), 1000u);
  EXPECT_EQ(stack.size(), 0u);
  // Mostly full batches.
  EXPECT_GE(log.batches.size(), 200u);
}

TEST(CebpBatcher, BatchSeqIncrements) {
  sim::Simulator sim;
  EventStack stack(100);
  BatchLog log;
  CebpBatcher batcher(sim, 7, stack, small_cebp(), log.fn());
  for (std::uint16_t i = 0; i < 20; ++i) {
    (void)stack.push(ev(i));
    batcher.notify();
  }
  sim.run();
  ASSERT_GE(log.batches.size(), 2u);
  for (std::size_t i = 0; i < log.batches.size(); ++i) {
    EXPECT_EQ(log.batches[i].seq, i);
  }
}

TEST(CebpBatcher, WakesAgainAfterIdle) {
  sim::Simulator sim;
  EventStack stack(100);
  BatchLog log;
  CebpBatcher batcher(sim, 7, stack, small_cebp(), log.fn());

  (void)stack.push(ev(1));
  batcher.notify();
  sim.run();
  EXPECT_EQ(log.total_events(), 1u);

  (void)stack.push(ev(2));
  batcher.notify();
  sim.run();
  EXPECT_EQ(log.total_events(), 2u);
}

TEST(CebpBatcher, FlushAllEmitsPartials) {
  sim::Simulator sim;
  EventStack stack(100);
  BatchLog log;
  CebpConfig config = small_cebp();  // batches of 5
  config.num_cebps = 1;
  CebpBatcher batcher(sim, 7, stack, config, log.fn());
  (void)stack.push(ev(1));
  // Let one pop happen, so ev(1) sits in the CEBP's payload; then leave
  // twelve more on the stack.
  batcher.notify();
  sim.run_until(util::nanoseconds(500));  // one recirculation: popped, not flushed yet
  for (std::uint16_t sport = 2; sport <= 13; ++sport) (void)stack.push(ev(sport));

  batcher.flush_all();
  EXPECT_TRUE(stack.empty());
  // Full batches off the stack, its remainder, then the CEBP's partial
  // payload: each its own batch, numbered in order.
  ASSERT_EQ(log.batches.size(), 4u);
  const std::size_t sizes[] = {5, 5, 2, 1};
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(log.batches[i].events.size(), sizes[i]);
    EXPECT_EQ(log.batches[i].seq, i);
  }
  EXPECT_EQ(log.batches[0].events[0].flow.sport, 13);  // stack order
  EXPECT_EQ(log.batches[3].events[0].flow.sport, 1);
  EXPECT_EQ(log.total_events(), 13u);
  EXPECT_EQ(batcher.batches_flushed(), 4u);
  EXPECT_EQ(batcher.events_batched(), 13u);
}

TEST(PcieChannel, DeliversBatches) {
  sim::Simulator sim;
  std::vector<EventBatch> delivered;
  PcieChannel pcie(sim, PcieConfig{}, [&](EventBatch&& b) { delivered.push_back(std::move(b)); });

  EventBatch batch;
  batch.switch_id = 3;
  batch.events.push_back(ev(1));
  pcie.submit(std::move(batch));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].switch_id, 3u);
  EXPECT_EQ(pcie.batches_delivered(), 1u);
}

TEST(PcieChannel, ServiceTimeScalesWithEvents) {
  const PcieConfig config;
  EXPECT_LT(PcieChannel::service_time(config, 1), PcieChannel::service_time(config, 50));
}

TEST(PcieChannel, ThroughputImprovesWithBatchSize) {
  const PcieConfig config;
  const double small = PcieChannel::throughput_eps(config, 1);
  const double large = PcieChannel::throughput_eps(config, 50);
  EXPECT_GT(large, small * 2);
}

TEST(PcieChannel, TwoCoresBeatOne) {
  PcieConfig one;
  one.cpu_cores = 1;
  PcieConfig two;
  two.cpu_cores = 2;
  EXPECT_GT(PcieChannel::throughput_eps(two, 50), PcieChannel::throughput_eps(one, 50));
}

TEST(PcieChannel, PhysicalBandwidthCapsLargeBatches) {
  PcieConfig config;
  config.per_packet_cost = 0;
  config.per_event_cost = 0;
  // Pure wire limit: eps = bw / (24 B/event).
  const double eps = PcieChannel::throughput_eps(config, 1000);
  const double expected = config.phys_bandwidth.gbps_value() * 1e9 / (24.25 * 8);
  EXPECT_NEAR(eps / expected, 1.0, 0.05);
}

TEST(PcieChannel, BacklogTracksQueue) {
  sim::Simulator sim;
  int delivered = 0;
  PcieChannel pcie(sim, PcieConfig{}, [&](EventBatch&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    EventBatch batch;
    batch.events.push_back(ev(1));
    pcie.submit(std::move(batch));
  }
  EXPECT_GT(pcie.backlog(), 0u);
  sim.run();
  EXPECT_EQ(pcie.backlog(), 0u);
  EXPECT_EQ(delivered, 10);
}

}  // namespace
}  // namespace netseer::core
