// The operator query (EventQuery) and the batch-first EventSink contract,
// exercised on the store behind the collector: an in-memory
// store::FlowEventStore.
#include <gtest/gtest.h>

#include "backend/event_query.h"
#include "scan_rows.h"
#include "store/store.h"

namespace netseer::backend {
namespace {

using core::EventType;
using core::FlowEvent;
using core::make_event;
using packet::FlowKey;
using packet::Ipv4Addr;
using store::scan_rows;

FlowKey flow(std::uint16_t sport) {
  return FlowKey{Ipv4Addr::from_octets(10, 0, 0, 1), Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                 sport, 80};
}

FlowEvent ev(EventType type, std::uint16_t sport, util::NodeId sw, util::SimTime at) {
  auto event = make_event(type, flow(sport), sw, at);
  return event;
}

class EventStoreTest : public ::testing::Test {
 protected:
  EventStoreTest() {
    store.add(ev(EventType::kDrop, 1, 10, util::seconds(1)), util::seconds(1));
    store.add(ev(EventType::kDrop, 2, 10, util::seconds(2)), util::seconds(2));
    store.add(ev(EventType::kCongestion, 1, 20, util::seconds(3)), util::seconds(3));
    store.add(ev(EventType::kPause, 3, 20, util::seconds(4)), util::seconds(4));
  }
  store::FlowEventStore store;
};

TEST_F(EventStoreTest, QueryAll) {
  EXPECT_EQ(scan_rows(store).size(), 4u);
  EXPECT_EQ(store.size(), 4u);
}

TEST_F(EventStoreTest, QueryByFlow) {
  EventQuery query;
  query.flow = flow(1);
  const auto results = scan_rows(store, query);
  ASSERT_EQ(results.size(), 2u);  // drop at sw10 + congestion at sw20
  for (const auto& r : results) EXPECT_EQ(r.event.flow, flow(1));
}

TEST_F(EventStoreTest, QueryByDevice) {
  EventQuery query;
  query.switch_id = 20;
  EXPECT_EQ(scan_rows(store, query).size(), 2u);
}

TEST_F(EventStoreTest, QueryByType) {
  EventQuery query;
  query.type = EventType::kDrop;
  EXPECT_EQ(scan_rows(store, query).size(), 2u);
}

TEST_F(EventStoreTest, QueryByPeriod) {
  EventQuery query;
  query.from = util::seconds(2);
  query.to = util::seconds(4);
  EXPECT_EQ(scan_rows(store, query).size(), 2u);  // t=2 and t=3; t=4 excluded
}

TEST_F(EventStoreTest, CombinedQuery) {
  EventQuery query;
  query.flow = flow(1);
  query.type = EventType::kCongestion;
  const auto results = scan_rows(store, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].event.switch_id, 20u);
}

TEST_F(EventStoreTest, QueryUnknownFlowEmpty) {
  EventQuery query;
  query.flow = flow(99);
  EXPECT_TRUE(scan_rows(store, query).empty());
}

// The batch-first sink contract: add_batch applies in span order after
// everything already added, add() is literally a one-element batch, and
// every row of a batch shares the batch's arrival stamp.
TEST_F(EventStoreTest, AddBatchAppliesInOrderAndIndexes) {
  const FlowEvent batch[] = {
      ev(EventType::kDrop, 9, 40, util::seconds(5)),
      ev(EventType::kCongestion, 9, 40, util::seconds(6)),
      ev(EventType::kDrop, 10, 41, util::seconds(7)),
  };
  store.add_batch({batch, 3}, util::seconds(8));
  EXPECT_EQ(store.size(), 7u);
  const auto rows = scan_rows(store);
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[4].event, batch[0]);
  EXPECT_EQ(rows[5].event, batch[1]);
  EXPECT_EQ(rows[6].event, batch[2]);
  EXPECT_EQ(rows[4].stored_at, util::seconds(8));
  EXPECT_EQ(rows[6].stored_at, util::seconds(8));
  // Once flushed, the batch is reachable through the row-chain indexes.
  store.flush();
  EventQuery by_flow;
  by_flow.flow = flow(9);
  EXPECT_EQ(scan_rows(store, by_flow).size(), 2u);
  EventQuery by_switch;
  by_switch.switch_id = 41;
  EXPECT_EQ(scan_rows(store, by_switch).size(), 1u);
}

// An in-memory store's watermark is its last flushed LSN: rows still in
// shard buffers have no LSN yet, and a flush covers all of them.
TEST_F(EventStoreTest, DurableWatermarkTracksAppliedCount) {
  EXPECT_EQ(store.durable_watermark(), 0u);
  store.flush();
  EXPECT_EQ(store.durable_watermark(), 4u);
  const FlowEvent batch[] = {
      ev(EventType::kDrop, 11, 50, util::seconds(9)),
      ev(EventType::kPause, 12, 50, util::seconds(10)),
  };
  store.add_batch({batch, 2}, util::seconds(10));
  EXPECT_EQ(store.durable_watermark(), 4u);
  store.flush();
  EXPECT_EQ(store.durable_watermark(), 6u);
  store.add(ev(EventType::kDrop, 13, 51, util::seconds(11)), util::seconds(11));
  store.flush();
  EXPECT_EQ(store.durable_watermark(), 7u);
}

TEST_F(EventStoreTest, EmptyBatchIsANoOp) {
  store.flush();
  const auto generation = store.generation();
  store.add_batch({}, util::seconds(12));
  EXPECT_EQ(store.generation(), generation);  // open cursors stay valid
  EXPECT_EQ(store.size(), 4u);
  store.flush();
  EXPECT_EQ(store.durable_watermark(), 4u);
}

}  // namespace
}  // namespace netseer::backend
