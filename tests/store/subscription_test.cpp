// Subscription semantics: a tailer must see every matching row exactly
// once, in LSN order, no matter how the rows migrate underneath it —
// shard buffer -> memtable flush -> sealed segment -> compacted segment
// -> (possibly) evicted by retention. Eviction converts missed rows
// into lag, never into blocking: the store side has no wait on
// subscribers at all, which is the backpressure contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "scan_rows.h"
#include "store/store.h"
#include "store/subscription.h"

namespace netseer::store {
namespace {

namespace stdfs = std::filesystem;

core::FlowEvent tail_event(std::uint64_t i) {
  std::uint64_t r = (i + 1) * 0xD1B54A32D192ED03ull;
  r ^= r >> 32;
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(172, 16, (r >> 8) & 3, 1),
                       packet::Ipv4Addr::from_octets(172, 16, 9, 9), 17,
                       static_cast<std::uint16_t>(2048 + (r & 127)), 4789};
  auto ev = core::make_event(
      r % 3 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
      static_cast<util::NodeId>(r % 4), static_cast<util::SimTime>(i * 50));
  ev.counter = static_cast<std::uint16_t>(1 + (r % 11));
  return ev;
}

struct Delivery {
  std::uint64_t lsn;
  backend::StoredEvent row;
};

std::size_t drain(Subscription& sub, std::vector<Delivery>* out,
                  std::size_t max_rows = SIZE_MAX) {
  return sub.poll(
      [out](const backend::StoredEvent& stored, std::uint64_t lsn) {
        out->push_back({lsn, stored});
      },
      max_rows);
}

TEST(SubscriptionTest, ExactlyOnceAcrossFlushSealAndCompaction) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 32;     // seals often
  options.compact_min_segments = 3;  // compacts often
  options.compact_fanin = 3;
  FlowEventStore fs(options);

  // Control: same stream into a second in-memory store that never
  // seals or compacts mid-test — a full scan is the canonical LSN order.
  StoreOptions flat;
  flat.shard_batch = 8;
  FlowEventStore control(flat);

  auto sub = fs.subscribe();
  std::vector<Delivery> deliveries;
  constexpr std::uint64_t kEvents = 500;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto ev = tail_event(i);
    fs.add(ev, ev.detected_at + 5);
    control.add(ev, ev.detected_at + 5);
    // Poll mid-stream while the store mutates around the cursor.
    if (i % 37 == 0) drain(sub, &deliveries);
    if (i % 120 == 60) fs.seal_active();
    if (i % 150 == 75) fs.maintain();  // compaction + retention round
  }
  fs.flush();
  control.flush();
  fs.checkpoint();  // seal + (in-memory: no-op persistence) one more churn
  while (drain(sub, &deliveries, 64) > 0) {
  }

  // Every LSN 1..N exactly once, ascending, with the control's payload.
  const auto reference = scan_rows(control);
  ASSERT_EQ(reference.size(), kEvents);
  ASSERT_EQ(deliveries.size(), kEvents);
  EXPECT_EQ(sub.delivered(), kEvents);
  EXPECT_EQ(sub.lagged(), 0u);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    ASSERT_EQ(deliveries[i].lsn, i + 1) << "hole or duplicate at row " << i;
    ASSERT_EQ(deliveries[i].row.event, reference[i].event) << "row " << i;
    ASSERT_EQ(deliveries[i].row.stored_at, reference[i].stored_at) << "row " << i;
  }
}

TEST(SubscriptionTest, RetentionEvictionBecomesLagNotBlocking) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 32;
  options.retain_events = 100;  // far less than the stream
  FlowEventStore fs(options);

  auto slow = fs.subscribe();  // never polled during ingest
  constexpr std::uint64_t kEvents = 600;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto ev = tail_event(i);
    fs.add(ev, ev.detected_at + 5);
    if (i % 64 == 0) fs.maintain();
  }
  fs.flush();
  fs.seal_active();
  fs.maintain();
  // Ingest finished without ever waiting on the subscriber; the stream
  // kept only the newest rows.
  EXPECT_GT(fs.stats().events_evicted, 0u);

  std::vector<Delivery> deliveries;
  while (drain(slow, &deliveries, 128) > 0) {
  }
  // Everything still retained arrives exactly once and in order; the
  // evicted prefix is accounted as lag, and together they cover the
  // whole stream.
  EXPECT_EQ(slow.delivered() + slow.lagged(), kEvents);
  EXPECT_EQ(slow.lagged(), fs.stats().events_evicted);
  EXPECT_GT(slow.lagged(), 0u);
  ASSERT_FALSE(deliveries.empty());
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    ASSERT_EQ(deliveries[i].lsn, deliveries[i - 1].lsn + 1);
  }
  EXPECT_EQ(deliveries.back().lsn, kEvents);
  EXPECT_EQ(slow.cursor_lsn(), kEvents);
}

TEST(SubscriptionTest, DurableStoreTailsTheWatermarkOnly) {
  const auto dir =
      (stdfs::temp_directory_path() / "netseer_subscription_durable_test").string();
  stdfs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.shard_batch = 16;
  options.sync_every_batch = false;  // group commit: acks via watermark
  FlowEventStore fs(options);

  std::vector<core::FlowEvent> batch;
  for (std::uint64_t i = 0; i < 200; ++i) batch.push_back(tail_event(i));
  fs.add_batch(std::span<const core::FlowEvent>{batch.data(), batch.size()}, 123);

  auto sub = fs.subscribe();
  std::vector<Delivery> deliveries;
  while (drain(sub, &deliveries, 64) > 0) {
  }
  // Whatever the subscription saw is covered by the durable watermark
  // at the time of the poll — never rows the WAL hasn't acknowledged.
  EXPECT_LE(sub.cursor_lsn(), fs.durable_watermark());

  ASSERT_TRUE(fs.sync());
  EXPECT_EQ(fs.durable_watermark(), 200u);
  while (drain(sub, &deliveries, 64) > 0) {
  }
  EXPECT_EQ(deliveries.size(), 200u);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    ASSERT_EQ(deliveries[i].lsn, i + 1);
  }
  stdfs::remove_all(dir);
}

TEST(SubscriptionTest, FilteredSubscriptionStillAdvancesPastNonMatches) {
  StoreOptions options;
  options.shard_batch = 8;
  FlowEventStore fs(options);
  auto sub = fs.subscribe(backend::EventQuery{}.of_type(core::EventType::kCongestion));

  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto ev = tail_event(i);
    if (ev.type == core::EventType::kCongestion) ++expected;
    fs.add(ev, ev.detected_at + 5);
  }
  fs.flush();

  std::vector<Delivery> deliveries;
  while (drain(sub, &deliveries, 32) > 0) {
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(deliveries.size(), expected);
  for (const auto& d : deliveries) {
    EXPECT_EQ(d.row.event.type, core::EventType::kCongestion);
  }
  // The cursor still consumed the whole stream (non-matches are
  // consumed, not re-scanned next poll), and none of it counts as lag.
  EXPECT_EQ(sub.cursor_lsn(), 300u);
  EXPECT_EQ(sub.lagged(), 0u);
  EXPECT_EQ(drain(sub, &deliveries), 0u);
}

TEST(SubscriptionTest, FromLsnResumesMidStream) {
  StoreOptions options;
  options.shard_batch = 8;
  FlowEventStore fs(options);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto ev = tail_event(i);
    fs.add(ev, ev.detected_at + 5);
  }
  fs.flush();

  auto sub = fs.subscribe(backend::EventQuery{}, 60);  // rows with LSN > 60
  std::vector<Delivery> deliveries;
  while (drain(sub, &deliveries, 16) > 0) {
  }
  ASSERT_EQ(deliveries.size(), 40u);
  EXPECT_EQ(deliveries.front().lsn, 61u);
  EXPECT_EQ(deliveries.back().lsn, 100u);
  EXPECT_EQ(sub.lagged(), 0u);
}

TEST(SubscriptionTest, LastLsnSurvivesStoreCloseAndReopen) {
  // The resume contract consumers like the detection service rely on:
  // checkpoint last_lsn(), close the store, reopen it, and subscribe
  // from that LSN — the union of the two tails is every row exactly
  // once: nothing redelivered, nothing missed.
  const auto dir =
      (stdfs::temp_directory_path() / "netseer_subscription_reopen_test").string();
  stdfs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.shard_batch = 16;

  constexpr std::uint64_t kFirst = 120;
  constexpr std::uint64_t kSecond = 80;
  std::vector<Delivery> deliveries;
  std::uint64_t resume_lsn = 0;
  {
    FlowEventStore fs(options);
    auto sub = fs.subscribe();
    for (std::uint64_t i = 0; i < kFirst; ++i) {
      const auto ev = tail_event(i);
      fs.add(ev, ev.detected_at + 5);
    }
    fs.flush();
    ASSERT_TRUE(fs.sync());
    while (drain(sub, &deliveries, 32) > 0) {
    }
    EXPECT_EQ(sub.last_lsn(), sub.cursor_lsn());
    EXPECT_EQ(sub.last_lsn(), kFirst);
    resume_lsn = sub.last_lsn();  // what a checkpoint would persist
  }

  {
    // Rows land while no subscriber exists (a restart window).
    FlowEventStore fs(options);
    for (std::uint64_t i = kFirst; i < kFirst + kSecond; ++i) {
      const auto ev = tail_event(i);
      fs.add(ev, ev.detected_at + 5);
    }
    fs.flush();
    ASSERT_TRUE(fs.sync());
  }

  FlowEventStore fs(options);
  auto sub = fs.subscribe(backend::EventQuery{}, resume_lsn);
  while (drain(sub, &deliveries, 32) > 0) {
  }
  // Nothing redelivered, nothing missed: LSNs 1..kFirst+kSecond, once.
  ASSERT_EQ(deliveries.size(), kFirst + kSecond);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    ASSERT_EQ(deliveries[i].lsn, i + 1);
  }
  EXPECT_EQ(sub.last_lsn(), kFirst + kSecond);
  EXPECT_EQ(sub.lagged(), 0u);
  stdfs::remove_all(dir);
}

TEST(SubscriptionTest, PollAccountingLandsInStoreStats) {
  FlowEventStore fs;
  auto sub = fs.subscribe();
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto ev = tail_event(i);
    fs.add(ev, ev.detected_at + 5);
  }
  fs.flush();
  std::vector<Delivery> deliveries;
  while (drain(sub, &deliveries, 10) > 0) {
  }
  EXPECT_GE(fs.stats().subscription_polls, 5u);
  EXPECT_EQ(fs.stats().subscription_rows, 50u);
  EXPECT_EQ(fs.stats().subscription_lagged_rows, 0u);
}

}  // namespace
}  // namespace netseer::store
