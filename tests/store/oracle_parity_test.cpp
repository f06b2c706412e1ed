// EventQuery parity. The same event stream goes into a plain vector (the
// oracle, answered by filtering every row with EventQuery::matches) and
// into store::FlowEventStore, and every query shape must return identical
// results — element for element, in the same order — in every lifecycle
// state: with rows still in shard buffers, after sealing, after
// compaction, after a durable round trip through segment files, and after
// a reopen that replays every row out of the WAL into the memtable.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "backend/event_query.h"
#include "core/event.h"
#include "scan_rows.h"
#include "store/store.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kEvents = 2000;

struct Gen {
  std::uint64_t state = 99;
  std::uint64_t rnd() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  core::FlowEvent next(std::uint64_t i) {
    const auto r = rnd();
    // ~40 distinct flows so flow queries hit many rows.
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, (r % 8) + 1),
                         packet::Ipv4Addr::from_octets(10, 9, 9, 9), 6,
                         static_cast<std::uint16_t>(5000 + (r % 5)), 443};
    auto ev = core::make_event(static_cast<core::EventType>(1 + r % 5), flow,
                               static_cast<util::NodeId>(r % 4),
                               static_cast<util::SimTime>(i * 10 + r % 7));
    ev.counter = static_cast<std::uint16_t>(1 + (r % 20));
    return ev;
  }
};

std::vector<backend::EventQuery> query_shapes() {
  const auto flow = Gen{}.next(0).flow;  // a flow guaranteed to exist
  packet::FlowKey absent = flow;
  absent.dport = 1;  // and one guaranteed not to

  std::vector<backend::EventQuery> shapes;
  shapes.emplace_back();  // match-all
  {
    backend::EventQuery q;
    q.flow = flow;
    shapes.push_back(q);
    q.type = core::EventType::kCongestion;
    shapes.push_back(q);  // flow + type
    q.from = 4000;
    q.to = 12000;
    shapes.push_back(q);  // flow + type + window
  }
  {
    backend::EventQuery q;
    q.flow = absent;
    shapes.push_back(q);
  }
  for (const auto type : {core::EventType::kDrop, core::EventType::kPause}) {
    backend::EventQuery q;
    q.type = type;
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;
    q.switch_id = 2;
    shapes.push_back(q);
    q.type = core::EventType::kPathChange;
    q.from = 1000;
    q.to = 15000;
    shapes.push_back(q);  // switch + type + window
  }
  {
    backend::EventQuery q;  // window only, mid-stream
    q.from = 7000;
    q.to = 7500;
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;  // empty range: to == from
    q.from = 5000;
    q.to = 5000;
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;  // empty range: past the last event
    q.from = static_cast<util::SimTime>(kEvents * 10 + 100);
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;  // unbounded from / unbounded to
    q.to = 3000;
    shapes.push_back(q);
    backend::EventQuery r;
    r.from = static_cast<util::SimTime>(kEvents * 10 - 2000);
    shapes.push_back(r);
  }
  return shapes;
}

/// Every row the oracle holds, in insertion order, that `query` matches.
std::vector<backend::StoredEvent> filter(const std::vector<backend::StoredEvent>& oracle,
                                         const backend::EventQuery& query) {
  std::vector<backend::StoredEvent> out;
  std::copy_if(oracle.begin(), oracle.end(), std::back_inserter(out),
               [&](const backend::StoredEvent& row) { return query.matches(row); });
  return out;
}

void expect_parity(const std::vector<backend::StoredEvent>& oracle, const FlowEventStore& fstore,
                   const std::string& state) {
  ASSERT_EQ(oracle.size(), fstore.size()) << state;
  std::size_t shape_idx = 0;
  for (const auto& query : query_shapes()) {
    SCOPED_TRACE(state + ", query shape #" + std::to_string(shape_idx++));
    const auto want = filter(oracle, query);
    const auto got = scan_rows(fstore, query);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].event, want[i].event) << "row " << i;
      ASSERT_EQ(got[i].stored_at, want[i].stored_at) << "row " << i;
    }
  }
}

// shard_batch = 1 keeps the store's LSN order identical to the oracle's
// insertion order, so parity is exact element-for-element equality.
StoreOptions parity_options() {
  StoreOptions options;
  options.shard_batch = 1;
  options.segment_events = 128;
  options.compact_min_segments = 4;
  options.compact_fanin = 4;
  return options;
}

TEST(QueryParity, MatchesOracleAcrossLifecycleStates) {
  std::vector<backend::StoredEvent> oracle;
  FlowEventStore fstore(parity_options());
  Gen gen;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto ev = gen.next(i);
    oracle.push_back({ev, ev.detected_at + 1});
    fstore.add(ev, ev.detected_at + 1);
  }
  // Mixed state: sealed segments plus a memtable remainder.
  expect_parity(oracle, fstore, "mixed segments+memtable");

  fstore.seal_active();
  expect_parity(oracle, fstore, "fully sealed");

  ASSERT_GT(fstore.compact(), 0u);
  expect_parity(oracle, fstore, "compacted");
}

TEST(QueryParity, MatchesOracleThroughDurableReopen) {
  const auto dir = (fs::temp_directory_path() / "netseer_oracle_parity_test").string();
  fs::remove_all(dir);
  std::vector<backend::StoredEvent> oracle;
  {
    auto options = parity_options();
    options.dir = dir;
    FlowEventStore fstore(options);
    Gen gen;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto ev = gen.next(i);
      oracle.push_back({ev, ev.detected_at + 1});
      fstore.add(ev, ev.detected_at + 1);
    }
    fstore.checkpoint();
    expect_parity(oracle, fstore, "durable, pre-close");
  }
  auto options = parity_options();
  options.dir = dir;
  FlowEventStore reopened(options);
  expect_parity(oracle, reopened, "durable, reopened");
  fs::remove_all(dir);
}

TEST(QueryParity, MatchesOracleThroughWalReplay) {
  const auto dir = (fs::temp_directory_path() / "netseer_oracle_parity_wal_test").string();
  fs::remove_all(dir);
  std::vector<backend::StoredEvent> oracle;
  auto options = parity_options();
  options.dir = dir;
  {
    FlowEventStore fstore(options);
    Gen gen;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto ev = gen.next(i);
      oracle.push_back({ev, ev.detected_at + 1});
      fstore.add(ev, ev.detected_at + 1);
    }
    // No checkpoint: the segments sealed so far were never persisted,
    // so the WAL alone holds the rows when the store closes.
  }
  FlowEventStore reopened(options);
  ASSERT_EQ(reopened.recovery().wal_rows_replayed, kEvents);
  ASSERT_EQ(reopened.segment_count(), 0u);
  expect_parity(oracle, reopened, "durable, reopened without checkpoint");
  fs::remove_all(dir);
}

// With real shard batching the LSN order differs from insertion order,
// but the *set* of results must still agree for every query shape.
TEST(QueryParity, BatchedShardsAgreeAsMultisets) {
  std::vector<backend::StoredEvent> oracle;
  auto options = parity_options();
  options.shard_batch = 16;
  FlowEventStore fstore(options);
  Gen gen;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto ev = gen.next(i);
    oracle.push_back({ev, ev.detected_at + 1});
    fstore.add(ev, ev.detected_at + 1);
  }
  const auto sort_key = [](const backend::StoredEvent& a, const backend::StoredEvent& b) {
    if (a.event.detected_at != b.event.detected_at) {
      return a.event.detected_at < b.event.detected_at;
    }
    if (a.event.switch_id != b.event.switch_id) return a.event.switch_id < b.event.switch_id;
    return a.event.flow.hash64() < b.event.flow.hash64();
  };
  std::size_t shape_idx = 0;
  for (const auto& query : query_shapes()) {
    SCOPED_TRACE("query shape #" + std::to_string(shape_idx++));
    auto want = filter(oracle, query);
    auto got = scan_rows(fstore, query);
    ASSERT_EQ(got.size(), want.size());
    std::sort(want.begin(), want.end(), sort_key);
    std::sort(got.begin(), got.end(), sort_key);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].event, want[i].event) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace netseer::store
