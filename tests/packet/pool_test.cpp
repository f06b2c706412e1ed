// packet::Pool recycling semantics: content integrity through acquire
// and moving the frame out of its handle, LIFO slot reuse, move-only
// handle ownership, and the accounting the pool.hit_rate telemetry gauge
// is built from. The churn loop is the ASan canary for use-after-release
// bugs, and under ASan a read through a released handle must die.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "packet/packet.h"
#include "packet/pool.h"

namespace netseer::packet {
namespace {

Packet make_packet(std::uint64_t uid) {
  Packet pkt;
  pkt.uid = uid;
  pkt.ip = Ipv4Header{};
  pkt.ip->ttl = 17;
  pkt.l4.sport = 4242;
  pkt.l4.dport = 80;
  pkt.payload_bytes = 999;
  return pkt;
}

TEST(Pool, AcquireParksAndTakeMovesContentOut) {
  Pool pool;
  auto slot = pool.acquire(make_packet(55));
  ASSERT_TRUE(slot);
  EXPECT_EQ(slot->uid, 55u);
  EXPECT_EQ(slot->payload_bytes, 999u);

  const Packet out = std::move(*slot);
  EXPECT_EQ(out.uid, 55u);
  ASSERT_TRUE(out.ip.has_value());
  EXPECT_EQ(out.ip->ttl, 17);
  EXPECT_EQ(out.l4.sport, 4242);
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.slots(), 1u);
}

TEST(Pool, ReleasedSlotIsReusedNotGrown) {
  Pool pool;
  {
    auto slot = pool.acquire(make_packet(1));
    EXPECT_EQ(pool.free_slots(), 0u);
  }  // handle death returns the slot
  EXPECT_EQ(pool.free_slots(), 1u);

  auto again = pool.acquire(make_packet(2));
  EXPECT_EQ(again->uid, 2u);
  EXPECT_EQ(pool.slots(), 1u);  // same slot, no new materialization
  EXPECT_EQ(pool.acquires(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.free_slots(), 0u);
}

TEST(Pool, ResetReturnsSlotEarly) {
  Pool pool;
  auto slot = pool.acquire(make_packet(9));
  slot.reset();
  EXPECT_FALSE(slot);
  EXPECT_EQ(pool.free_slots(), 1u);
  slot.reset();  // idempotent: a dead handle stays dead
  EXPECT_EQ(pool.free_slots(), 1u);
}

TEST(Pool, MoveTransfersOwnershipWithoutDoubleRelease) {
  Pool pool;
  auto first = pool.acquire(make_packet(3));
  PooledPacket second = std::move(first);
  EXPECT_FALSE(first);  // NOLINT(bugprone-use-after-move) — asserting the hollow state
  ASSERT_TRUE(second);
  EXPECT_EQ(second->uid, 3u);

  // Move-assign over a live handle releases the overwritten slot once.
  auto third = pool.acquire(make_packet(4));
  EXPECT_EQ(pool.slots(), 2u);
  second = std::move(third);
  EXPECT_EQ(pool.free_slots(), 1u);  // slot for uid 3 came back
  EXPECT_EQ(second->uid, 4u);
  second.reset();
  EXPECT_EQ(pool.free_slots(), 2u);
}

TEST(Pool, SteadyStateChurnStaysInOneSlot) {
  // Acquire, move the frame out, release, re-acquire, repeat.
  // Under ASan this walks the same slot thousands of times and trips on
  // any use-after-release; slot count proves the allocator stayed cold.
  Pool pool;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    auto slot = pool.acquire(make_packet(i));
    Packet pkt = std::move(*slot);
    EXPECT_EQ(pkt.uid, i);
    slot.reset();
    pool.acquire(std::move(pkt)).reset();  // immediate round-trip back in
  }
  EXPECT_EQ(pool.slots(), 1u);
  EXPECT_EQ(pool.acquires(), 20000u);
  EXPECT_EQ(pool.reuses(), 19999u);
}

TEST(Pool, InFlightPopulationGrowsChunkwise) {
  Pool pool;
  std::vector<PooledPacket> in_flight;
  for (std::uint64_t i = 0; i < Pool::kChunkPackets + 1; ++i) {
    in_flight.push_back(pool.acquire(make_packet(i)));
  }
  EXPECT_EQ(pool.slots(), Pool::kChunkPackets + 1);
  for (std::uint64_t i = 0; i < in_flight.size(); ++i) {
    EXPECT_EQ(in_flight[i]->uid, i);  // chunk growth must not move slots
  }
  in_flight.clear();
  EXPECT_EQ(pool.free_slots(), Pool::kChunkPackets + 1);
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

TEST(PoolDeathTest, ReadingAReleasedFrameDiesUnderAsan) {
  if (!kAsan) GTEST_SKIP() << "free slots are poisoned only under AddressSanitizer";
  Pool pool;
  auto slot = pool.acquire(make_packet(7));
  const Packet* stale = &*slot;
  slot.reset();
  EXPECT_DEATH(
      {
        volatile std::uint64_t uid = stale->uid;
        (void)uid;
      },
      "use-after-poison");
  // A re-acquired slot is readable again.
  auto again = pool.acquire(make_packet(8));
  EXPECT_EQ(&*again, stale);
  EXPECT_EQ(again->uid, 8u);
}

}  // namespace
}  // namespace netseer::packet
