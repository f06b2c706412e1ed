#include "mc/harnesses.h"

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/spsc.h"

namespace netseer::mc {
namespace {

// ---------------------------------------------------------------------------
// SPSC ring harnesses
// ---------------------------------------------------------------------------

/// Single-threaded semantics every schedule shares: wraparound through a
/// full cycle, full-ring rejection WITHOUT consuming the value, and
/// empty-ring pop rejection.
Result spsc_serial(const Options& options) {
  return explore(options, [] {
    sim::SpscRing<int> ring(2);
    MC_ASSERT(ring.capacity() == 2);
    int v = 1;
    MC_ASSERT(ring.try_push(v));
    v = 2;
    MC_ASSERT(ring.try_push(v));
    MC_ASSERT(ring.full());
    v = 3;
    MC_ASSERT(!ring.try_push(v));
    MC_ASSERT(v == 3);  // rejected push must not consume the value
    int out = 0;
    MC_ASSERT(ring.try_pop(out) && out == 1);
    MC_ASSERT(ring.try_push(v));  // tail wraps past the capacity boundary
    MC_ASSERT(ring.try_pop(out) && out == 2);
    MC_ASSERT(ring.try_pop(out) && out == 3);
    MC_ASSERT(!ring.try_pop(out));
    MC_ASSERT(ring.empty());
  });
}

/// Producer and consumer hand 3 values through a capacity-2 ring — enough
/// to wrap the indices past the ring's end — and every interleaving must
/// preserve FIFO order, lose nothing, duplicate nothing, and keep the
/// instrumented slot cells race-free (the release/acquire index protocol
/// is what makes them so). Three values is the sweet spot: four explodes
/// the schedule space past 100k without covering new protocol states.
Result spsc_handoff(const Options& options) {
  return explore(options, [] {
    sim::SpscRing<int> ring(2);
    constexpr int kN = 3;
    Thread producer = spawn([&] {
      for (int i = 1; i <= kN; ++i) {
        await([&] { return !ring.full(); });
        int value = i * 10;
        MC_ASSERT(ring.try_push(value));
      }
    });
    Thread consumer = spawn([&] {
      for (int i = 1; i <= kN; ++i) {
        await([&] { return !ring.empty(); });
        int out = 0;
        MC_ASSERT(ring.try_pop(out));
        MC_ASSERT(out == i * 10);
      }
    });
    producer.join();
    consumer.join();
    MC_ASSERT(ring.empty());
  });
}

/// SpscRing with the publish fence deliberately removed: the tail store
/// is relaxed, so nothing orders the producer's slot write before the
/// consumer's slot read. The checker must catch this as a data race on
/// the slot cell — the seeded bug that proves the race machinery works.
template <typename T>
class RelaxedTailRing {
 public:
  explicit RelaxedTailRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  [[nodiscard]] bool try_push(T& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) return false;
    NETSEER_MC_WRITE(&slots_[tail & mask_], "RelaxedTailRing::slots_[tail]");
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_relaxed);  // BUG: should be release
    return true;
  }

  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    NETSEER_MC_WRITE(&slots_[head & mask_], "RelaxedTailRing::slots_[head]");
    out = std::move(slots_[head & mask_]);
    slots_[head & mask_] = T{};
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  Atomic<std::size_t> head_{0};
  Atomic<std::size_t> tail_{0};
};

Result spsc_seeded_relaxed(const Options& options) {
  return explore(options, [] {
    RelaxedTailRing<int> ring(2);
    Thread producer = spawn([&] {
      int value = 42;
      MC_ASSERT(ring.try_push(value));
    });
    Thread consumer = spawn([&] {
      await([&] { return !ring.empty(); });
      int out = 0;
      MC_ASSERT(ring.try_pop(out));
      MC_ASSERT(out == 42);
    });
    producer.join();
    consumer.join();
  });
}

// ---------------------------------------------------------------------------
// Group-commit writer / subscription miniatures
// ---------------------------------------------------------------------------

/// Miniature of store::GroupCommitWriter's acknowledgement protocol: the
/// ingest thread hands LSN'd batches through the REAL sim::SpscRing, the
/// writer thread drains whatever accumulated into a WAL image (plain
/// cells, race-instrumented) and publishes the durable watermark once
/// per drain round — the group "fsync". The ingest thread then syncs to
/// the last LSN and reads every row the watermark covers.
///
/// With `release_watermark` the publish is a release store, and every
/// schedule must leave those reads race-free, complete, and in LSN
/// order. With it relaxed (the seeded bug) nothing orders the writer's
/// WAL append before the syncing reader — the checker must catch the
/// data race on a WAL cell.
Result group_commit_run(const Options& options, bool release_watermark) {
  return explore(options, [&] {
    constexpr int kBatches = 2;  // 3 explodes the schedule count, covers nothing new
    sim::SpscRing<int> ring(2);
    std::array<int, kBatches + 1> wal{};
    Atomic<int> watermark{0};
    Thread writer = spawn([&] {
      int appended = 0;
      while (appended < kBatches) {
        await([&] { return !ring.empty(); });
        int lsn = 0;
        int last = 0;
        while (ring.try_pop(lsn)) {  // one commit group per drain round
          NETSEER_MC_WRITE(&wal[lsn], "group_commit::wal[lsn]");
          wal[lsn] = lsn * 10;
          last = lsn;
          ++appended;
        }
        watermark.store(last, release_watermark ? std::memory_order_release
                                                : std::memory_order_relaxed);
      }
    });
    Thread ingest = spawn([&] {
      for (int lsn = 1; lsn <= kBatches; ++lsn) {
        await([&] { return !ring.full(); });
        int value = lsn;
        MC_ASSERT(ring.try_push(value));
      }
      // sync_to(kBatches): the watermark is the only acknowledgement.
      await([&] { return watermark.load(std::memory_order_acquire) >= kBatches; });
      for (int lsn = 1; lsn <= kBatches; ++lsn) {
        NETSEER_MC_READ(&wal[lsn], "group_commit::wal[lsn]");
        MC_ASSERT(wal[lsn] == lsn * 10);  // acked rows are readable, in order
      }
    });
    writer.join();
    ingest.join();
    MC_ASSERT(ring.empty());
  });
}

/// Miniature of store::Subscription tailing the durable watermark: the
/// store thread appends rows and release-publishes the watermark in two
/// commit groups; the subscriber polls, delivering every row with
/// cursor < LSN <= watermark. Every schedule must deliver each row
/// exactly once, in LSN order, with the row contents visible (the
/// acquire load of the watermark is the only synchronization).
Result subscription_tail(const Options& options) {
  return explore(options, [] {
    constexpr int kRows = 3;
    std::array<int, kRows + 1> rows{};
    Atomic<int> watermark{0};
    Thread store = spawn([&] {
      for (int lsn = 1; lsn <= kRows; ++lsn) {
        NETSEER_MC_WRITE(&rows[lsn], "subscription::rows[lsn]");
        rows[lsn] = lsn * 10;
        // Two groups: rows 1-2 commit together, row 3 alone.
        if (lsn == 2 || lsn == kRows) watermark.store(lsn, std::memory_order_release);
      }
    });
    Thread subscriber = spawn([&] {
      int cursor = 0;
      std::array<bool, kRows + 1> seen{};
      while (cursor < kRows) {
        const int durable = watermark.load(std::memory_order_acquire);
        while (cursor < durable) {
          ++cursor;
          NETSEER_MC_READ(&rows[cursor], "subscription::rows[lsn]");
          MC_ASSERT(rows[cursor] == cursor * 10);
          MC_ASSERT(!seen[cursor]);  // exactly once
          seen[cursor] = true;
        }
        if (cursor < kRows) {
          await([&] { return watermark.load(std::memory_order_acquire) > cursor; });
        }
      }
      for (int lsn = 1; lsn <= kRows; ++lsn) MC_ASSERT(seen[lsn]);
    });
    store.join();
    subscriber.join();
  });
}

}  // namespace

const std::vector<Harness>& all_harnesses() {
  static const std::vector<Harness> harnesses = [] {
    std::vector<Harness> all;
    all.push_back(Harness{"spsc_serial",
                          "SpscRing wraparound, full/empty probes, reject-without-consume",
                          /*expect_failure=*/false, Options{}, spsc_serial});
    all.push_back(Harness{"spsc_handoff",
                          "SpscRing 3-value handoff through capacity 2: FIFO in every schedule",
                          /*expect_failure=*/false, Options{}, spsc_handoff});
    all.push_back(Harness{"spsc_seeded_relaxed",
                          "seeded bug: relaxed tail publish must be caught as a slot data race",
                          /*expect_failure=*/true, Options{}, spsc_seeded_relaxed});
    all.push_back(Harness{
        "group_commit_watermark",
        "group-commit ack protocol: release-published durable watermark makes synced "
        "WAL rows readable in every schedule",
        /*expect_failure=*/false, Options{},
        [](const Options& o) { return group_commit_run(o, /*release_watermark=*/true); }});
    all.push_back(Harness{
        "group_commit_seeded_relaxed",
        "seeded bug: a relaxed watermark publish must be caught as a WAL-cell data race",
        /*expect_failure=*/true, Options{},
        [](const Options& o) { return group_commit_run(o, /*release_watermark=*/false); }});
    all.push_back(Harness{"subscription_tail",
                          "subscription tailing the watermark: exactly-once, in-order, "
                          "race-free delivery in every schedule",
                          /*expect_failure=*/false, Options{}, subscription_tail});
    return all;
  }();
  return harnesses;
}

}  // namespace netseer::mc
