// The model-check runtime's own guarantees, each proven on a program
// small enough to reason about by hand: exhaustive interleaving
// coverage, sleep-set pruning of independent reorderings, vector-clock
// race detection keyed to release/acquire (not just "different
// thread"), deadlock and livelock detection, and the blocking
// primitives (await, join, mutex).
#include <gtest/gtest.h>

#include <string>

#include "mc/runtime.h"

namespace netseer::mc {
namespace {

Options small() {
  Options options;
  options.max_steps = 2000;
  options.max_schedules = 100000;
  return options;
}

TEST(McRuntime, SingleThreadHasExactlyOneSchedule) {
  const Result result = explore(small(), [] {
    Atomic<int> x{0};
    x.store(1);
    MC_ASSERT(x.load() == 1);
  });
  EXPECT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.schedules, 1u);
}

TEST(McRuntime, ConflictingStoresExploreBothOrders) {
  // Two threads store different values to one atomic: the final value
  // must be seen to be 1 in some schedule and 2 in another.
  bool saw_one = false;
  bool saw_two = false;
  const Result result = explore(small(), [&] {
    Atomic<int> x{0};
    Thread a = spawn([&] { x.store(1); });
    Thread b = spawn([&] { x.store(2); });
    a.join();
    b.join();
    const int v = x.load();
    MC_ASSERT(v == 1 || v == 2);
    if (v == 1) saw_one = true;
    if (v == 2) saw_two = true;
  });
  EXPECT_TRUE(result.ok()) << result.failure;
  EXPECT_GE(result.schedules, 2u);
  EXPECT_TRUE(saw_one);
  EXPECT_TRUE(saw_two);
}

TEST(McRuntime, SleepSetsPruneIndependentOperations) {
  // Threads touching DIFFERENT atomics commute; sleep sets must prune
  // the redundant order instead of running both.
  const Result result = explore(small(), [] {
    Atomic<int> x{0};
    Atomic<int> y{0};
    Thread a = spawn([&] { x.store(1); });
    Thread b = spawn([&] { y.store(1); });
    a.join();
    b.join();
    MC_ASSERT(x.load() == 1 && y.load() == 1);
  });
  EXPECT_TRUE(result.ok()) << result.failure;
  EXPECT_GE(result.pruned, 1u);  // at least one reordering was cut short
}

TEST(McRuntime, RelaxedPublishIsCaughtAsADataRace) {
  // The classic bug the checker exists for: data written plainly, then
  // "published" with a relaxed store. No happens-before reaches the
  // reader, so the plain accesses race in some schedule.
  int data = 0;
  const Result result = explore(small(), [&] {
    data = 0;
    Atomic<bool> ready{false};
    Thread writer = spawn([&] {
      race_write(&data, "data");
      data = 42;
      ready.store(true, std::memory_order_relaxed);  // BUG: no release
    });
    Thread reader = spawn([&] {
      if (ready.load(std::memory_order_acquire)) {
        race_read(&data, "data");
      }
    });
    writer.join();
    reader.join();
  });
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("data race"), std::string::npos) << result.failure;
  EXPECT_FALSE(result.trace.empty());
}

TEST(McRuntime, ReleaseAcquirePublishIsRaceFree) {
  // Same program with a release store: every schedule is clean.
  int data = 0;
  const Result result = explore(small(), [&] {
    data = 0;
    Atomic<bool> ready{false};
    Thread writer = spawn([&] {
      race_write(&data, "data");
      data = 42;
      ready.store(true, std::memory_order_release);
    });
    Thread reader = spawn([&] {
      if (ready.load(std::memory_order_acquire)) {
        race_read(&data, "data");
      }
    });
    writer.join();
    reader.join();
  });
  EXPECT_TRUE(result.ok()) << result.failure;
}

TEST(McRuntime, LockOrderInversionIsReportedAsDeadlock) {
  const Result result = explore(small(), [] {
    Mutex a;
    Mutex b;
    Thread t1 = spawn([&] {
      MutexLock la(a);
      MutexLock lb(b);
    });
    Thread t2 = spawn([&] {
      MutexLock lb(b);
      MutexLock la(a);
    });
    t1.join();
    t2.join();
  });
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos) << result.failure;
}

TEST(McRuntime, MutexGivesMutualExclusionInEverySchedule) {
  // A plain ++ under a mutex: the instrumented cell would race without
  // the lock's happens-before edges; with them every schedule is clean
  // and both increments land.
  const Result result = explore(small(), [] {
    Mutex mu;
    int counter = 0;
    auto bump = [&] {
      MutexLock lock(mu);
      race_write(&counter, "counter");
      ++counter;
    };
    Thread a = spawn(bump);
    Thread b = spawn(bump);
    a.join();
    b.join();
    MC_ASSERT(counter == 2);
  });
  EXPECT_TRUE(result.ok()) << result.failure;
}

TEST(McRuntime, AwaitBlocksUntilPredicateHolds) {
  const Result result = explore(small(), [] {
    Atomic<int> stage{0};
    Thread waiter = spawn([&] {
      await([&] { return stage.load(std::memory_order_acquire) == 1; });
      MC_ASSERT(stage.load() == 1);
    });
    Thread setter = spawn([&] { stage.store(1, std::memory_order_release); });
    waiter.join();
    setter.join();
  });
  EXPECT_TRUE(result.ok()) << result.failure;
}

TEST(McRuntime, UnboundedSpinIsReportedAsLivelock) {
  // A spin loop written with yield() instead of await() never terminates
  // under a scheduler that keeps choosing the spinner; the step budget
  // turns that into a diagnosed livelock instead of a hang.
  Options options = small();
  options.max_steps = 100;
  const Result result = explore(options, [] {
    Atomic<bool> flag{false};
    Thread spinner = spawn([&] {
      while (!flag.load()) yield();
    });
    Thread setter = spawn([&] { flag.store(true); });
    spinner.join();
    setter.join();
  });
  // Depending on exploration order some schedules terminate, but the
  // spin-first schedule must blow the budget and be reported.
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("livelock"), std::string::npos) << result.failure;
}

TEST(McRuntime, AssertionFailuresCarryTheFailingSchedule) {
  // Unsynchronized read-modify-write sequences (load, then store) lose
  // an increment in some interleaving; the checker must find it and
  // hand back the schedule that did it.
  const Result result = explore(small(), [] {
    Atomic<int> x{0};
    auto bump = [&] {
      const int seen = x.load();
      x.store(seen + 1);
    };
    Thread a = spawn(bump);
    Thread b = spawn(bump);
    a.join();
    b.join();
    MC_ASSERT(x.load() == 2);  // fails when the loads interleave
  });
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("MC_ASSERT"), std::string::npos) << result.failure;
  EXPECT_FALSE(result.trace.empty());
}

TEST(McRuntime, JoinEstablishesHappensBefore) {
  // Plain (instrumented) data written by a child is safely readable
  // after join() — no race in any schedule.
  int data = 0;
  const Result result = explore(small(), [&] {
    data = 0;
    Thread child = spawn([&] {
      race_write(&data, "data");
      data = 7;
    });
    child.join();
    race_read(&data, "data");
    MC_ASSERT(data == 7);
  });
  EXPECT_TRUE(result.ok()) << result.failure;
}

TEST(McRuntime, ScheduleBudgetStopsWithoutExhaustion) {
  Options options = small();
  options.max_schedules = 2;
  const Result result = explore(options, [] {
    Atomic<int> x{0};
    Thread a = spawn([&] { x.store(1); });
    Thread b = spawn([&] { x.store(2); });
    a.join();
    b.join();
  });
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_FALSE(result.exhausted);  // cut off by the budget, not complete
  EXPECT_LE(result.schedules + result.pruned, 2u);
}

}  // namespace
}  // namespace netseer::mc
