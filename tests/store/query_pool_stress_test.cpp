// QueryPool's claim race as a stress loop. Back-to-back run() calls on a
// 4-thread pool, each with its own small task count, must run every task
// exactly once. A worker still claiming from the shared counter after
// its job's run() returned takes the next job's tickets with the old
// job's task count and fn: it either runs a task number past the new
// count (a miscount here) or drops a ticket without running it, and
// then run() waits forever — which is why this binary runs under a
// ctest TIMEOUT. The race needs a worker delayed between reading the
// job and claiming, so the loop runs for a wall-time budget, not just
// a fixed number of runs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>

#include "store/executor.h"

namespace netseer::store {
namespace {

TEST(QueryPoolStress, BackToBackRunsRunEveryTaskExactlyOnce) {
  constexpr int kMinRuns = 20000;
  constexpr auto kBudget = std::chrono::seconds(2);
  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  QueryPool pool(4);
  std::array<std::atomic<int>, 8> hits{};
  for (int run = 0; run < kMinRuns || std::chrono::steady_clock::now() < deadline; ++run) {
    const std::size_t tasks = 2 + static_cast<std::size_t>(run) % 7;  // 2..8
    for (auto& hit : hits) hit.store(0, std::memory_order_relaxed);
    pool.run(tasks, [&hits](std::size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t task = 0; task < hits.size(); ++task) {
      ASSERT_EQ(hits[task].load(std::memory_order_relaxed), task < tasks ? 1 : 0)
          << "run " << run << " (" << tasks << " tasks), task " << task;
    }
  }
}

}  // namespace
}  // namespace netseer::store
