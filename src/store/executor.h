#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace netseer::store {

/// A small persistent worker pool for scatter-gather queries. run()
/// executes fn(0..tasks-1) with the calling thread participating, so a
/// pool of `threads` gives `threads`-way parallelism with threads-1
/// parked workers. Tasks are claimed off a shared atomic counter —
/// segment scans are uneven (pruned vs full), so work-stealing by
/// claim order beats static partitioning.
///
/// One run() at a time (the store's query path is single-threaded);
/// run() itself is not reentrant.
class QueryPool {
 public:
  /// `threads` = total parallelism including the caller; <=1 means
  /// run() degrades to a serial loop (no workers spawned).
  explicit QueryPool(std::size_t threads);
  ~QueryPool();

  QueryPool(const QueryPool&) = delete;
  QueryPool& operator=(const QueryPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Run fn(task) for every task in [0, tasks); blocks until all
  /// complete. fn must be safe to call concurrently with itself.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker();
  /// Run tasks off the shared counter until it passes `tasks`.
  void claim(const std::function<void(std::size_t)>& fn, std::size_t tasks);

  util::CondMutex mu_;
  util::CondVar work_cv_;  // workers sleep here between jobs
  util::CondVar done_cv_;  // run() waits here for the last worker to leave
  bool stop_ NETSEER_GUARDED_BY(mu_) = false;
  std::uint64_t job_gen_ NETSEER_GUARDED_BY(mu_) = 0;
  const std::function<void(std::size_t)>* job_fn_ NETSEER_GUARDED_BY(mu_) = nullptr;
  std::size_t job_tasks_ NETSEER_GUARDED_BY(mu_) = 0;
  /// Workers that joined the current job and have not left its claim
  /// loop. run() returns only once this is 0, so no worker can claim
  /// from the next job's counter with this job's fn or task count.
  std::size_t active_ NETSEER_GUARDED_BY(mu_) = 0;

  std::atomic<std::size_t> next_task_{0};

  std::vector<std::thread> workers_;
};

}  // namespace netseer::store
