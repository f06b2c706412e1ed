#include "store/executor.h"

namespace netseer::store {

QueryPool::QueryPool(std::size_t threads) {
  if (threads > 1) {
    workers_.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }
}

QueryPool::~QueryPool() {
  {
    util::CondMutexLock lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
  }
  for (auto& thread : workers_) thread.join();
}

void QueryPool::run(std::size_t tasks, const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (workers_.empty() || tasks == 1) {
    for (std::size_t t = 0; t < tasks; ++t) fn(t);
    return;
  }
  {
    util::CondMutexLock lock(mu_);
    job_fn_ = &fn;
    job_tasks_ = tasks;
    next_task_.store(0, std::memory_order_relaxed);
    ++job_gen_;
    work_cv_.notify_all();
  }
  // The caller claims tasks like any worker. Once its claims run dry
  // every task is claimed, so each one not finished here is still in a
  // worker counted by active_.
  claim(fn, tasks);
  util::CondMutexLock lock(mu_);
  while (active_ > 0) done_cv_.wait(lock);
  job_fn_ = nullptr;
}

void QueryPool::claim(const std::function<void(std::size_t)>& fn, std::size_t tasks) {
  std::size_t t = 0;
  while ((t = next_task_.fetch_add(1, std::memory_order_relaxed)) < tasks) fn(t);
}

void QueryPool::worker() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t tasks = 0;
    {
      util::CondMutexLock lock(mu_);
      while (job_gen_ == seen && !stop_) work_cv_.wait(lock);
      if (stop_) return;
      seen = job_gen_;
      fn = job_fn_;
      tasks = job_tasks_;
      // A worker that wakes after run() already finished this generation
      // sees the cleared job and just re-arms for the next one.
      if (fn == nullptr) continue;
      ++active_;
    }
    claim(*fn, tasks);
    util::CondMutexLock lock(mu_);
    if (--active_ == 0) done_cv_.notify_all();
  }
}

}  // namespace netseer::store
