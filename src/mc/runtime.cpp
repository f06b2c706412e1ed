#include "mc/runtime.h"

#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

namespace netseer::mc {

namespace {

using detail::OpKind;

/// Unwound through harness code when a failing or pruned run tears down
/// its remaining threads. Never escapes the runtime.
struct McAbort {};
/// Unwound when this thread's own operation violated the model (failed
/// MC_ASSERT, data race, bad unlock). The failure is already recorded.
struct McFailure {};

const char* kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAtomicLoad:
      return "load";
    case OpKind::kAtomicStore:
      return "store";
    case OpKind::kMutexLock:
      return "lock";
    case OpKind::kMutexUnlock:
      return "unlock";
    case OpKind::kAwait:
      return "await";
    case OpKind::kJoin:
      return "join";
    case OpKind::kSpawn:
      return "spawn";
    case OpKind::kYield:
      return "yield";
  }
  return "?";
}

const char* order_name(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed:
      return "relaxed";
    case std::memory_order_consume:
    case std::memory_order_acquire:
      return "acquire";
    case std::memory_order_release:
      return "release";
    case std::memory_order_acq_rel:
      return "acq_rel";
    case std::memory_order_seq_cst:
      return "seq_cst";
  }
  return "?";
}

bool acquire_like(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
         mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}
bool release_like(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

/// Vector clock over model threads: the happens-before machinery.
struct VC {
  std::array<std::uint32_t, kMaxModelThreads> v{};

  void join(const VC& other) {
    for (int i = 0; i < kMaxModelThreads; ++i) {
      if (other.v[i] > v[i]) v[i] = other.v[i];
    }
  }
  void clear() { v.fill(0); }
};

/// The pending visible operation a parked thread has declared.
struct Op {
  OpKind kind = OpKind::kYield;
  std::uint32_t obj = 0;
  std::memory_order mo = std::memory_order_seq_cst;
  void* ctx = nullptr;
  void (*effect)(void*) = nullptr;
  const std::function<bool()>* pred = nullptr;
  int target = -1;
};

/// Two ops must be explored in both orders unless provably independent
/// (they commute in every state — same resulting state, same
/// enabledness). Precision here is what makes sleep sets bite:
///  - yield commutes with everything;
///  - spawn stays fully conservative (rare, structural);
///  - join(T) only interacts with ops OF thread T (their clock feeds its
///    happens-before merge; nothing else can finish or un-finish T);
///  - await is a pure read of mc::Atomic state (the documented predicate
///    contract), so only atomic writes can flip its outcome or change
///    the views its acquire loads pick up — it commutes with loads,
///    other awaits, joins, and mutex ops;
///  - data ops conflict iff same object and at least one writes.
bool ops_dependent(int ta, OpKind ka, std::uint32_t oa, int tgta,
                   int tb, OpKind kb, std::uint32_t ob, int tgtb) {
  if (ka == OpKind::kYield || kb == OpKind::kYield) return false;
  if (ka == OpKind::kSpawn || kb == OpKind::kSpawn) return true;
  if (ka == OpKind::kJoin || kb == OpKind::kJoin) {
    if (ka == OpKind::kJoin && kb == OpKind::kJoin) return false;
    return ka == OpKind::kJoin ? tgta == tb : tgtb == ta;
  }
  if (ka == OpKind::kAwait || kb == OpKind::kAwait) {
    return (ka == OpKind::kAwait ? kb : ka) == OpKind::kAtomicStore;
  }
  if (oa != ob) return false;
  return !(ka == OpKind::kAtomicLoad && kb == OpKind::kAtomicLoad);
}

/// Per-run scheduling state for one model thread. The underlying OS
/// thread is NOT here: workers persist across the thousands of
/// re-executions a search performs (thread creation would dominate the
/// per-schedule cost), so they live in Worker slots and pick up a fresh
/// ThreadRec each run.
struct ThreadRec {
  VC clock;
  Op pending;
  bool parked = false;
  bool granted = false;
  bool finished = false;
};

struct MutexState {
  bool held = false;
  int owner = -1;
  VC released;
};

struct AtomicState {
  VC released;
};

/// FastTrack-style state for one instrumented non-atomic cell.
struct CellState {
  int w_tid = -1;
  std::uint32_t w_clk = 0;
  const char* w_what = nullptr;
  VC reads;
  std::array<const char*, kMaxModelThreads> r_what{};
};

enum class Mode : std::uint8_t { kNormal, kPure, kImmediate };

thread_local int tls_tid = -1;
thread_local Mode tls_mode = Mode::kNormal;

struct TraceEv {
  int tid;
  OpKind kind;
  std::uint32_t obj;
  std::memory_order mo;
};

class Runtime {
 public:
  static Runtime& inst() {
    static Runtime runtime;
    return runtime;
  }

  Result explore(const Options& options, const std::function<void()>& body);
  void perform(const void* objptr, OpKind kind, std::memory_order mo, void* ctx,
               void (*effect)(void*), const std::function<bool()>* pred, int target);
  int spawn(std::function<void()> fn);
  void forget(const void* objptr);
  void race_access(const void* addr, const char* what, bool is_write);
  [[noreturn]] void fail(std::string message);
  [[nodiscard]] bool active() const { return active_.load(std::memory_order_relaxed); }
  [[nodiscard]] bool failing() const { return failed_.load(std::memory_order_relaxed); }

 private:
  struct SleepEntry {
    int tid;
    OpKind kind;
    std::uint32_t obj;
    int target;  // join target, -1 otherwise
  };
  /// One node of the DFS spine: a scheduling decision, the alternatives
  /// still to explore, and the sleep-set bookkeeping that prunes
  /// independent reorderings (Godefroid's sleep sets).
  struct Node {
    int chosen = 0;
    bool fp_known = false;   // kind/obj recorded for this chosen yet?
    OpKind kind = OpKind::kYield;
    std::uint32_t obj = 0;
    int target = -1;         // join target, -1 otherwise
    std::vector<int> alternatives;
    std::vector<SleepEntry> entry_sleep;
    std::vector<SleepEntry> explored;
  };

  /// One persistent OS thread backing model-thread slot `id` across
  /// every run of a search. It sits on cv_ until spawn_locked hands it a
  /// body, executes that body as the model thread, marks its ThreadRec
  /// finished, and loops back for the next run's body.
  struct Worker {
    std::thread th;
    std::function<void()> fn;
    bool has_work = false;
  };

  void run_once(const std::function<void()>& body);
  bool advance_stack();
  void schedule_loop(std::unique_lock<std::mutex>& lk);
  void abort_run_locked(std::unique_lock<std::mutex>& lk);
  int spawn_locked(std::function<void()> fn, const VC* parent_clock);
  void worker_loop(int id);
  void shutdown_workers();
  void apply_effect_locked(int tid, const Op& op, bool traced);
  void record_failure_locked(std::string message);
  std::uint32_t obj_id_locked(const void* objptr) {
    auto [it, inserted] = obj_ids_.emplace(objptr, next_obj_id_);
    if (inserted) ++next_obj_id_;
    return it->second;
  }
  [[nodiscard]] bool quiescent_locked() const {
    for (const auto& rec : recs_) {
      if (!rec->finished && !(rec->parked && !rec->granted)) return false;
    }
    return true;
  }
  [[nodiscard]] bool all_finished_locked() const {
    for (const auto& rec : recs_) {
      if (!rec->finished) return false;
    }
    return true;
  }
  [[nodiscard]] bool op_enabled_locked(const Op& op) {
    switch (op.kind) {
      case OpKind::kMutexLock:
        return !mutexes_[op.obj].held;
      case OpKind::kJoin:
        return op.target >= 0 && recs_[static_cast<std::size_t>(op.target)]->finished;
      case OpKind::kAwait: {
        const Mode saved = tls_mode;
        tls_mode = Mode::kPure;
        const bool ready = (*op.pred)();
        tls_mode = saved;
        return ready;
      }
      default:
        return true;
    }
  }
  std::string describe(int tid, OpKind kind, std::uint32_t obj, std::memory_order mo) const;
  std::vector<std::string> render_trace_locked() const;

  std::mutex m_;
  std::condition_variable cv_;
  std::atomic<bool> active_{false};
  std::atomic<bool> failed_{false};
  bool abort_ = false;
  std::string failure_;
  std::vector<std::string> failure_trace_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool shutdown_ = false;
  std::vector<std::unique_ptr<ThreadRec>> recs_;
  std::vector<TraceEv> trace_;

  std::unordered_map<const void*, std::uint32_t> obj_ids_;
  std::uint32_t next_obj_id_ = 1;
  std::unordered_map<std::uint32_t, MutexState> mutexes_;
  std::unordered_map<std::uint32_t, AtomicState> atomics_;
  std::unordered_map<const void*, CellState> cells_;

  std::vector<Node> stack_;
  std::vector<SleepEntry> cur_sleep_;
  std::size_t depth_ = 0;
  bool pruned_run_ = false;

  Options opts_;
  Result result_;
};

std::string Runtime::describe(int tid, OpKind kind, std::uint32_t obj, std::memory_order mo) const {
  std::string out = "T";
  out += std::to_string(tid);
  out += ' ';
  switch (kind) {
    case OpKind::kAtomicLoad:
    case OpKind::kAtomicStore:
      out += "atomic#" + std::to_string(obj) + "." + kind_name(kind) + "(" + order_name(mo) + ")";
      break;
    case OpKind::kMutexLock:
    case OpKind::kMutexUnlock:
      out += "mutex#" + std::to_string(obj) + "." + kind_name(kind) + "()";
      break;
    default:
      out += kind_name(kind);
      break;
  }
  return out;
}

std::vector<std::string> Runtime::render_trace_locked() const {
  std::vector<std::string> out;
  out.reserve(trace_.size());
  for (const TraceEv& ev : trace_) out.push_back(describe(ev.tid, ev.kind, ev.obj, ev.mo));
  return out;
}

void Runtime::record_failure_locked(std::string message) {
  if (failed_.load(std::memory_order_relaxed)) return;
  failed_.store(true, std::memory_order_relaxed);
  failure_ = std::move(message);
  failure_trace_ = render_trace_locked();
}

void Runtime::fail(std::string message) {
  {
    std::lock_guard<std::mutex> lk(m_);
    record_failure_locked(std::move(message));
  }
  throw McFailure{};
}

void Runtime::apply_effect_locked(int tid, const Op& op, bool traced) {
  ThreadRec& me = *recs_[static_cast<std::size_t>(tid)];
  if (traced) trace_.push_back(TraceEv{tid, op.kind, op.obj, op.mo});
  switch (op.kind) {
    case OpKind::kAtomicLoad: {
      if (acquire_like(op.mo)) me.clock.join(atomics_[op.obj].released);
      if (op.effect != nullptr) op.effect(op.ctx);
      break;
    }
    case OpKind::kAtomicStore: {
      if (op.effect != nullptr) op.effect(op.ctx);
      AtomicState& state = atomics_[op.obj];
      // A plain store heads a fresh release sequence: release publishes
      // the writer's view, relaxed publishes nothing (C++20 6.9.2.2).
      if (release_like(op.mo)) {
        state.released = me.clock;
      } else {
        state.released.clear();
      }
      break;
    }
    case OpKind::kMutexLock: {
      MutexState& state = mutexes_[op.obj];
      state.held = true;
      state.owner = tid;
      me.clock.join(state.released);
      break;
    }
    case OpKind::kMutexUnlock: {
      MutexState& state = mutexes_[op.obj];
      if (!state.held || state.owner != tid) {
        record_failure_locked(describe(tid, op.kind, op.obj, op.mo) +
                              ": unlock of a mutex this thread does not hold");
        throw McFailure{};
      }
      state.held = false;
      state.owner = -1;
      state.released = me.clock;
      break;
    }
    case OpKind::kAwait:
      break;  // the predicate re-runs acquire loads after the grant
    case OpKind::kJoin: {
      me.clock.join(recs_[static_cast<std::size_t>(op.target)]->clock);
      break;
    }
    case OpKind::kSpawn: {
      if (op.effect != nullptr) op.effect(op.ctx);
      break;
    }
    case OpKind::kYield:
      break;
  }
  ++me.clock.v[tid];
}

void Runtime::perform(const void* objptr, OpKind kind, std::memory_order mo, void* ctx,
                      void (*effect)(void*), const std::function<bool()>* pred, int target) {
  if (tls_mode == Mode::kPure) {
    // Scheduler-side await-predicate evaluation: loads read the value
    // with no side effects; anything else in a predicate is a harness
    // bug surfaced as a failed run elsewhere.
    if (kind == OpKind::kAtomicLoad && effect != nullptr) effect(ctx);
    return;
  }
  if (tls_mode == Mode::kImmediate || std::uncaught_exceptions() > 0) {
    // Teardown/unwind or await-regrant: apply HB + value effects without
    // rescheduling (parking during unwind would wedge the teardown).
    std::unique_lock<std::mutex> lk(m_);
    Op op{kind, objptr != nullptr ? obj_id_locked(objptr) : 0, mo, ctx, effect, pred, target};
    if (op.kind == OpKind::kMutexUnlock && !mutexes_[op.obj].held) return;  // unwind noise
    apply_effect_locked(tls_tid, op, /*traced=*/false);
    return;
  }

  std::unique_lock<std::mutex> lk(m_);
  ThreadRec& me = *recs_[static_cast<std::size_t>(tls_tid)];
  me.pending = Op{kind, objptr != nullptr ? obj_id_locked(objptr) : 0, mo, ctx, effect, pred,
                  target};
  me.parked = true;
  cv_.notify_all();
  cv_.wait(lk, [&] { return me.granted || abort_; });
  me.parked = false;
  if (!me.granted) {
    cv_.notify_all();
    throw McAbort{};
  }
  me.granted = false;
  const Op op = me.pending;
  apply_effect_locked(tls_tid, op, /*traced=*/true);
  lk.unlock();
  if (kind == OpKind::kAwait) {
    // Re-run the predicate on this thread so its acquire loads pick up
    // the publishing writes' views (the scheduler's checks were pure).
    const Mode saved = tls_mode;
    tls_mode = Mode::kImmediate;
    (*pred)();
    tls_mode = saved;
  }
}

void Runtime::race_access(const void* addr, const char* what, bool is_write) {
  if (tls_mode == Mode::kPure) return;
  if (!active() || tls_tid < 0) return;
  if (tls_mode == Mode::kImmediate || std::uncaught_exceptions() > 0) return;
  std::unique_lock<std::mutex> lk(m_);
  ThreadRec& me = *recs_[static_cast<std::size_t>(tls_tid)];
  CellState& cell = cells_[addr];
  const int tid = tls_tid;
  auto report = [&](const char* prior_what, int prior_tid, const char* prior_kind) {
    std::string msg = std::string("data race: ") + (is_write ? "write" : "read") + " of `" +
                      what + "` by T" + std::to_string(tid) + " is unordered with prior " +
                      prior_kind + " of `" + (prior_what != nullptr ? prior_what : "?") +
                      "` by T" + std::to_string(prior_tid);
    record_failure_locked(std::move(msg));
    lk.unlock();
    throw McFailure{};
  };
  if (cell.w_tid >= 0 && cell.w_tid != tid &&
      me.clock.v[cell.w_tid] < cell.w_clk) {
    report(cell.w_what, cell.w_tid, "write");
  }
  if (is_write) {
    for (int u = 0; u < kMaxModelThreads; ++u) {
      if (u != tid && cell.reads.v[u] > me.clock.v[u]) report(cell.r_what[u], u, "read");
    }
    cell.w_tid = tid;
    cell.w_clk = me.clock.v[tid];
    cell.w_what = what;
    cell.reads.clear();
    cell.r_what.fill(nullptr);
  } else {
    cell.reads.v[tid] = me.clock.v[tid];
    cell.r_what[static_cast<std::size_t>(tid)] = what;
  }
  ++me.clock.v[tid];
}

int Runtime::spawn_locked(std::function<void()> fn, const VC* parent_clock) {
  if (recs_.size() >= kMaxModelThreads) {
    record_failure_locked("spawn: more than kMaxModelThreads model threads");
    throw McFailure{};
  }
  const int id = static_cast<int>(recs_.size());
  recs_.push_back(std::make_unique<ThreadRec>());
  ThreadRec& rec = *recs_.back();
  if (parent_clock != nullptr) rec.clock = *parent_clock;
  if (workers_.size() <= static_cast<std::size_t>(id)) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->th = std::thread([this, id] { worker_loop(id); });
  }
  Worker& worker = *workers_[static_cast<std::size_t>(id)];
  worker.fn = std::move(fn);
  worker.has_work = true;
  cv_.notify_all();
  return id;
}

int Runtime::spawn(std::function<void()> fn) {
  struct Ctx {
    Runtime* self;
    std::function<void()>* fn;
    int parent;
    int id;
  };
  Ctx ctx{this, &fn, tls_tid, -1};
  perform(nullptr, OpKind::kSpawn, std::memory_order_seq_cst, &ctx,
          [](void* p) {
            auto* c = static_cast<Ctx*>(p);
            // Called under m_ from apply_effect_locked: the child starts
            // with (and so happens-after) the spawner's view.
            const VC* parent = &c->self->recs_[static_cast<std::size_t>(c->parent)]->clock;
            c->id = c->self->spawn_locked(std::move(*c->fn), parent);
          },
          nullptr, -1);
  return ctx.id;
}

void Runtime::worker_loop(int id) {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [&] { return workers_[static_cast<std::size_t>(id)]->has_work || shutdown_; });
    if (shutdown_) return;
    Worker& worker = *workers_[static_cast<std::size_t>(id)];
    worker.has_work = false;
    std::function<void()> fn = std::move(worker.fn);
    lk.unlock();
    tls_tid = id;
    tls_mode = Mode::kNormal;
    try {
      // Park at birth: user code only runs once the scheduler grants
      // this thread, so a freshly spawned thread can never race its
      // spawner's continuation between creation and its first visible
      // op.
      perform(nullptr, OpKind::kYield, std::memory_order_seq_cst, nullptr, nullptr, nullptr, -1);
      fn();
    } catch (const McAbort&) {
    } catch (const McFailure&) {
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> guard(m_);
      record_failure_locked(std::string("uncaught exception in model thread: ") + e.what());
    } catch (...) {
      std::lock_guard<std::mutex> guard(m_);
      record_failure_locked("uncaught exception in model thread");
    }
    fn = nullptr;  // destroy captures outside the runtime lock
    tls_tid = -1;
    lk.lock();
    recs_[static_cast<std::size_t>(id)]->finished = true;
    cv_.notify_all();
  }
}

void Runtime::shutdown_workers() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
    cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->th.joinable()) worker->th.join();
  }
  workers_.clear();
  shutdown_ = false;
}

void Runtime::abort_run_locked(std::unique_lock<std::mutex>& lk) {
  abort_ = true;
  cv_.notify_all();
  cv_.wait(lk, [&] { return all_finished_locked(); });
}

void Runtime::schedule_loop(std::unique_lock<std::mutex>& lk) {
  for (;;) {
    cv_.wait(lk, [&] { return quiescent_locked(); });
    if (failed_.load(std::memory_order_relaxed)) {
      abort_run_locked(lk);
      return;
    }
    if (all_finished_locked()) return;
    if (trace_.size() >= opts_.max_steps) {
      record_failure_locked("livelock: max_steps exceeded (unbounded spin? model waits with "
                            "mc::await)");
      abort_run_locked(lk);
      return;
    }
    // Enabled = parked threads whose declared op can execute now.
    std::vector<int> enabled;
    for (std::size_t t = 0; t < recs_.size(); ++t) {
      ThreadRec& rec = *recs_[t];
      if (!rec.finished && rec.parked && op_enabled_locked(rec.pending)) {
        enabled.push_back(static_cast<int>(t));
      }
    }
    if (enabled.empty()) {
      std::string msg = "deadlock:";
      for (std::size_t t = 0; t < recs_.size(); ++t) {
        const ThreadRec& rec = *recs_[t];
        if (rec.finished) continue;
        msg += ' ';
        msg += describe(static_cast<int>(t), rec.pending.kind, rec.pending.obj, rec.pending.mo);
        msg += " blocked;";
      }
      record_failure_locked(std::move(msg));
      abort_run_locked(lk);
      return;
    }

    int chosen;
    if (depth_ < stack_.size()) {
      // Replay the DFS prefix.
      Node& node = stack_[depth_];
      bool runnable = false;
      for (int t : enabled) runnable = runnable || t == node.chosen;
      const Op& pending = recs_[static_cast<std::size_t>(node.chosen)]->pending;
      if (!runnable ||
          (node.fp_known && (node.kind != pending.kind || node.obj != pending.obj))) {
        record_failure_locked(
            "nondeterministic harness: replayed schedule diverged at step " +
            std::to_string(depth_));
        abort_run_locked(lk);
        return;
      }
      if (!node.fp_known) {
        node.kind = pending.kind;
        node.obj = pending.obj;
        node.target = pending.target;
        node.fp_known = true;
      }
      chosen = node.chosen;
    } else {
      // Fresh node: branch over enabled threads not in the sleep set.
      std::vector<int> free;
      for (int t : enabled) {
        bool sleeping = false;
        for (const SleepEntry& entry : cur_sleep_) sleeping = sleeping || entry.tid == t;
        if (!sleeping) free.push_back(t);
      }
      if (free.empty()) {
        // Every enabled continuation is covered by a sibling branch.
        pruned_run_ = true;
        abort_run_locked(lk);
        return;
      }
      Node node;
      node.chosen = free.front();
      const Op& pending = recs_[static_cast<std::size_t>(node.chosen)]->pending;
      node.kind = pending.kind;
      node.obj = pending.obj;
      node.target = pending.target;
      node.fp_known = true;
      node.alternatives.assign(free.begin() + 1, free.end());
      node.entry_sleep = cur_sleep_;
      stack_.push_back(std::move(node));
      chosen = stack_.back().chosen;
    }

    // Sleep-set propagation: the child keeps every sleeping sibling
    // whose pending op is independent of the op we are about to run.
    const Node& node = stack_[depth_];
    cur_sleep_.clear();
    auto keep_if_independent = [&](const SleepEntry& entry) {
      if (!ops_dependent(entry.tid, entry.kind, entry.obj, entry.target,
                         node.chosen, node.kind, node.obj, node.target)) {
        cur_sleep_.push_back(entry);
      }
    };
    for (const SleepEntry& entry : node.entry_sleep) keep_if_independent(entry);
    for (const SleepEntry& entry : node.explored) keep_if_independent(entry);
    ++depth_;

    recs_[static_cast<std::size_t>(chosen)]->granted = true;
    cv_.notify_all();
  }
}

void Runtime::run_once(const std::function<void()>& body) {
  obj_ids_.clear();
  next_obj_id_ = 1;
  mutexes_.clear();
  atomics_.clear();
  cells_.clear();
  trace_.clear();
  recs_.clear();
  abort_ = false;
  pruned_run_ = false;
  depth_ = 0;
  cur_sleep_.clear();
  active_.store(true, std::memory_order_relaxed);

  std::unique_lock<std::mutex> lk(m_);
  spawn_locked(body, nullptr);
  schedule_loop(lk);
  // schedule_loop returns only once every model thread's body has run to
  // completion (or unwound), so the workers are all back waiting for the
  // next run's bodies — no joins here; the pool persists across runs.
  lk.unlock();
  active_.store(false, std::memory_order_relaxed);
  result_.steps += trace_.size();
  if (trace_.size() > result_.max_depth) result_.max_depth = trace_.size();
  if (pruned_run_) {
    ++result_.pruned;
  } else {
    ++result_.schedules;
  }
}

bool Runtime::advance_stack() {
  while (!stack_.empty()) {
    Node& node = stack_.back();
    node.explored.push_back(SleepEntry{node.chosen, node.kind, node.obj, node.target});
    if (!node.alternatives.empty()) {
      node.chosen = node.alternatives.front();
      node.alternatives.erase(node.alternatives.begin());
      node.fp_known = false;
      return true;
    }
    stack_.pop_back();
  }
  return false;
}

Result Runtime::explore(const Options& options, const std::function<void()>& body) {
  opts_ = options;
  result_ = Result{};
  failed_.store(false, std::memory_order_relaxed);
  failure_.clear();
  failure_trace_.clear();
  stack_.clear();
  for (;;) {
    run_once(body);
    if (failed_.load(std::memory_order_relaxed)) {
      result_.failed = true;
      result_.failure = failure_;
      result_.trace = failure_trace_;
      break;
    }
    if (!advance_stack()) {
      result_.exhausted = true;
      break;
    }
    if (result_.schedules + result_.pruned >= opts_.max_schedules) break;  // budget exhausted
  }
  shutdown_workers();
  return result_;
}

void Runtime::forget(const void* objptr) {
  if (!active()) return;
  std::lock_guard<std::mutex> lk(m_);
  auto it = obj_ids_.find(objptr);
  if (it == obj_ids_.end()) return;
  mutexes_.erase(it->second);
  atomics_.erase(it->second);
  obj_ids_.erase(it);
}

}  // namespace

namespace detail {

void perform(const void* obj, OpKind kind, std::memory_order mo, void* ctx, void (*effect)(void*),
             const std::function<bool()>* pred, int target) {
  Runtime::inst().perform(obj, kind, mo, ctx, effect, pred, target);
}

void forget_object(const void* obj) { Runtime::inst().forget(obj); }

int spawn_thread(std::function<void()> fn) { return Runtime::inst().spawn(std::move(fn)); }

void fail(std::string message) { Runtime::inst().fail(std::move(message)); }

bool failing() { return Runtime::inst().failing(); }

void assert_fail(const char* expr, const char* file, int line) {
  if (!Runtime::inst().active() || tls_tid < 0) {
    std::fprintf(stderr, "MC_ASSERT failed outside a model run: %s (%s:%d)\n", expr, file, line);
    std::abort();
  }
  Runtime::inst().fail(std::string("MC_ASSERT failed: ") + expr + " (" + file + ":" +
                       std::to_string(line) + ")");
}

}  // namespace detail

Result explore(const Options& options, const std::function<void()>& body) {
  return Runtime::inst().explore(options, body);
}

Thread spawn(std::function<void()> fn) { return Thread(detail::spawn_thread(std::move(fn))); }

void Thread::join() {
  if (id_ < 0) return;
  detail::perform(nullptr, detail::OpKind::kJoin, std::memory_order_seq_cst, nullptr, nullptr,
                  nullptr, id_);
  id_ = -1;
}

void yield() {
  detail::perform(nullptr, detail::OpKind::kYield, std::memory_order_seq_cst, nullptr, nullptr,
                  nullptr, -1);
}

void await(const std::function<bool()>& pred) {
  detail::perform(nullptr, detail::OpKind::kAwait, std::memory_order_seq_cst, nullptr, nullptr,
                  &pred, -1);
}

void race_read(const void* addr, const char* what) {
  Runtime::inst().race_access(addr, what, /*is_write=*/false);
}

void race_write(const void* addr, const char* what) {
  Runtime::inst().race_access(addr, what, /*is_write=*/true);
}

void Mutex::lock() {
  detail::perform(this, OpKind::kMutexLock, std::memory_order_seq_cst, nullptr, nullptr);
}

void Mutex::unlock() {
  detail::perform(this, OpKind::kMutexUnlock, std::memory_order_seq_cst, nullptr, nullptr);
}

}  // namespace netseer::mc
