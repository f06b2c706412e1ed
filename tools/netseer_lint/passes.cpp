#include "passes.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace netseer::lint {

namespace {

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, std::string_view needle) {
  return s.find(needle) != std::string::npos;
}

/// First-party product code: the discipline passes (nodiscard, raw-sync)
/// only apply here — tests/bench/tools may hold locks and discard at will.
bool in_src(const std::string& path, const PassOptions& opt) {
  if (opt.fixture_mode) return true;
  return contains(path, "/src/") || path.rfind("src/", 0) == 0;
}

/// util/sync.h wraps std::mutex by design; src/mc is the model-checker
/// runtime and schedules raw primitives on purpose.
bool raw_sync_exempt(const std::string& path, const PassOptions& opt) {
  if (opt.fixture_mode) return false;
  return ends_with(path, "util/sync.h") || ends_with(path, "util/thread_annotations.h") ||
         contains(path, "/mc/") || path.rfind("mc/", 0) == 0;
}

bool pass_enabled(const PassOptions& opt, const char* pass) {
  return opt.only.empty() || opt.only.count(pass) > 0;
}

struct Flags {
  bool hot = false;
  bool allow_init = false;
  bool blocking = false;
  bool requires_lock = false;
  bool nodiscard = false;
};

/// Annotations merged across declaration and out-of-line definition by
/// qualified name, so `NETSEER_BLOCKING bool sync();` in the header covers
/// `bool WalWriter::sync() {...}` in the .cpp.
class AnnotationDb {
 public:
  explicit AnnotationDb(const std::vector<FileModel>& files) {
    for (const FileModel& f : files) {
      for (const FunctionModel& fn : f.functions) {
        if (!fn.hot && !fn.allow_init && !fn.blocking && !fn.requires_lock &&
            !fn.nodiscard) {
          continue;
        }
        Flags& q = by_qualified_[fn.qualified];
        q.hot |= fn.hot;
        q.allow_init |= fn.allow_init;
        q.blocking |= fn.blocking;
        q.requires_lock |= fn.requires_lock;
        q.nodiscard |= fn.nodiscard;
        Flags& s = by_name_[fn.name];
        s.blocking |= fn.blocking;
      }
    }
  }

  [[nodiscard]] Flags effective(const FunctionModel& fn) const {
    Flags f{fn.hot, fn.allow_init, fn.blocking, fn.requires_lock, fn.nodiscard};
    const auto it = by_qualified_.find(fn.qualified);
    if (it != by_qualified_.end()) {
      f.hot |= it->second.hot;
      f.allow_init |= it->second.allow_init;
      f.blocking |= it->second.blocking;
      f.requires_lock |= it->second.requires_lock;
      f.nodiscard |= it->second.nodiscard;
    }
    return f;
  }

  /// Conservative simple-name lookup for calls the same-TU walk cannot
  /// resolve (receiver calls like `wal_.sync()`): any function with this
  /// name carrying the flag makes the call count.
  [[nodiscard]] bool name_blocking(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it != by_name_.end() && it->second.blocking;
  }

 private:
  std::unordered_map<std::string, Flags> by_qualified_;
  std::unordered_map<std::string, Flags> by_name_;
};

// ---- pass 1: allocation-freedom of NETSEER_HOT call graphs -----------------

class HotAllocPass {
 public:
  HotAllocPass(const FileModel& file, const AnnotationDb& db) : file_(file), db_(db) {
    for (std::size_t i = 0; i < file.functions.size(); ++i) {
      if (file.functions[i].is_definition) {
        by_name_[file.functions[i].name].push_back(i);
      }
    }
    state_.assign(file.functions.size(), State::kUnknown);
    why_.assign(file.functions.size(), "");
  }

  void run(std::vector<Finding>& out) {
    for (std::size_t i = 0; i < file_.functions.size(); ++i) {
      const FunctionModel& fn = file_.functions[i];
      if (!fn.is_definition || !db_.effective(fn).hot) continue;
      report(fn, i, out);
    }
  }

 private:
  enum class State : unsigned char { kUnknown, kInProgress, kClean, kAllocates };

  void report(const FunctionModel& fn, std::size_t i, std::vector<Finding>& out) {
    for (const FunctionModel::Alloc& a : fn.allocs) {
      out.push_back(Finding{kPassHotAlloc, fn.file, a.line,
                            "NETSEER_HOT function '" + fn.qualified + "' allocates: " +
                                a.what});
    }
    state_[i] = State::kInProgress;  // do not re-enter through recursion
    bool allocates = !fn.allocs.empty();
    if (allocates) {
      why_[i] = fn.allocs[0].what + " (" + fn.file + ":" +
                std::to_string(fn.allocs[0].line) + ")";
    }
    for (const FunctionModel::Call& c : fn.calls) {
      std::string chain;
      if (call_reaches_alloc(c, chain)) {
        out.push_back(Finding{kPassHotAlloc, fn.file, c.line,
                              "NETSEER_HOT function '" + fn.qualified +
                                  "' reaches allocation through call chain: " + chain});
        if (!allocates) why_[i] = chain;
        allocates = true;
      }
    }
    // Hot roots are also candidates for other roots' call resolution:
    // record the true verdict so a clean root stays clean downstream.
    state_[i] = allocates ? State::kAllocates : State::kClean;
  }

  bool call_reaches_alloc(const FunctionModel::Call& c, std::string& chain) {
    // A same-TU candidate's own NETSEER_HOT_ALLOW_INIT (merged from its
    // declaration by qualified name) is the only exemption: another
    // function that shares its simple name elsewhere exempts nothing.
    const auto it = by_name_.find(c.name);
    if (it == by_name_.end()) return false;  // out-of-TU or unresolvable: trust
    // Flag only if every same-TU candidate allocates; overload sets where
    // one candidate is clean stay quiet (conservative in the FP direction).
    std::string first_why;
    for (const std::size_t idx : it->second) {
      if (!reaches_alloc(idx)) return false;
      if (first_why.empty()) first_why = why_[idx];
    }
    if (it->second.empty()) return false;
    chain = c.name + "() -> " + first_why;
    return true;
  }

  bool reaches_alloc(std::size_t i) {
    if (state_[i] == State::kClean || state_[i] == State::kInProgress) return false;
    if (state_[i] == State::kAllocates) return true;
    state_[i] = State::kInProgress;
    const FunctionModel& fn = file_.functions[i];
    if (db_.effective(fn).allow_init) {
      state_[i] = State::kClean;
      return false;
    }
    if (!fn.allocs.empty()) {
      why_[i] = fn.allocs[0].what + " (" + fn.file + ":" +
                std::to_string(fn.allocs[0].line) + ")";
      state_[i] = State::kAllocates;
      return true;
    }
    for (const FunctionModel::Call& c : fn.calls) {
      std::string chain;
      if (call_reaches_alloc(c, chain)) {
        why_[i] = chain;
        state_[i] = State::kAllocates;
        return true;
      }
    }
    state_[i] = State::kClean;
    return false;
  }

  const FileModel& file_;
  const AnnotationDb& db_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_name_;
  std::vector<State> state_;
  std::vector<std::string> why_;
};

// ---- pass 2: no blocking under a held lock ---------------------------------

/// A call under a lock is flagged when the callee *definitely* blocks:
/// it is NETSEER_BLOCKING-annotated (anywhere in the scanned set), or
/// every same-TU candidate reaches a blocking primitive transitively
/// (fsync one helper down is still fsync). The fix is to propagate
/// NETSEER_BLOCKING outward, keeping every blocking-under-lock site
/// explicit and greppable.
class LockBlockingPass {
 public:
  LockBlockingPass(const FileModel& file, const AnnotationDb& db) : file_(file), db_(db) {
    for (std::size_t i = 0; i < file.functions.size(); ++i) {
      if (file.functions[i].is_definition) {
        by_name_[file.functions[i].name].push_back(i);
      }
    }
    state_.assign(file.functions.size(), State::kUnknown);
    why_.assign(file.functions.size(), "");
  }

  void run(std::vector<Finding>& out) {
    for (const FunctionModel& fn : file_.functions) {
      if (!fn.is_definition) continue;
      const Flags flags = db_.effective(fn);
      // NETSEER_REQUIRES on the header declaration means the body runs
      // with the capability held even if the definition restates nothing.
      const int extra = flags.requires_lock && !fn.requires_lock ? 1 : 0;
      for (const FunctionModel::BlockingOp& op : fn.blocking_ops) {
        const int held = op.locks + extra;
        if (op.cv_wait) {
          // Waiting on a cv through its own lock is the one sanctioned
          // shape; a second lock held across the wait deadlocks waiters.
          if (held >= 2) {
            out.push_back(Finding{kPassLockBlocking, fn.file, op.line,
                                  "'" + fn.qualified +
                                      "' waits on a condition variable while holding " +
                                      std::to_string(held) +
                                      " locks; a cv wait may hold only its own"});
          }
          if (flags.hot) {
            out.push_back(Finding{kPassLockBlocking, fn.file, op.line,
                                  "NETSEER_HOT function '" + fn.qualified +
                                      "' waits on a condition variable"});
          }
          continue;
        }
        if (flags.hot) {
          out.push_back(Finding{kPassLockBlocking, fn.file, op.line,
                                "NETSEER_HOT function '" + fn.qualified +
                                    "' performs blocking operation " + op.what});
        } else if (held >= 1 && !flags.blocking) {
          out.push_back(Finding{kPassLockBlocking, fn.file, op.line,
                                "'" + fn.qualified + "' performs blocking operation " +
                                    op.what +
                                    " while holding a lock; annotate the function "
                                    "NETSEER_BLOCKING if this is by design"});
        }
      }
      for (const FunctionModel::Call& c : fn.calls) {
        std::string chain;
        if (!callee_blocks(c, chain)) continue;
        if (is_suppressed(file_, c.line, kPassLockBlocking)) continue;
        if (flags.hot) {
          out.push_back(Finding{kPassLockBlocking, fn.file, c.line,
                                "NETSEER_HOT function '" + fn.qualified +
                                    "' calls blocking function: " + chain});
        } else if (c.locks + extra >= 1 && !flags.blocking) {
          out.push_back(Finding{kPassLockBlocking, fn.file, c.line,
                                "'" + fn.qualified + "' calls blocking function under a " +
                                    "lock: " + chain +
                                    "; propagate NETSEER_BLOCKING to the caller"});
        }
      }
    }
  }

 private:
  enum class State : unsigned char { kUnknown, kInProgress, kClean, kBlocks };

  bool callee_blocks(const FunctionModel::Call& c, std::string& chain) {
    if (db_.name_blocking(c.name)) {
      chain = c.name + "() [NETSEER_BLOCKING]";
      return true;
    }
    const auto it = by_name_.find(c.name);
    if (it == by_name_.end() || it->second.empty()) return false;
    std::string first_why;
    for (const std::size_t idx : it->second) {
      if (!reaches_blocking(idx)) return false;
      if (first_why.empty()) first_why = why_[idx];
    }
    chain = c.name + "() -> " + first_why;
    return true;
  }

  bool reaches_blocking(std::size_t i) {
    if (state_[i] == State::kClean || state_[i] == State::kInProgress) return false;
    if (state_[i] == State::kBlocks) return true;
    state_[i] = State::kInProgress;
    const FunctionModel& fn = file_.functions[i];
    for (const FunctionModel::BlockingOp& op : fn.blocking_ops) {
      if (op.cv_wait) continue;  // legality of waits is judged at the wait site
      why_[i] = op.what + " (" + fn.file + ":" + std::to_string(op.line) + ")";
      state_[i] = State::kBlocks;
      return true;
    }
    for (const FunctionModel::Call& c : fn.calls) {
      std::string chain;
      if (callee_blocks(c, chain)) {
        why_[i] = chain;
        state_[i] = State::kBlocks;
        return true;
      }
    }
    state_[i] = State::kClean;
    return false;
  }

  const FileModel& file_;
  const AnnotationDb& db_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_name_;
  std::vector<State> state_;
  std::vector<std::string> why_;
};

// ---- pass 3a: [[nodiscard]] on status/handle returns -----------------------

bool nodiscard_handle_type(const std::string& type) {
  static constexpr std::string_view kHandles[] = {"TaskHandle", "PooledPacket"};
  for (const std::string_view h : kHandles) {
    if (contains(type, h)) return true;
  }
  return false;
}

bool nodiscard_bool_name(const std::string& name) {
  static constexpr std::string_view kPrefixes[] = {
      "try_", "save", "load", "sync", "commit", "recover", "append",
  };
  for (const std::string_view p : kPrefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

void nodiscard_pass(const FileModel& file, const PassOptions& opt, const AnnotationDb& db,
                    std::vector<Finding>& out) {
  if (!in_src(file.path, opt)) return;
  for (const FunctionModel& fn : file.functions) {
    // A [[nodiscard]] on the header declaration covers the out-of-line
    // definition (restating the attribute there is not even legal style).
    if (db.effective(fn).nodiscard) continue;
    if (fn.name.empty() || fn.name == "main") continue;
    if (fn.name[0] == '~' || fn.name.rfind("operator", 0) == 0) continue;
    if (fn.return_type.empty()) continue;  // constructor
    // Out-of-line definitions inherit [[nodiscard]] from the declaration.
    if (fn.is_definition && fn.has_explicit_qualifier) continue;
    const bool handle = nodiscard_handle_type(fn.return_type);
    const bool status = fn.return_type == "bool" && nodiscard_bool_name(fn.name);
    if (!handle && !status) continue;
    if (is_suppressed(file, fn.line, kPassNodiscard)) continue;
    out.push_back(Finding{kPassNodiscard, fn.file, fn.line,
                          "'" + fn.qualified + "' returns " + fn.return_type +
                              " but is not [[nodiscard]]; dropping it loses a " +
                              (handle ? "resource handle" : "status result")});
  }
}

// ---- pass 3b: telemetry metric-name convention -----------------------------

bool valid_metric_segment(std::string_view s) {
  if (s.empty()) return false;
  if (s[0] < 'a' || s[0] > 'z') return false;
  for (const char c : s) {
    if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') return false;
  }
  return true;
}

bool valid_metric_name(std::string_view s) {
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = s.find('.', start);
    const std::string_view seg =
        s.substr(start, dot == std::string_view::npos ? s.size() - start : dot - start);
    if (!valid_metric_segment(seg)) return false;
    if (dot == std::string_view::npos) return true;
    start = dot + 1;
  }
}

void metric_name_pass(const FileModel& file, std::vector<Finding>& out) {
  for (const MetricCall& mc : file.metric_calls) {
    if (is_suppressed(file, mc.line, kPassMetricName)) continue;
    if (mc.subsystem_literal && !valid_metric_segment(mc.subsystem)) {
      out.push_back(Finding{kPassMetricName, file.path, mc.line,
                            "metric subsystem \"" + mc.subsystem + "\" violates the " +
                                "[a-z][a-z0-9_]* convention"});
    }
    if (mc.metric_literal && !valid_metric_name(mc.metric)) {
      out.push_back(Finding{kPassMetricName, file.path, mc.line,
                            "metric name \"" + mc.metric + "\" violates the " +
                                "section.metric convention (lowercase dotted segments)"});
    }
  }
}

// ---- pass 3c: raw synchronization primitives in src/ -----------------------

void raw_sync_pass(const FileModel& file, const PassOptions& opt,
                   std::vector<Finding>& out) {
  if (!in_src(file.path, opt) || raw_sync_exempt(file.path, opt)) return;
  for (const RawSyncUse& u : file.raw_sync) {
    if (is_suppressed(file, u.line, kPassRawSync)) continue;
    out.push_back(Finding{kPassRawSync, file.path, u.line,
                          u.type + " in src/; use util::Mutex / util::MutexLock so "
                                   "thread-safety analysis sees it"});
  }
}

}  // namespace

std::vector<Finding> run_passes(const std::vector<FileModel>& files,
                                const PassOptions& options) {
  const AnnotationDb db(files);
  std::vector<Finding> out;
  for (const FileModel& file : files) {
    if (pass_enabled(options, kPassHotAlloc)) {
      HotAllocPass(file, db).run(out);
    }
    if (pass_enabled(options, kPassLockBlocking)) {
      LockBlockingPass(file, db).run(out);
    }
    if (pass_enabled(options, kPassNodiscard)) {
      nodiscard_pass(file, options, db, out);
    }
    if (pass_enabled(options, kPassMetricName)) {
      metric_name_pass(file, out);
    }
    if (pass_enabled(options, kPassRawSync)) {
      raw_sync_pass(file, options, out);
    }
  }
  // Suppressions for sites recorded as facts are filtered at model build;
  // apply the table once more for pass-level findings (call-chain lines).
  std::vector<Finding> kept;
  kept.reserve(out.size());
  for (Finding& f : out) {
    const FileModel* fm = nullptr;
    for (const FileModel& file : files) {
      if (file.path == f.file) {
        fm = &file;
        break;
      }
    }
    if (fm != nullptr && is_suppressed(*fm, f.line, f.pass)) continue;
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.pass < b.pass;
  });
  return kept;
}

}  // namespace netseer::lint
