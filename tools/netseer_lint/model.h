#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace netseer::lint {

/// One function as the passes see it: identity, discipline annotations,
/// and the body facts the passes consume (outgoing calls, allocation
/// evidence, blocking operations — each stamped with how many lock
/// scopes were held at the site).
struct FunctionModel {
  std::string qualified;   // Namespace::Class::name (best effort)
  std::string name;        // trailing identifier ("operator()" and kin spelled out)
  std::string return_type; // normalized token join; empty for ctors/dtors
  std::string file;
  int line = 0;
  bool is_definition = false;
  /// Out-of-line definition (`X::f() {...}`): its [[nodiscard]] lives on
  /// the in-class declaration, so the discipline pass skips it.
  bool has_explicit_qualifier = false;

  bool hot = false;          // NETSEER_HOT
  bool allow_init = false;   // NETSEER_HOT_ALLOW_INIT
  bool blocking = false;     // NETSEER_BLOCKING
  bool nodiscard = false;    // [[nodiscard]] present
  bool requires_lock = false;  // NETSEER_REQUIRES(...): body runs with a lock held

  struct Call {
    std::string name;    // callee identifier
    std::string prefix;  // `ns` of `ns::name(...)`; empty for plain/global calls
    int line = 0;
    bool receiver = false;  // x.name(...) or x->name(...)
    int locks = 0;          // lock scopes held at the call site
  };
  struct Alloc {
    std::string what;  // "operator new", "malloc", ".push_back", ...
    int line = 0;
  };
  struct BlockingOp {
    std::string what;
    int line = 0;
    int locks = 0;
    bool cv_wait = false;  // condition-variable wait (own-lock wait is legal)
  };

  std::vector<Call> calls;
  std::vector<Alloc> allocs;
  std::vector<BlockingOp> blocking_ops;
};

/// A telemetry registration site: registry.counter("subsystem", "name").
struct MetricCall {
  std::string method;  // counter | gauge | histogram
  std::string subsystem;
  std::string metric;
  bool subsystem_literal = false;  // false: argument was not a string literal
  bool metric_literal = false;
  int line = 0;
};

struct RawSyncUse {
  std::string type;  // "std::mutex", "std::shared_mutex", ...
  int line = 0;
};

/// Everything the passes need to know about one scanned file.
struct FileModel {
  std::string path;
  std::vector<FunctionModel> functions;
  std::vector<MetricCall> metric_calls;
  std::vector<RawSyncUse> raw_sync;  // std::mutex family (util::Mutex required)

  /// line -> pass names silenced there (NETSEER_LINT_ALLOW(pass): why).
  /// Suppressed allocation/blocking facts are already dropped from the
  /// FunctionModels; this remains for the direct discipline findings.
  std::map<int, std::set<std::string>> suppressions;
  /// line -> pass names a fixture expects a diagnostic for (LINT-EXPECT).
  std::multimap<int, std::string> expectations;
};

/// Build the model for one lexed file. Suppressed fact sites (see
/// FileModel::suppressions) are filtered out here so the interprocedural
/// walks never see them.
FileModel build_model(const TokenStream& stream);

/// True when `line` carries a suppression for `pass` in `model`.
bool is_suppressed(const FileModel& model, int line, const std::string& pass);

}  // namespace netseer::lint
