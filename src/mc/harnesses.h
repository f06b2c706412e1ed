#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mc/runtime.h"

namespace netseer::mc {

/// One model-check harness: a small fixed-thread-count miniature of one
/// of the engine's concurrency protocols, explored exhaustively by
/// mc::explore. Seeded-bug harnesses (expect_failure) exist to prove the
/// checker's teeth: the run "passes" only if the checker finds the
/// planted bug.
struct Harness {
  std::string name;
  std::string summary;
  bool expect_failure = false;
  Options options;
  std::function<Result(const Options&)> run;

  /// Did the exploration do what this harness demands? Correctness
  /// harnesses must exhaust the schedule space with no failure;
  /// seeded-bug harnesses must produce a failure.
  [[nodiscard]] bool passed(const Result& result) const {
    return expect_failure ? result.failed : result.ok();
  }
};

/// Registry of every shipped harness, in run order.
const std::vector<Harness>& all_harnesses();

}  // namespace netseer::mc
