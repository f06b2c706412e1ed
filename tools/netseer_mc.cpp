// netseer_mc — run the exhaustive-interleaving model-check harnesses
// (src/mc) and report per-harness exploration statistics through the
// telemetry registry, exportable as a JSON MetricsSnapshot.
//
// A correctness harness passes only when the schedule space is
// EXHAUSTED with no failure; a seeded-bug harness passes only when the
// checker demonstrably catches the planted bug. Exit 0 iff every
// selected harness passed, so CI can gate on this binary directly.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mc/harnesses.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> selected;
  std::string metrics_out;
  std::uint64_t max_schedules = 0;  // 0 = keep the harness's own budget
  std::uint64_t max_steps = 0;
  bool list = false;
  bool trace = false;

  netseer::util::CommandLine cli{
      "netseer_mc — run the exhaustive-interleaving model-check harnesses (src/mc);\n"
      "exit 0 iff every selected harness passed."};
  cli.flag("list", &list, "list harnesses and exit")
      .flag("harness", &selected, "run only this harness")
      .flag("max-schedules", &max_schedules,
            "override the exploration budget; 0 keeps the harness's own")
      .flag("max-steps", &max_steps,
            "override the per-schedule op budget; 0 keeps the harness's own")
      .flag("metrics-out", &metrics_out, "write a JSON metrics snapshot on exit")
      .flag("trace", &trace, "print the failing schedule for every failure")
      .parse(argc, argv);

  const auto& harnesses = netseer::mc::all_harnesses();
  if (list) {
    for (const auto& h : harnesses) {
      std::printf("%-24s %s%s\n", h.name.c_str(), h.summary.c_str(),
                  h.expect_failure ? " [seeded bug]" : "");
    }
    return 0;
  }
  for (const std::string& name : selected) {
    bool known = false;
    for (const auto& h : harnesses) known = known || h.name == name;
    if (!known) cli.fail("no harness named " + name + " (see --list)");
  }

  netseer::telemetry::Registry registry;
  int failures = 0;
  int ran = 0;
  for (const auto& h : harnesses) {
    if (!selected.empty()) {
      bool wanted = false;
      for (const std::string& name : selected) wanted = wanted || name == h.name;
      if (!wanted) continue;
    }
    ++ran;
    netseer::mc::Options options = h.options;
    if (max_schedules != 0) options.max_schedules = max_schedules;
    if (max_steps != 0) options.max_steps = max_steps;
    const auto start = std::chrono::steady_clock::now();
    const netseer::mc::Result result = h.run(options);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    const bool passed = h.passed(result);
    if (!passed) ++failures;

    std::printf("%-24s %s schedules=%llu pruned=%llu steps=%llu depth=%llu exhausted=%d "
                "failed=%d %lldms\n",
                h.name.c_str(), passed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(result.schedules),
                static_cast<unsigned long long>(result.pruned),
                static_cast<unsigned long long>(result.steps),
                static_cast<unsigned long long>(result.max_depth), result.exhausted ? 1 : 0,
                result.failed ? 1 : 0, static_cast<long long>(ms));
    if (result.failed) {
      std::printf("    %s: %s\n", h.expect_failure ? "caught (as expected)" : "failure",
                  result.failure.c_str());
      if (trace || !h.expect_failure) {
        for (const std::string& step : result.trace) std::printf("      %s\n", step.c_str());
      }
    }

    registry.counter("mc", h.name + ".schedules").add(result.schedules);
    registry.counter("mc", h.name + ".pruned").add(result.pruned);
    registry.counter("mc", h.name + ".steps").add(result.steps);
    registry.gauge("mc", h.name + ".max_depth").set(static_cast<std::int64_t>(result.max_depth));
    registry.gauge("mc", h.name + ".exhausted").set(result.exhausted ? 1 : 0);
    registry.gauge("mc", h.name + ".bug_caught").set(result.failed ? 1 : 0);
    registry.gauge("mc", h.name + ".passed").set(passed ? 1 : 0);
    registry.gauge("mc", h.name + ".runtime_ms").set(static_cast<std::int64_t>(ms));
  }

  if (ran == 0) cli.fail("no harness selected");
  if (netseer::telemetry::write_metrics(registry, metrics_out) != 0) return 1;
  std::printf("%d/%d harnesses passed\n", ran - failures, ran);
  return failures == 0 ? 0 : 1;
}
