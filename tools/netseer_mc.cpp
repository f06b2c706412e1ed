// netseer_mc — run the exhaustive-interleaving model-check harnesses
// (src/mc) and report per-harness exploration statistics through the
// telemetry registry, exportable as a MetricsSnapshot (JSON/CSV).
//
// A correctness harness passes only when the schedule space is
// EXHAUSTED with no failure; a seeded-bug harness passes only when the
// checker demonstrably catches the planted bug. Exit 0 iff every
// selected harness passed, so CI can gate on this binary directly.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mc/harnesses.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "util/parse.h"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: netseer_mc [options]\n"
               "  --list                 list harnesses and exit\n"
               "  --harness NAME         run only NAME (repeatable)\n"
               "  --max-schedules N      override the exploration budget\n"
               "  --max-steps N          override the per-schedule op budget\n"
               "  --metrics-out PATH     write a metrics snapshot (.csv => CSV, else JSON)\n"
               "  --trace                print the failing schedule for every failure\n"
               "  --help                 this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> selected;
  std::string metrics_out;
  std::uint64_t max_schedules = 0;  // 0 = keep the harness's own budget
  std::uint64_t max_steps = 0;
  bool list = false;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "netseer_mc: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&]() -> std::uint64_t {
      const char* text = value();
      std::uint64_t n = 0;
      if (!netseer::util::parse_number(text, n)) {
        std::fprintf(stderr, "netseer_mc: %s needs a number, got '%s'\n", arg.c_str(), text);
        std::exit(2);
      }
      return n;
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--harness") {
      selected.emplace_back(value());
    } else if (arg == "--max-schedules") {
      max_schedules = number();
    } else if (arg == "--max-steps") {
      max_steps = number();
    } else if (arg == "--metrics-out") {
      metrics_out = value();
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "netseer_mc: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

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
    if (!known) {
      std::fprintf(stderr, "netseer_mc: no harness named %s (see --list)\n", name.c_str());
      return 2;
    }
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

  if (ran == 0) {
    std::fprintf(stderr, "netseer_mc: no harness selected\n");
    return 2;
  }
  if (!metrics_out.empty()) {
    const auto snapshot = netseer::telemetry::MetricsSnapshot::capture(registry);
    if (!snapshot.write_file(metrics_out)) {
      std::fprintf(stderr, "netseer_mc: cannot write %s\n", metrics_out.c_str());
      return 1;  // runtime failure, not a usage error
    }
  }
  std::printf("%d/%d harnesses passed\n", ran - failures, ran);
  return failures == 0 ? 0 : 1;
}
