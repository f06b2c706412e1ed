// netseer_detect — run the streaming anomaly-detection service over a
// flow-event store directory.
//
//   netseer_detect --store-dir <dir> [options]
//
//   --store-dir <dir>       store directory to drain (required)
//   --rules <path>          rule file (see src/detect/rules.h); default
//                           is the built-in RuleSet::defaults()
//   --checkpoint <path>     resume-LSN checkpoint file: restarts resume
//                           exactly-once after the last consumed row
//   --from-lsn <n>          start after LSN n (ignored when a checkpoint
//                           file exists)
//   --metrics-out <path>    write a metrics snapshot on exit
//                           (.csv => CSV, else JSON)
//
// It drains everything durable once, force-closes the open windows,
// prints the alert table, and exits 0 when no alert is active
// (resolved alerts are history, not a page) and 1 otherwise — so the
// exit code is usable from scripts: "did this store contain an
// unresolved anomaly?".
#include <cstdio>
#include <cstring>
#include <string>

#include "detect/service.h"
#include "telemetry/collect.h"
#include "telemetry/snapshot.h"
#include "util/parse.h"

using namespace netseer;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --store-dir <dir> [--rules <path>] [--checkpoint <path>]\n"
               "          [--from-lsn <n>] [--metrics-out <path>]\n",
               argv0);
  return 2;
}

void print_alerts(const detect::AlertManager& alerts) {
  if (alerts.alerts().empty()) {
    std::printf("no alerts\n");
    return;
  }
  std::printf("%zu alert(s):\n", alerts.alerts().size());
  for (const detect::Alert& alert : alerts.alerts()) {
    std::printf("  [%s] %-12s %-8s switch=%-6u group=%-12llu raised_at=%lld "
                "windows=%u flaps=%u peak=%.1f flow=%s\n",
                detect::to_string(alert.state), alert.rule->name.c_str(),
                detect::to_string(alert.severity), alert.key.switch_id,
                static_cast<unsigned long long>(alert.key.group),
                static_cast<long long>(alert.raised_at), alert.firing_windows, alert.flaps,
                alert.peak_value, alert.sample.flow.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir;
  std::string rules_path;
  std::string metrics_out;
  detect::DetectOptions options;
  std::uint64_t from_lsn = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--store-dir") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      store_dir = v;
    } else if (arg == "--rules") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      rules_path = v;
    } else if (arg == "--checkpoint") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      options.checkpoint_path = v;
    } else if (arg == "--from-lsn") {
      const char* v = value();
      if (v == nullptr || !util::parse_number(v, from_lsn)) return usage(argv[0]);
    } else if (arg == "--metrics-out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      metrics_out = v;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (store_dir.empty()) return usage(argv[0]);

  if (!rules_path.empty()) {
    std::string error;
    auto rules = detect::load_rules(rules_path, &error);
    if (!rules) {
      std::fprintf(stderr, "netseer_detect: bad rules file: %s\n", error.c_str());
      return 2;
    }
    options.rules = std::move(*rules);
  }

  store::StoreOptions store_options;
  store_options.dir = store_dir;
  store::FlowEventStore fs(store_options);
  std::printf("netseer_detect: %zu events in %s, durable LSN %llu, %zu rule(s)\n",
              fs.size(), store_dir.c_str(),
              static_cast<unsigned long long>(fs.durable_lsn()), options.rules.rules.size());

  options.from_lsn = from_lsn;  // a checkpoint file, when present, wins
  detect::DetectService service(fs, std::move(options));
  if (service.stats().resumed) {
    std::printf("resumed from checkpoint LSN %llu\n",
                static_cast<unsigned long long>(service.stats().resumed_lsn));
  }

  service.pump();
  service.finish();

  print_alerts(service.alerts());
  const auto& stats = service.stats();
  std::printf("%llu row(s) in %llu pump(s), %llu checkpoint(s); last LSN %llu\n",
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.pumps),
              static_cast<unsigned long long>(stats.checkpoints),
              static_cast<unsigned long long>(service.subscription().last_lsn()));

  if (!metrics_out.empty()) {
    telemetry::Registry registry;
    telemetry::collect(registry, fs);
    telemetry::collect(registry, service);
    const auto snapshot = telemetry::MetricsSnapshot::capture(registry);
    if (!snapshot.write_file(metrics_out)) {
      std::fprintf(stderr, "netseer_detect: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
  }
  return service.alerts().stats().active == 0 ? 0 : 1;
}
