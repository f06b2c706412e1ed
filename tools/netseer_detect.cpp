// netseer_detect — run the streaming anomaly-detection service over a
// flow-event store directory.
//
//   netseer_detect --store-dir <dir> [--rules <path>] [--checkpoint <path>]
//                  [--from-lsn <n>] [--metrics-out <path>]
//
// --help lists the flags; src/detect/rules.h has the rules file format.
//
// It drains everything durable once, force-closes the open windows,
// prints the alert table, and exits 0 when no alert is active
// (resolved alerts are history, not a page) and 1 otherwise — so the
// exit code is usable from scripts: "did this store contain an
// unresolved anomaly?".
#include <cstdio>
#include <string>

#include "detect/service.h"
#include "telemetry/collect.h"
#include "telemetry/snapshot.h"
#include "util/cli.h"

using namespace netseer;

namespace {

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
  util::CommandLine cli{
      "netseer_detect — drain a flow-event store through the detection service once,\n"
      "print the alert table, and exit 0 when no alert is active, 1 otherwise."};
  cli.flag("store-dir", &store_dir, "store directory to drain (required)")
      .flag("rules", &rules_path, "rule file (default: the built-in rule set)")
      .flag("checkpoint", &options.checkpoint_path,
            "resume-LSN checkpoint file: a restart resumes after the last consumed row")
      .flag("from-lsn", &from_lsn, "start after this LSN (a checkpoint file wins)")
      .flag("metrics-out", &metrics_out, "write a JSON metrics snapshot on exit")
      .parse(argc, argv);
  if (store_dir.empty()) cli.fail("--store-dir is required");

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

  telemetry::Registry registry;
  telemetry::collect(registry, fs);
  telemetry::collect(registry, service);
  if (telemetry::write_metrics(registry, metrics_out) != 0) return 1;
  return service.alerts().stats().active == 0 ? 0 : 1;
}
