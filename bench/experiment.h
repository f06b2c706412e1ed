#pragma once

#include <optional>
#include <string>

#include "packet/flow_key.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "util/cli.h"
#include "util/rng.h"

namespace netseer::bench {

/// Static-verification behaviour of an experiment run (--verify flags).
enum class VerifyMode {
  kOff = 0,  // construct and run without checking
  kOn,       // verify the constructed deployment; abort the run on errors
  kStrict,   // also abort on warnings
};

/// The command line of every bench binary and of netseer_sim: the util
/// parser with --metrics-out=<path> (collect a telemetry snapshot,
/// written by write_metrics()), plus --verify[=strict] for the programs
/// that verify a deployment before running it (verify_flag()). Bind a
/// binary's own flags with flag(), then parse():
///
///   int duration_ms = 20;
///   ExperimentOptions cli{"Figures 9, 10, 11 and 13 — the §5.2 workload sweep"};
///   cli.verify_flag().flag("duration-ms", &duration_ms, "simulated run length");
///   cli.parse(argc, argv);
class ExperimentOptions : public util::CommandLine {
 public:
  explicit ExperimentOptions(std::string summary);
  // The built-in flags write into this object's members.
  ExperimentOptions(const ExperimentOptions&) = delete;
  ExperimentOptions& operator=(const ExperimentOptions&) = delete;

  /// Bind --verify[=strict]: statically verify the deployment before
  /// running. Only programs that verify a deployment take the flag.
  ExperimentOptions& verify_flag();

  /// The --verify[=strict] switch as a mode.
  [[nodiscard]] VerifyMode verify() const {
    if (!verify_) return VerifyMode::kOff;
    return verify_->empty() ? VerifyMode::kOn : VerifyMode::kStrict;
  }

  [[nodiscard]] telemetry::Registry& registry() { return registry_; }
  /// Registry pointer for APIs taking an optional sink; null when
  /// --metrics-out was not given (skips collection on hot benches).
  [[nodiscard]] telemetry::Registry* sink() { return metrics_enabled() ? &registry_ : nullptr; }
  [[nodiscard]] bool metrics_enabled() const { return !metrics_path_.empty(); }

  /// Write the --metrics-out snapshot if one was asked for; main's exit
  /// status (see telemetry::write_metrics).
  [[nodiscard]] int write_metrics() const {
    return telemetry::write_metrics(registry_, metrics_path_);
  }

 private:
  telemetry::Registry registry_;
  std::string metrics_path_;
  std::optional<std::string> verify_;
};

/// A random TCP flow to port 80: random addresses and source port, drawn
/// in that order, so a seed fixes the sequence of flows in every bench
/// that draws them.
[[nodiscard]] packet::FlowKey random_flow(util::Rng& rng);

}  // namespace netseer::bench
