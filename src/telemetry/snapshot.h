#pragma once

#include <string>

#include "telemetry/metrics.h"

namespace netseer::telemetry {

/// Immutable copy of a Registry's state, exportable as JSON.
/// Capture once at the end of a run; the registry keeps mutating.
class MetricsSnapshot {
 public:
  static MetricsSnapshot capture(const Registry& registry);

  /// One JSON object: {"counters": [...], "gauges": [...], "histograms":
  /// [...]}. Every series entry carries subsystem/name/node. Machine-
  /// parseable by any JSON reader (and `jq`); no external library used.
  [[nodiscard]] std::string to_json() const;

  /// Write the JSON to `path` through util::write_file (so /dev/stdout
  /// follows the program's own output). Returns false on I/O failure.
  bool write_file(const std::string& path) const;

  [[nodiscard]] const Registry& data() const { return data_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

 private:
  Registry data_;
};

/// The --metrics-out writer of every program: capture `registry` and
/// write it to `path` as JSON. Returns main's exit status: 0 when
/// written, or when `path` is empty (no snapshot was asked for); 1, after
/// one message on stderr, when the file cannot be written.
[[nodiscard]] int write_metrics(const Registry& registry, const std::string& path);

}  // namespace netseer::telemetry
