#include "telemetry/snapshot.h"

#include <cstdio>

#include "util/json.h"
#include "util/output.h"

namespace netseer::telemetry {

namespace {

void append_key(std::string& out, const MetricKey& key) {
  out += "\"subsystem\":";
  util::append_json_string(out, key.subsystem);
  out += ",\"name\":";
  util::append_json_string(out, key.name);
  out += ",\"node\":";
  if (key.node == util::kInvalidNode) {
    out += "null";
  } else {
    out += std::to_string(key.node);
  }
}

}  // namespace

MetricsSnapshot MetricsSnapshot::capture(const Registry& registry) {
  MetricsSnapshot snapshot;
  snapshot.data_ = registry;  // value copy: maps of POD-ish cells
  return snapshot;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": [";
  bool first = true;
  for (const auto& [key, counter] : data_.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    append_key(out, key);
    out += ",\"value\":" + std::to_string(counter.value()) + "}";
  }
  out += "\n  ],\n  \"gauges\": [";
  first = true;
  for (const auto& [key, gauge] : data_.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    append_key(out, key);
    out += ",\"value\":" + std::to_string(gauge.value());
    out += ",\"peak\":" + std::to_string(gauge.peak()) + "}";
  }
  out += "\n  ],\n  \"histograms\": [";
  first = true;
  for (const auto& [key, histogram] : data_.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    append_key(out, key);
    const auto& summary = histogram.summary();
    out += ",\"count\":" + std::to_string(summary.count());
    out += ",\"sum\":";
    util::append_json_double(out, summary.sum());
    out += ",\"mean\":";
    util::append_json_double(out, summary.mean());
    out += ",\"min\":";
    util::append_json_double(out, summary.min());
    out += ",\"max\":";
    util::append_json_double(out, summary.max());
    // Sparse bucket list: [[inclusive_low, count], ...], empties skipped.
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (histogram.buckets()[i] == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += '[';
      util::append_json_double(out, Histogram::bucket_low(i));
      out += ',' + std::to_string(histogram.buckets()[i]) + ']';
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool MetricsSnapshot::write_file(const std::string& path) const {
  return util::write_file(path, to_json());
}

int write_metrics(const Registry& registry, const std::string& path) {
  if (path.empty()) return 0;
  if (!MetricsSnapshot::capture(registry).write_file(path)) {
    std::fprintf(stderr, "failed to write metrics snapshot to %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "metrics snapshot (%zu series) written to %s\n", registry.size(),
               path.c_str());
  return 0;
}

}  // namespace netseer::telemetry
