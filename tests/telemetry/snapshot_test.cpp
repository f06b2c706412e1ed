#include "telemetry/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace netseer::telemetry {
namespace {

Registry populated() {
  Registry reg;
  reg.counter("pdp", "mmu.drops", 1).add(7);
  reg.counter("sim", "events_processed").add(100);  // global: node null/empty
  reg.gauge("core", "ring_buffer.high_water", 2).update_max(31);
  reg.histogram("core", "cpu.batch_size", 2).record(8.0);
  reg.histogram("core", "cpu.batch_size", 2).record(20.0);
  return reg;
}

TEST(MetricsSnapshot, CaptureCopiesState) {
  Registry reg = populated();
  const auto snapshot = MetricsSnapshot::capture(reg);
  reg.counter("pdp", "mmu.drops", 1).add(1000);  // must not affect the copy
  EXPECT_EQ(snapshot.data().total("pdp", "mmu.drops"), 7u);
  EXPECT_FALSE(snapshot.empty());
  EXPECT_TRUE(MetricsSnapshot::capture(Registry{}).empty());
}

TEST(MetricsSnapshot, JsonIsWellFormedAndComplete) {
  const auto snapshot = MetricsSnapshot::capture(populated());
  const std::string json = snapshot.to_json();
  // Structure anchors (bench_fig9_snapshot checks a real run's series).
  EXPECT_NE(json.find("\"counters\": ["), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": ["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mmu.drops\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"node\":null"), std::string::npos);  // global series
  EXPECT_NE(json.find("\"peak\":31"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  // Balanced braces/brackets (no truncation, no stray quotes).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(MetricsSnapshot, WriteFileWritesJsonWhateverTheExtension) {
  const auto snapshot = MetricsSnapshot::capture(populated());
  for (const char* name : {"netseer_snapshot_test.json", "netseer_snapshot_test.csv"}) {
    const std::string path = ::testing::TempDir() + name;
    ASSERT_TRUE(snapshot.write_file(path));
    std::ifstream in(path);
    const std::string written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(written, snapshot.to_json()) << name;
    std::remove(path.c_str());
  }
}

TEST(MetricsSnapshot, WriteFileFailsOnBadPath) {
  const auto snapshot = MetricsSnapshot::capture(populated());
  EXPECT_FALSE(snapshot.write_file("/nonexistent-dir/metrics.json"));
}

TEST(MetricsSnapshot, WriteMetricsReturnsMainsExitStatus) {
  const Registry reg = populated();
  const std::string path = ::testing::TempDir() + "netseer_write_metrics_test.json";
  std::remove(path.c_str());
  EXPECT_EQ(write_metrics(reg, path), 0);
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(json, MetricsSnapshot::capture(reg).to_json());
  std::remove(path.c_str());
  // No --metrics-out: nothing to write, and nothing failed.
  EXPECT_EQ(write_metrics(reg, ""), 0);
  // A path through a regular file can never be created.
  EXPECT_EQ(write_metrics(reg, "/dev/null/metrics.json"), 1);
}

TEST(MetricsSnapshot, JsonEscapesControlAndQuoteCharacters) {
  Registry reg;
  // NETSEER_LINT_ALLOW(metric-name): hostile names are the point here.
  reg.counter("weird\"sub", "na\\me\n", 0).add(1);
  const std::string json = MetricsSnapshot::capture(reg).to_json();
  EXPECT_NE(json.find("weird\\\"sub"), std::string::npos);
  EXPECT_NE(json.find("na\\\\me\\n"), std::string::npos);
}

}  // namespace
}  // namespace netseer::telemetry
