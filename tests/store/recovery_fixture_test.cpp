// Recovery over the checked-in torn-WAL fixtures:
//
//   tests/store/fixtures/torn_wal      `netseer_store gen <dir> 600 9000`
//   tests/store/fixtures/writer_crash  `netseer_store gen <dir> 600 9000 group`
//
// Both hold the same 600-event stream with the WAL torn mid-record by
// the fault injector, no clean shutdown, no sealed segments. The first
// was written through the inline per-batch path; the second through the
// async group-commit writer (add_batch, watermark-only acks), so its
// tear lands inside an open fsync group spanning several batches.
// Recovery must treat them identically: keep the longest valid record
// prefix (492 rows for both — the tear offset cuts the same row), flag
// the torn tail, and a checkpoint must turn the directory into clean
// segments that reopen without replaying anything.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "scan_rows.h"
#include "store/store.h"

#ifndef NETSEER_TEST_DIR
#error "NETSEER_TEST_DIR must point at the tests/ source directory"
#endif

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFixtureRows = 492;  // complete records before the tear

class TornFixtureTest : public ::testing::Test {
 protected:
  explicit TornFixtureTest(const char* fixture_name) : fixture_name_(fixture_name) {}

  void SetUp() override {
    const auto fixture = fs::path(NETSEER_TEST_DIR) / "store" / "fixtures" / fixture_name_;
    ASSERT_TRUE(fs::exists(fixture)) << fixture;
    // Suffix with the fixture and case name: ctest runs each case as its
    // own process, possibly in parallel with siblings.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("netseer_recovery_fixture_test.") + fixture_name_ + "." +
             info->name()))
               .string();
    fs::remove_all(dir_);
    fs::copy(fixture, dir_, fs::copy_options::recursive);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StoreOptions opened() const {
    StoreOptions options;
    options.dir = dir_;
    return options;
  }

  std::string fixture_name_;
  std::string dir_;
};

class RecoveryFixtureTest : public TornFixtureTest {
 protected:
  RecoveryFixtureTest() : TornFixtureTest("torn_wal") {}
};

class WriterCrashFixtureTest : public TornFixtureTest {
 protected:
  WriterCrashFixtureTest() : TornFixtureTest("writer_crash") {}
};

TEST_F(RecoveryFixtureTest, ReplaysLongestValidPrefixAndFlagsTornTail) {
  FlowEventStore store(opened());
  const auto& recovery = store.recovery();
  EXPECT_TRUE(recovery.ran);
  EXPECT_TRUE(recovery.torn_tail);
  EXPECT_EQ(recovery.segments_loaded, 0u);
  EXPECT_EQ(recovery.wal_rows_replayed, kFixtureRows);
  EXPECT_EQ(recovery.max_lsn, kFixtureRows);
  EXPECT_EQ(store.size(), kFixtureRows);

  // The replayed rows are a sane, fully-decoded stream.
  const auto rows = scan_rows(store);
  ASSERT_EQ(rows.size(), kFixtureRows);
  for (const auto& stored : rows) {
    EXPECT_NE(stored.event.switch_id, util::kInvalidNode);
    EXPECT_GE(stored.stored_at, stored.event.detected_at);
  }
}

TEST_F(RecoveryFixtureTest, CheckpointThenReopenIsClean) {
  {
    FlowEventStore store(opened());
    store.checkpoint();
  }
  FlowEventStore reopened(opened());
  EXPECT_FALSE(reopened.recovery().torn_tail);
  EXPECT_EQ(reopened.recovery().wal_rows_replayed, 0u);
  EXPECT_EQ(reopened.recovery().segment_rows, kFixtureRows);
  EXPECT_EQ(reopened.size(), kFixtureRows);
}

// The group-commit fixture recovers to the exact same state: torn
// records never ack, so a tear mid-fsync-group loses only the open
// group's tail, never an acknowledged row.
TEST_F(WriterCrashFixtureTest, GroupCommitTearRecoversTheSamePrefix) {
  FlowEventStore store(opened());
  const auto& recovery = store.recovery();
  EXPECT_TRUE(recovery.ran);
  EXPECT_TRUE(recovery.torn_tail);
  EXPECT_EQ(recovery.segments_loaded, 0u);
  EXPECT_EQ(recovery.wal_rows_replayed, kFixtureRows);
  EXPECT_EQ(recovery.max_lsn, kFixtureRows);
  EXPECT_EQ(store.size(), kFixtureRows);
  // Nothing past the tear can be inside the recovered durable range.
  EXPECT_LE(store.durable_watermark(), kFixtureRows);
}

TEST_F(WriterCrashFixtureTest, CheckpointThenReopenIsClean) {
  {
    FlowEventStore store(opened());
    store.checkpoint();
  }
  FlowEventStore reopened(opened());
  EXPECT_FALSE(reopened.recovery().torn_tail);
  EXPECT_EQ(reopened.recovery().wal_rows_replayed, 0u);
  EXPECT_EQ(reopened.recovery().segment_rows, kFixtureRows);
  EXPECT_EQ(reopened.size(), kFixtureRows);
}

// The two fixtures were written through different ingest paths but
// carry the same logical stream: recovered events must agree row by
// row (stored_at legitimately differs — the batch path stamps a batch
// timestamp).
TEST_F(WriterCrashFixtureTest, RecoveredRowsMatchTheInlineFixture) {
  const auto inline_fixture =
      fs::path(NETSEER_TEST_DIR) / "store" / "fixtures" / "torn_wal";
  const auto inline_dir =
      (fs::temp_directory_path() / "netseer_recovery_fixture_test.inline_twin").string();
  fs::remove_all(inline_dir);
  fs::copy(inline_fixture, inline_dir, fs::copy_options::recursive);

  FlowEventStore group_store(opened());
  StoreOptions inline_options;
  inline_options.dir = inline_dir;
  FlowEventStore inline_store(inline_options);

  const auto group_rows = scan_rows(group_store);
  const auto inline_rows = scan_rows(inline_store);
  ASSERT_EQ(group_rows.size(), inline_rows.size());
  for (std::size_t i = 0; i < group_rows.size(); ++i) {
    ASSERT_EQ(group_rows[i].event, inline_rows[i].event) << "row " << i;
  }
  fs::remove_all(inline_dir);
}

}  // namespace
}  // namespace netseer::store
