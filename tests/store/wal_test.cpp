#include "store/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/event.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the case name: ctest runs each case as its own process,
    // possibly in parallel with siblings.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("netseer_wal_test.") + info->name())).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Row row(std::uint64_t lsn, std::uint16_t sport = 99) {
    auto ev = core::make_event(core::EventType::kDrop,
                               packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                               packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                                               sport, 80},
                               /*switch_id=*/3, /*now=*/static_cast<util::SimTime>(lsn * 10));
    return Row{backend::StoredEvent{ev, static_cast<util::SimTime>(lsn * 10 + 5)}, lsn};
  }

  static std::vector<Row> rows(std::uint64_t first_lsn, std::size_t n) {
    std::vector<Row> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(row(first_lsn + i, static_cast<std::uint16_t>(100 + i)));
    }
    return out;
  }

  std::string dir_;
};

TEST_F(WalTest, AppendSyncReplayRoundTrip) {
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 5)));
    ASSERT_TRUE(writer.append(rows(6, 3)));
    ASSERT_TRUE(writer.sync());
  }
  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(result.rows, 8u);
  EXPECT_EQ(result.max_lsn, 8u);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(replayed.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(replayed[i].lsn, i + 1);
    EXPECT_EQ(replayed[i].stored.event.flow.sport, 100 + (i % 5));
  }
}

TEST_F(WalTest, WatermarkSkipsSealedRows) {
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 10)));
  }
  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 7, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_EQ(result.skipped_rows, 7u);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed.front().lsn, 8u);
}

TEST_F(WalTest, RotatesAtSegmentBytes) {
  WalWriter::Options options;
  options.dir = dir_;
  options.segment_bytes = 256;  // a couple of records per file
  WalWriter writer(options);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.append(rows(1 + i * 4, 4)));
  }
  ASSERT_TRUE(writer.sync());  // flush stdio buffering before replaying
  EXPECT_GT(writer.files_opened(), 5u);
  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_EQ(result.rows, 80u);
  EXPECT_GT(result.files, 5u);
  EXPECT_FALSE(result.torn_tail);
}

TEST_F(WalTest, RemoveObsoleteReclaimsCoveredFiles) {
  WalWriter::Options options;
  options.dir = dir_;
  options.segment_bytes = 256;
  WalWriter writer(options);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.append(rows(1 + i * 4, 4)));
  }
  ASSERT_TRUE(writer.sync());
  const auto before = list_wal_files(dir_).size();
  EXPECT_GT(writer.remove_obsolete(40), 0u);
  EXPECT_LT(list_wal_files(dir_).size(), before);
  // Rows above the watermark must still replay.
  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 40, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(replayed.size(), 40u);
  EXPECT_EQ(result.max_lsn, 80u);
}

TEST_F(WalTest, TornTailStopsReplayCleanly) {
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 4)));
    ASSERT_TRUE(writer.append(rows(5, 4)));
  }
  // Tear bytes off the end: the second record becomes unreadable, the
  // first must survive untouched.
  const auto files = list_wal_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0].path, files[0].bytes - 30);

  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.records, 1u);
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed.back().lsn, 4u);
}

TEST_F(WalTest, TornFileDoesNotHideLaterFiles) {
  // Crash cycle 1 tears wal-1; a recovered writer then fills wal-2 with
  // acknowledged rows. Replay must deliver wal-1's valid prefix AND all
  // of wal-2, and list wal-2 with its highest LSN so the next writer
  // numbers past it and reclaims it only once those rows are sealed.
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 4)));
    ASSERT_TRUE(writer.append(rows(5, 4)));
  }
  const auto files = list_wal_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0].path, files[0].bytes - 30);  // tear the second record
  {
    WalWriter writer({dir_}, list_wal_files(dir_));
    ASSERT_TRUE(writer.append(rows(5, 6)));  // LSNs 5..10 reissued post-recovery
    ASSERT_TRUE(writer.sync());
  }

  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(result.wal_files.size(), 2u);
  EXPECT_EQ(result.wal_files[0].max_lsn, 4u);  // the valid prefix
  EXPECT_EQ(result.wal_files[1].index, 2u);
  EXPECT_EQ(result.wal_files[1].max_lsn, 10u);
  ASSERT_EQ(replayed.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(replayed[i].lsn, i + 1);
}

TEST_F(WalTest, RepairTruncatesTornTailForCleanReplays) {
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 4)));
    ASSERT_TRUE(writer.append(rows(5, 4)));
  }
  const auto files = list_wal_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0].path, files[0].bytes - 30);

  std::vector<Row> replayed;
  auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); },
                               /*repair=*/true);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.repaired_files, 1u);
  ASSERT_EQ(replayed.size(), 4u);

  // The torn tail is gone: replaying again is clean and sees the same
  // valid prefix.
  replayed.clear();
  result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.repaired_files, 0u);
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed.back().lsn, 4u);
}

TEST_F(WalTest, ZeroByteFileReplaysAsCleanEmpty) {
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 4)));
    ASSERT_TRUE(writer.sync());
  }
  // A crash between rotation and the buffered header write leaves a
  // zero-byte file: no records were ever visible, so it is not torn.
  std::ofstream((fs::path(dir_) / "wal-00000002.log").string(), std::ios::binary);
  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.wal_files.size(), 2u);
  EXPECT_EQ(result.wal_files[1].index, 2u);
  EXPECT_EQ(result.wal_files[1].max_lsn, 0u);
  EXPECT_EQ(replayed.size(), 4u);
}

TEST_F(WalTest, OversizedBatchSplitsIntoMultipleRecords) {
  // More rows than the u16 record count can hold: append must frame
  // several records, and every row must replay.
  constexpr std::size_t kBig = (1u << 16) + 10;
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, kBig)));
    ASSERT_TRUE(writer.sync());
  }
  std::uint64_t n = 0;
  std::uint64_t last_lsn = 0;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) {
    ++n;
    last_lsn = r.lsn;
  });
  EXPECT_FALSE(result.torn_tail);
  EXPECT_GE(result.records, 2u);
  EXPECT_EQ(n, kBig);
  EXPECT_EQ(last_lsn, kBig);
}

TEST_F(WalTest, CorruptPayloadByteFailsCrc) {
  {
    WalWriter writer({dir_});
    ASSERT_TRUE(writer.append(rows(1, 4)));
  }
  const auto files = list_wal_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  {
    std::fstream f(files[0].path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(files[0].bytes) - 10);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(replayed.size(), 0u);
}

TEST_F(WalTest, FaultBudgetTearsMidRecordAndKillsWriter) {
  WalWriter writer({dir_});
  ASSERT_TRUE(writer.append(rows(1, 4)));
  writer.fail_after_bytes(30);  // next record tears 30 bytes in
  EXPECT_FALSE(writer.append(rows(5, 4)));
  EXPECT_TRUE(writer.dead());
  EXPECT_FALSE(writer.append(rows(9, 4)));  // stays dead
  EXPECT_FALSE(writer.sync());

  std::vector<Row> replayed;
  const auto result = replay_wal_dir(dir_, 0, [&](Row&& r) { replayed.push_back(r); });
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(replayed.size(), 4u);
}

TEST_F(WalTest, EmptyDirReplaysToNothing) {
  const auto result = replay_wal_dir(dir_, 0, [](Row&&) { FAIL(); });
  EXPECT_EQ(result.files, 0u);
  EXPECT_EQ(result.max_lsn, 0u);
  EXPECT_FALSE(result.torn_tail);
}

}  // namespace
}  // namespace netseer::store
