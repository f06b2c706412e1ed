#include "store/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/event.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the case name: ctest runs each case as its own process,
    // possibly in parallel with siblings.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("netseer_segment_test.") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Row row(std::uint64_t lsn, util::NodeId node, std::uint16_t sport,
                 core::EventType type = core::EventType::kDrop) {
    auto ev = core::make_event(type,
                               packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                               packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                                               sport, 80},
                               node, static_cast<util::SimTime>(lsn * 100));
    return Row{backend::StoredEvent{ev, static_cast<util::SimTime>(lsn * 100 + 7)}, lsn};
  }

  /// LSNs of the rows on `chain` that `query` matches, in chain order;
  /// also checks the chain links exactly as many rows as it counts.
  static std::vector<std::uint64_t> matching_lsns(const Segment& segment,
                                                  RowChains::Chain chain,
                                                  const backend::EventQuery& query) {
    std::vector<std::uint64_t> lsns;
    std::uint32_t linked = 0;
    for (std::uint32_t i = chain.head; i != RowChains::kEnd;
         i = segment.chains().next(chain.key, i)) {
      ++linked;
      if (query.matches(segment.rows()[i].stored)) lsns.push_back(segment.rows()[i].lsn);
    }
    EXPECT_EQ(linked, chain.count);
    return lsns;
  }

  std::string dir_;
};

TEST_F(SegmentTest, BuildComputesFencesAndIndexes) {
  std::vector<Row> rows{row(10, 1, 1000), row(11, 2, 1001), row(12, 1, 1000),
                        row(13, 3, 1002, core::EventType::kCongestion)};
  const auto segment = Segment::build(std::move(rows));
  EXPECT_EQ(segment.size(), 4u);
  EXPECT_EQ(segment.min_lsn(), 10u);
  EXPECT_EQ(segment.max_lsn(), 13u);
  EXPECT_EQ(segment.min_time(), 1000);
  EXPECT_EQ(segment.max_time(), 1300);

  const RowChains& chains = segment.chains();
  EXPECT_EQ(chains.size(), 4u);
  EXPECT_EQ(chains.type_chain(core::EventType::kDrop).count, 3u);
  EXPECT_EQ(chains.type_chain(core::EventType::kCongestion).count, 1u);
  EXPECT_EQ(chains.type_chain(core::EventType::kPause).count, 0u);

  const auto flow = row(0, 1, 1000).stored.event.flow;
  EXPECT_EQ(matching_lsns(segment, chains.flow_chain(flow), backend::EventQuery{}.for_flow(flow)),
            (std::vector<std::uint64_t>{10, 12}));
  EXPECT_EQ(matching_lsns(segment, chains.switch_chain(1), backend::EventQuery{}.for_switch(1)),
            (std::vector<std::uint64_t>{10, 12}));
  EXPECT_TRUE(
      matching_lsns(segment, chains.switch_chain(99), backend::EventQuery{}.for_switch(99))
          .empty());
}

TEST_F(SegmentTest, OverlapUsesFences) {
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});  // times 100..200
  EXPECT_TRUE(segment.overlaps(std::nullopt, std::nullopt));
  EXPECT_TRUE(segment.overlaps(100, 101));
  EXPECT_TRUE(segment.overlaps(200, std::nullopt));
  EXPECT_FALSE(segment.overlaps(201, std::nullopt));  // starts past max_time
  EXPECT_FALSE(segment.overlaps(std::nullopt, 100));  // to exclusive
  EXPECT_TRUE(segment.overlaps(std::nullopt, 101));
}

TEST_F(SegmentTest, SaveLoadRoundTrip) {
  std::vector<Row> rows;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rows.push_back(row(50 + i, static_cast<util::NodeId>(i % 4),
                       static_cast<std::uint16_t>(2000 + i % 16)));
  }
  const auto segment = Segment::build(std::move(rows));
  const auto path = segment_path(dir_, 7);
  ASSERT_TRUE(segment.save(path));

  const auto loaded = Segment::load(path, 7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->file_id(), 7u);
  ASSERT_EQ(loaded->size(), 100u);
  EXPECT_EQ(loaded->min_lsn(), 50u);
  EXPECT_EQ(loaded->max_lsn(), 149u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(loaded->rows()[i].lsn, segment.rows()[i].lsn);
    EXPECT_EQ(loaded->rows()[i].stored.event, segment.rows()[i].stored.event);
    EXPECT_EQ(loaded->rows()[i].stored.stored_at, segment.rows()[i].stored.stored_at);
  }
  // The index is rebuilt on load: every fourth row is switch 1's.
  const auto switch1 =
      matching_lsns(*loaded, loaded->chains().switch_chain(1), backend::EventQuery{}.for_switch(1));
  ASSERT_EQ(switch1.size(), 25u);
  EXPECT_EQ(switch1.front(), 51u);
  EXPECT_TRUE(std::is_sorted(switch1.begin(), switch1.end()));
}

TEST_F(SegmentTest, LoadRejectsFlippedByte) {
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});
  const auto path = segment_path(dir_, 1);
  ASSERT_TRUE(segment.save(path));
  const auto size = fs::file_size(path);
  for (const std::uintmax_t offset : {std::uintmax_t{10}, size / 2, size - 2}) {
    auto bytes = [&] {
      std::ifstream in(path, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in), {});
    }();
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    const auto mangled = (fs::path(dir_) / "mangled.seg").string();
    std::ofstream(mangled, std::ios::binary) << bytes;
    EXPECT_FALSE(Segment::load(mangled, 1).has_value()) << "offset " << offset;
  }
}

TEST_F(SegmentTest, LoadRejectsTruncation) {
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});
  const auto path = segment_path(dir_, 1);
  ASSERT_TRUE(segment.save(path));
  const auto size = fs::file_size(path);
  for (std::uintmax_t keep = 0; keep < size; keep += 7) {
    const auto cut = (fs::path(dir_) / "cut.seg").string();
    fs::copy_file(path, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, keep);
    EXPECT_FALSE(Segment::load(cut, 1).has_value()) << "kept " << keep << " bytes";
  }
}

TEST_F(SegmentTest, LoadRejectsTrailingBytes) {
  // A mangled count field that shrank past real rows (or appended
  // garbage) leaves bytes after the footer; load must not accept the
  // file as a smaller segment.
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});
  const auto path = segment_path(dir_, 1);
  ASSERT_TRUE(segment.save(path));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << 'x';
  }
  EXPECT_FALSE(Segment::load(path, 1).has_value());
}

TEST_F(SegmentTest, ListSegmentFilesSortsAndFilters) {
  ASSERT_TRUE(Segment::build({row(1, 1, 1)}).save(segment_path(dir_, 12)));
  ASSERT_TRUE(Segment::build({row(2, 1, 2)}).save(segment_path(dir_, 3)));
  std::ofstream(fs::path(dir_) / "notasegment.txt") << "x";
  const auto files = list_segment_files(dir_);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].index, 3u);
  EXPECT_EQ(files[1].index, 12u);
}

}  // namespace
}  // namespace netseer::store
