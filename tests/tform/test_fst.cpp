// TFORM transducer: CSV parsing, resumability across block boundaries,
// padding handling, error detection, and the stream generator.
#include "tform/fst.hpp"

#include <gtest/gtest.h>

#include "tform/stream_gen.hpp"

namespace updown::tform {
namespace {

TEST(Fst, ParsesSimpleCsv) {
  auto records = Fst::csv().parse_all("1,2,3\n40,50,60\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(records[1], (std::vector<Word>{40, 50, 60}));
}

TEST(Fst, HandlesPaddingBeforeTerminators) {
  auto records = Fst::csv().parse_all("7 ,8  ,9   \n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (std::vector<Word>{7, 8, 9}));
}

TEST(Fst, ResumesAcrossArbitrarySplits) {
  const std::string text = "123,456,789\n11,22,33\n5,6,7\n";
  const auto whole = Fst::csv().parse_all(text);
  const Fst fst = Fst::csv();
  for (std::size_t split = 1; split < text.size(); ++split) {
    Fst::Cursor cur;
    std::vector<std::vector<Word>> records;
    auto cb = [&](const std::vector<Word>& f) { records.push_back(f); };
    const auto* data = reinterpret_cast<const std::uint8_t*>(text.data());
    fst.run({data, split}, cur, cb);
    EXPECT_EQ(cur.mid_record, text[split - 1] != '\n');
    fst.run({data + split, text.size() - split}, cur, cb);
    EXPECT_EQ(records, whole) << "split at " << split;
  }
}

TEST(Fst, RejectsGarbage) {
  EXPECT_THROW(Fst::csv().parse_all("1,x,3\n"), std::runtime_error);
}

// Parses `text` whole and split at every byte (two run() calls on one
// cursor); every variant must throw std::runtime_error.
void expect_rejected_at_every_split(const std::string& text) {
  const Fst fst = Fst::csv();
  EXPECT_THROW(fst.parse_all(text), std::runtime_error) << text;
  const auto* data = reinterpret_cast<const std::uint8_t*>(text.data());
  for (std::size_t split = 1; split < text.size(); ++split) {
    Fst::Cursor cur;
    auto cb = [](const std::vector<Word>&) {};
    EXPECT_THROW(
        {
          fst.run({data, split}, cur, cb);
          fst.run({data + split, text.size() - split}, cur, cb);
        },
        std::runtime_error)
        << "split at " << split << " of " << text;
  }
}

TEST(Fst, RejectsOverflowingField) {
  // 2^64 + 1 wraps to 1 under unchecked `current * 10 + d`.
  expect_rejected_at_every_split("18446744073709551617,2,1\n");
  expect_rejected_at_every_split("1,2,99999999999999999999\n");
  // The largest Word still parses.
  const auto records = Fst::csv().parse_all("18446744073709551615,0,1\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0][0], ~Word{0});
}

TEST(Fst, RejectsEmptyField) {
  expect_rejected_at_every_split("1,,3\n");
  expect_rejected_at_every_split(",2,3\n");
  expect_rejected_at_every_split("1,2,\n");
  expect_rejected_at_every_split("1,2,3\n\n");
  expect_rejected_at_every_split("1,  ,3\n");  // padding is not a digit
}

TEST(Fst, ParseCostScalesWithBytes) {
  EXPECT_GT(parse_cost(4000), parse_cost(400));
  EXPECT_LE(parse_cost(4000), 4000u);  // faster than one cycle/byte
}

TEST(StreamGen, RecordsAreExactly64Bytes) {
  RecordStream s = make_stream(100);
  EXPECT_EQ(s.bytes.size(), 100 * kRecordBytes);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(s.bytes[(i + 1) * kRecordBytes - 1], '\n') << "record " << i;
}

TEST(StreamGen, ParsesBackToGroundTruth) {
  RecordStream s = make_stream(200, 1000, 5, 9);
  auto records = Fst::csv().parse_all(s.bytes);
  ASSERT_EQ(records.size(), s.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i][0], s.records[i].src);
    EXPECT_EQ(records[i][1], s.records[i].dst);
    EXPECT_EQ(records[i][2], s.records[i].type);
  }
}

TEST(StreamGen, DeterministicPerSeed) {
  EXPECT_EQ(make_stream(50, 100, 3, 4).bytes, make_stream(50, 100, 3, 4).bytes);
  EXPECT_NE(make_stream(50, 100, 3, 4).bytes, make_stream(50, 100, 3, 5).bytes);
}

}  // namespace
}  // namespace updown::tform
