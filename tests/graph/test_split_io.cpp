#include "graph/split_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace updown {
namespace {

std::string tmp_prefix(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "ud_split_io";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

TEST(SplitIo, RoundTripPreservesEverything) {
  Graph g = rmat(8, {}, 21);
  SplitGraph sg = split_vertices(g, 16);
  write_split_binary(sg, tmp_prefix("r8"));
  SplitGraph h = read_split_binary(tmp_prefix("r8"));
  EXPECT_EQ(h.num_original, sg.num_original);
  EXPECT_EQ(h.g.offsets(), sg.g.offsets());
  EXPECT_EQ(h.g.neighbors(), sg.g.neighbors());
  EXPECT_EQ(h.owner, sg.owner);
  EXPECT_EQ(h.owner_degree, sg.owner_degree);
  EXPECT_EQ(h.slot_offset, sg.slot_offset);
}

TEST(SplitIo, MissingMetaThrows) {
  Graph g = path_graph(8);
  SplitGraph sg = split_vertices(g, 4);
  // Write only the graph pair, not the meta file.
  write_binary(sg.g, tmp_prefix("nometa"));
  EXPECT_THROW(read_split_binary(tmp_prefix("nometa")), std::runtime_error);
}

/// Overwrite `<prefix>_meta.bin` with the given header and arrays, laid out
/// as write_split_binary does, then cut `cut` bytes off its end.
void write_raw_meta(const std::string& prefix, std::uint64_t n_orig,
                    const std::vector<std::vector<std::uint64_t>>& arrays,
                    std::uint64_t cut = 0) {
  const std::string path = prefix + "_meta.bin";
  const std::uint64_t magic = 0x55444d455631ull;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(&magic, 8, 1, f);
  std::fwrite(&n_orig, 8, 1, f);
  for (const auto& a : arrays) {
    const std::uint64_t n = a.size();
    std::fwrite(&n, 8, 1, f);
    std::fwrite(a.data(), 8, a.size(), f);
  }
  std::fclose(f);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - cut);
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// A path graph 0->1->2 split at max degree 1: no vertex splits, so the
/// meta arrays are owner {0,1,2}, owner_degree {1,1,0}, slot_offset
/// {0,1,2,3}.
std::string write_path3(const std::string& name) {
  const std::string p = tmp_prefix(name);
  write_split_binary(split_vertices(path_graph(3, /*symmetrize=*/false), 1, /*shuffle=*/false), p);
  EXPECT_EQ(read_split_binary(p).owner, (std::vector<VertexId>{0, 1, 2}));
  return p;
}

TEST(SplitIo, OversizedLengthThrowsBeforeAllocating) {
  const std::string p = write_path3("oversized");
  // The owner length claims 2^61 entries; only 64 bytes follow it.
  const std::string meta = p + "_meta.bin";
  std::FILE* f = std::fopen(meta.c_str(), "r+b");
  const std::uint64_t huge = 1ull << 61;
  std::fseek(f, 16, SEEK_SET);
  std::fwrite(&huge, 8, 1, f);
  std::fclose(f);
  const std::string err = error_of([&] { read_split_binary(p); });
  EXPECT_NE(err.find(meta), std::string::npos) << err;
  EXPECT_NE(err.find("owner length"), std::string::npos) << err;
}

TEST(SplitIo, TruncatedMetaNamesTheArray) {
  const std::string p = write_path3("truncated");
  const std::string meta = p + "_meta.bin";
  const struct {
    std::uint64_t cut;
    const char* names;
  } cases[] = {
      {8, "slot_offset length"},                 // last slot_offset entry gone
      {4 * 8 + 4, "truncated before the slot_offset length"},
      {4 * 8 + 8 + 3 * 8 + 8, "owner_degree length"},
  };
  for (const auto& c : cases) {
    write_raw_meta(p, 3, {{0, 1, 2}, {1, 1, 0}, {0, 1, 2, 3}}, c.cut);
    const std::string err = error_of([&] { read_split_binary(p); });
    EXPECT_NE(err.find(meta), std::string::npos) << c.names << " -> '" << err << "'";
    EXPECT_NE(err.find(c.names), std::string::npos) << c.names << " -> '" << err << "'";
  }
}

TEST(SplitIo, OutOfRangeMetaThrowsNamingTheFile) {
  const std::string p = write_path3("range");
  const std::string meta = p + "_meta.bin";
  const struct {
    const char* what;
    std::vector<std::uint64_t> owner, owner_degree, slot_offset;
  } cases[] = {
      {"owner[2]=3", {0, 1, 3}, {1, 1, 0}, {0, 1, 2, 3}},
      {"owner_degree has 2 entries", {0, 1, 2}, {1, 1}, {0, 1, 2, 3}},
      {"slot_offset[0] is not 0", {0, 1, 2}, {1, 1, 0}, {1, 1, 2, 3}},
      {"slot_offset decreases at vertex 1", {0, 1, 2}, {1, 1, 0}, {0, 2, 1, 3}},
      {"slot_offset[num_original] is not num_sub", {0, 1, 2}, {1, 1, 0}, {0, 1, 2, 2}},
  };
  for (const auto& c : cases) {
    write_raw_meta(p, 3, {c.owner, c.owner_degree, c.slot_offset});
    const std::string err = error_of([&] { read_split_binary(p); });
    EXPECT_NE(err.find(meta), std::string::npos) << c.what << " -> '" << err << "'";
    EXPECT_NE(err.find(c.what), std::string::npos) << c.what << " -> '" << err << "'";
  }
}

/// A star whose hub (vertex 0, degree 99) splits into 10 sub-vertices at
/// max degree 10; every leaf keeps one.
SplitGraph split_star() {
  SplitGraph sg = split_vertices(star_graph(100), 10);
  EXPECT_EQ(sg.slot_offset[1], 10u);
  return sg;
}

TEST(SplitIo, EmptySlotRangeThrows) {
  // An empty range would leave the hub's PageRank apply with no accumulator
  // reads, so it would never return and the driver would never finish.
  SplitGraph sg = split_star();
  sg.slot_offset[1] = 0;
  const std::string p = tmp_prefix("empty_slots");
  write_split_binary(sg, p);
  const std::string err = error_of([&] { read_split_binary(p); });
  EXPECT_NE(err.find(p + "_meta.bin"), std::string::npos) << err;
  EXPECT_NE(err.find("slot range of vertex 0 is empty"), std::string::npos) << err;
}

TEST(SplitIo, SlotWidthDisagreesWithOwnerThrows) {
  // Five slots for a hub that owns ten sub-vertices: the apply would sum
  // part of the hub's slots, and vertex 1's range would take the rest.
  SplitGraph sg = split_star();
  sg.slot_offset[1] = 5;
  const std::string p = tmp_prefix("narrow_slots");
  write_split_binary(sg, p);
  const std::string err = error_of([&] { read_split_binary(p); });
  EXPECT_NE(err.find(p + "_meta.bin"), std::string::npos) << err;
  EXPECT_NE(err.find("vertex 0 has 5 slots but owns 10 sub-vertices"), std::string::npos)
      << err;
}

TEST(SplitIo, OwnerDegreeDisagreesWithSubVertexDegreesThrows) {
  // A shuffled RMAT split as split_and_shuffle writes it, with one
  // owner_degree entry changed: PageRank would push that sub-vertex's rank
  // over the wrong degree.
  SplitGraph sg = split_vertices(rmat(8, {}, 21), 16);
  const std::string p = tmp_prefix("owner_degree");
  write_split_binary(sg, p);
  ASSERT_EQ(read_split_binary(p).owner_degree, sg.owner_degree);
  std::vector<std::uint64_t> owner_degree = sg.owner_degree;
  const std::uint64_t s = sg.num_sub() / 2;
  owner_degree[s] += 1;
  write_raw_meta(p, sg.num_original,
                 {std::vector<std::uint64_t>(sg.owner.begin(), sg.owner.end()), owner_degree,
                  sg.slot_offset});
  const std::string err = error_of([&] { read_split_binary(p); });
  EXPECT_NE(err.find(p + "_meta.bin"), std::string::npos) << err;
  EXPECT_NE(err.find("owner_degree[" + std::to_string(s) + "]"), std::string::npos) << err;
}

TEST(SplitIo, StatsSummaryMentionsKeyNumbers) {
  Graph g = star_graph(100);
  SplitGraph sg = split_vertices(g, 10);
  const std::string s = split_stats(g, sg);
  EXPECT_NE(s.find("101"), std::string::npos);  // original vertex count
  EXPECT_NE(s.find("preserved: yes"), std::string::npos);
}

}  // namespace
}  // namespace updown
