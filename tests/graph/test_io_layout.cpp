#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/layout.hpp"

namespace updown {
namespace {

class GraphIo : public ::testing::Test {
 protected:
  std::string tmp(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "ud_graph_io";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
};

TEST_F(GraphIo, BinaryRoundTrip) {
  Graph g = rmat(8);
  write_binary(g, tmp("rmat8"));
  Graph h = read_binary(tmp("rmat8"));
  EXPECT_EQ(g.offsets(), h.offsets());
  EXPECT_EQ(g.neighbors(), h.neighbors());
}

TEST_F(GraphIo, EdgeListRoundTrip) {
  Graph g = rmat(7, {}, 5);
  write_edge_list(g, tmp("rmat7.txt"));
  Graph h = read_edge_list(tmp("rmat7.txt"));
  // An edge list cannot represent trailing isolated vertices, so compare the
  // edge structure, not vertex counts.
  EXPECT_EQ(g.num_edges(), h.num_edges());
  EXPECT_EQ(g.neighbors(), h.neighbors());
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    EXPECT_EQ(g.offset(v), h.offset(v)) << "vertex " << v;
}

/// Write `text` to `path`.
void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

TEST_F(GraphIo, EdgeListSkipsHeadersAndComments) {
  const std::string path = tmp("hdr.txt");
  // Blank lines, whitespace-only lines, CRLF endings and columns after the
  // two ids (weights, timestamps) are accepted too.
  write_text(path, "vertices 3 edges 2\n# comment\n0 1 0.5 extra\n\n   \n% other\n1\t2\t7\r\n");
  Graph g = read_edge_list(path, /*skip_lines=*/1);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list(tmp("nope.txt")), std::runtime_error);
  EXPECT_THROW(read_binary(tmp("nope")), std::runtime_error);
}

/// The runtime_error message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(GraphIo, EdgeListRejectsMalformedIdsNamingTheLine) {
  const std::string path = tmp("bad.txt");
  for (const char* bad : {"1 -1", "1 x", "1 2x", "1", "-1 1",
                          "1 99999999999999999999999",  // overflows VertexId
                          "1 18446744073709551615"}) {  // VertexId max: n would wrap
    write_text(path, "# header\n0 1\n" + std::string(bad) + "\n2 3\n");
    const std::string err = error_of([&] { read_edge_list(path); });
    EXPECT_NE(err.find(path + ":3"), std::string::npos) << bad << " -> '" << err << "'";
  }
}

/// Write a raw `<prefix>_gv.bin` / `<prefix>_nl.bin` pair with the given
/// header counts and arrays, as write_binary lays them out.
void write_raw_csr(const std::string& prefix, std::uint64_t n, std::uint64_t m,
                   const std::vector<std::uint64_t>& offsets,
                   const std::vector<std::uint64_t>& neighbors) {
  const std::uint64_t magic = 0x5544475631ull;
  std::FILE* gv = std::fopen((prefix + "_gv.bin").c_str(), "wb");
  std::fwrite(&magic, 8, 1, gv);
  std::fwrite(&n, 8, 1, gv);
  std::fwrite(&m, 8, 1, gv);
  std::fwrite(offsets.data(), 8, offsets.size(), gv);
  std::fclose(gv);
  std::FILE* nl = std::fopen((prefix + "_nl.bin").c_str(), "wb");
  std::fwrite(neighbors.data(), 8, neighbors.size(), nl);
  std::fclose(nl);
}

TEST_F(GraphIo, BinaryRejectsCorruptCsrNamingTheFile) {
  const std::string p = tmp("corrupt");
  const std::string gv = p + "_gv.bin", nl = p + "_nl.bin";
  // The well-formed baseline: 3 vertices, edges 0->1, 0->2, 2->0.
  write_raw_csr(p, 3, 3, {0, 2, 2, 3}, {1, 2, 0});
  EXPECT_EQ(read_binary(p).num_edges(), 3u);

  const struct {
    const char* what;
    std::uint64_t n, m;
    std::vector<std::uint64_t> offsets, neighbors;
    const std::string& file;
  } cases[] = {
      {"truncated vertex array", 3, 3, {0, 2, 2}, {1, 2, 0}, gv},
      {"truncated neighbor list", 3, 3, {0, 2, 2, 3}, {1, 2}, nl},
      {"header n beyond the file", 1ull << 40, 3, {0, 2, 2, 3}, {1, 2, 0}, gv},
      {"header m beyond the file", 3, 1ull << 40, {0, 2, 2, 3}, {1, 2, 0}, nl},
      {"offsets[0] != 0", 3, 3, {1, 2, 2, 3}, {1, 2, 0}, gv},
      {"non-monotone offsets", 3, 3, {0, 3, 2, 3}, {1, 2, 0}, gv},
      {"offsets[n] != m", 3, 3, {0, 2, 2, 2}, {1, 2, 0}, gv},
      {"neighbor out of range", 3, 3, {0, 2, 2, 3}, {1, 3, 0}, nl},
  };
  for (const auto& c : cases) {
    write_raw_csr(p, c.n, c.m, c.offsets, c.neighbors);
    const std::string err = error_of([&] { read_binary(p); });
    EXPECT_NE(err.find(c.file), std::string::npos) << c.what << " -> '" << err << "'";
  }
}

TEST(Layout, UploadedRecordsMatchHostGraph) {
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(7);
  DeviceGraph dg = upload_graph(m, g);
  auto& mem = m.memory();
  EXPECT_EQ(dg.num_vertices, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EXPECT_EQ(mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kId)), v);
    EXPECT_EQ(mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kDegree)), g.degree(v));
    EXPECT_EQ(mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kDist)), kInfDist);
    // The neighbor pointer dereferences to the right first neighbor.
    if (g.degree(v) > 0) {
      const Addr nbr = mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kNbrPtr));
      EXPECT_EQ(mem.host_load<Word>(nbr), g.neighbors_of(v)[0]);
    }
  }
}

TEST(Layout, SplitUploadCarriesOwnerFields) {
  Machine m(MachineConfig::scaled(2));
  Graph g = star_graph(64);
  SplitGraph sg = split_vertices(g, 8, /*shuffle=*/false);
  DeviceGraph dg = upload_split_graph(m, sg);
  EXPECT_EQ(dg.num_original, g.num_vertices());
  EXPECT_EQ(dg.num_vertices, sg.num_sub());
  for (VertexId s = 0; s < sg.num_sub(); ++s) {
    EXPECT_EQ(m.memory().host_load<Word>(dg.field_addr(s, DeviceGraph::kId)), sg.owner[s]);
    EXPECT_EQ(m.memory().host_load<Word>(dg.field_addr(s, DeviceGraph::kOwnerDegree)),
              sg.owner_degree[s]);
  }
}

TEST(Layout, PlacementControlsNodeSpread) {
  Machine m(MachineConfig::scaled(8));
  Graph g = rmat(8);
  GraphPlacement narrow{.first_node = 0, .nr_nodes = 2, .block_size = 4096};
  DeviceGraph dg = upload_graph(m, g, narrow);
  // All vertex-array blocks live on nodes 0 and 1 (Figure 12's mem sweep).
  for (VertexId v = 0; v < g.num_vertices(); v += 64)
    EXPECT_LT(m.memory().translate(dg.vertex_addr(v)).node, 2u);
}

}  // namespace
}  // namespace updown
