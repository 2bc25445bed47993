#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace updown {
namespace {

TEST(Graph, FromEdgesSortsAndDedups) {
  Graph g = Graph::from_edges(4, {{1, 0}, {0, 2}, {0, 1}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);  // dup (0,1) and self-loop (2,2) dropped
  const auto n0 = g.neighbors_of(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, SymmetrizeAddsReverseEdges) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}}, /*symmetrize=*/true);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(Graph, HasEdgeOnUnsortedFromCsrUsesLinearScan) {
  // Regression: has_edge ran std::binary_search unconditionally, which gives
  // undefined answers on an unsorted adjacency list — from_csr adoptions
  // (e.g. the split-vertex graph) silently reported present edges missing.
  Graph g = Graph::from_csr({0, 3, 3}, {9, 2, 5}, /*sorted=*/false);
  EXPECT_FALSE(g.sorted());
  EXPECT_TRUE(g.has_edge(0, 9));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 5));  // binary_search missed this one
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(1, 9));
  // from_edges output stays on the binary-search fast path, and an adoption
  // with genuinely sorted lists may vouch for itself.
  EXPECT_TRUE(Graph::from_edges(3, {{0, 2}}).sorted());
  EXPECT_TRUE(Graph::from_csr({0, 2}, {1, 2}, /*sorted=*/true).sorted());
}

#ifndef NDEBUG
TEST(GraphDeathTest, OutOfRangeVertexAssertsInDebug) {
  // degree/offset/neighbors_of index offsets_[v + 1] unchecked; out-of-range
  // ids must die on the assert in Debug instead of reading past the array.
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_DEATH(g.degree(3), "out of range");
  EXPECT_DEATH(g.offset(4), "out of range");
  EXPECT_DEATH(g.neighbors_of(7), "out of range");
}
#endif

TEST(Generators, RmatHasRequestedShape) {
  Graph g = rmat(10);
  EXPECT_EQ(g.num_vertices(), 1024u);
  // Dedup removes some of the n*16 generated edges, but most survive.
  EXPECT_GT(g.num_edges(), 1024u * 8);
  EXPECT_LE(g.num_edges(), 1024u * 16);
}

TEST(Generators, RmatIsSkewed) {
  // With a=0.57 the degree distribution must be heavy-tailed: the max degree
  // far exceeds the average degree.
  Graph g = rmat(12);
  const double avg = static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_GT(g.max_degree(), static_cast<std::uint64_t>(avg * 10));
}

TEST(Generators, RmatIsDeterministicPerSeed) {
  Graph a = rmat(8, {}, 123), b = rmat(8, {}, 123), c = rmat(8, {}, 124);
  EXPECT_EQ(a.neighbors(), b.neighbors());
  EXPECT_NE(a.neighbors(), c.neighbors());
}

TEST(Generators, ErdosRenyiIsNotSkewed) {
  Graph g = erdos_renyi(12);
  const double avg = static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_LT(g.max_degree(), static_cast<std::uint64_t>(avg * 4));
}

TEST(Generators, ForestFireIsConnectedToRoot) {
  Graph g = forest_fire(512);
  EXPECT_EQ(g.num_vertices(), 512u);
  // Every non-root vertex burned at least one edge (symmetrized).
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    EXPECT_GE(g.degree(v), 1u) << "vertex " << v;
}

TEST(Generators, Fixtures) {
  Graph p = path_graph(5);
  EXPECT_EQ(p.num_edges(), 8u);
  Graph s = star_graph(4);
  EXPECT_EQ(s.degree(0), 4u);
  EXPECT_EQ(s.degree(1), 1u);
  Graph k = complete_graph(4);
  EXPECT_EQ(k.num_edges(), 12u);
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : words)
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  return h;
}

struct Digest {
  std::uint64_t offsets, neighbors;
};

Digest digest(const Graph& g) { return {fnv1a(g.offsets()), fnv1a(g.neighbors())}; }

#define EXPECT_DIGEST(graph, off, nbr)          \
  do {                                          \
    const Digest d = digest(graph);             \
    EXPECT_EQ(d.offsets, off##ULL) << #graph;   \
    EXPECT_EQ(d.neighbors, nbr##ULL) << #graph; \
  } while (0)

// The generators' exact output is part of every benchmark table and golden
// tick count: these digests pin it byte for byte, so a change to a generator
// or to the CSR builder that alters a single neighbour id fails here.
TEST(GeneratorDigests, Rmat) {
  EXPECT_DIGEST(rmat(10, {}, 48), 0x2a43d023ec359b6b, 0x0faf31cabf3584b1);
  EXPECT_DIGEST(rmat(10, {.symmetrize = true}, 48), 0x25ada9a03525ccc3, 0xd6cff3f02505dd61);
  EXPECT_DIGEST(rmat(10, {}, 5), 0xb045e8eb91fd2733, 0xd2459ca32a378710);
  EXPECT_DIGEST(rmat(10, {.symmetrize = true}, 5), 0x7d8b4d1cad73f2b4, 0x2537a463c5d2f296);
  EXPECT_DIGEST(rmat(14, {}, 48), 0xb5a4d5a79f155428, 0xb7fc8f3934b37926);
  EXPECT_DIGEST(rmat(14, {.symmetrize = true}, 48), 0x975cc814290af40b, 0xb89e323dea310286);
  EXPECT_DIGEST(rmat(14, {}, 5), 0x13a3a20866980cd1, 0xa60f1633a1a4206c);
  EXPECT_DIGEST(rmat(14, {.symmetrize = true}, 5), 0x8f46a5a667405bce, 0xca6a276903c2ca24);
}

TEST(GeneratorDigests, OtherGenerators) {
  EXPECT_DIGEST(erdos_renyi(10), 0xde058bf4d5109452, 0xd1be4c1f1337dc3d);
  EXPECT_DIGEST(erdos_renyi(10, 8, 3, /*symmetrize=*/true), 0x53766f78824f6533, 0xde6bd6a03ebce748);
  EXPECT_DIGEST(forest_fire(2000), 0x9b62edab30bab700, 0xe6d3239403f59872);
  EXPECT_DIGEST(path_graph(100), 0x0803e4aff477a464, 0x7ed242d4595c2b66);
  EXPECT_DIGEST(path_graph(100, /*symmetrize=*/false), 0x8a7450f72d293c46, 0xad9a3df818e8f545);
}

/// What from_edges must build, the plain way: symmetrize by appending the
/// reversed pairs, sort all pairs, drop duplicates and self-loops.
Graph reference_from_edges(VertexId n, std::vector<Edge> edges, bool symmetrize) {
  if (symmetrize) {
    const std::size_t m = edges.size();
    for (std::size_t i = 0; i < m; ++i) edges.emplace_back(edges[i].second, edges[i].first);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<VertexId> neighbors;
  for (const auto& [s, d] : edges) {
    if (s == d) continue;
    ++offsets[s + 1];
    neighbors.push_back(d);
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return Graph::from_csr(std::move(offsets), std::move(neighbors), /*sorted=*/true);
}

void expect_same_csr(const Graph& got, const Graph& want) {
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_EQ(got.neighbors(), want.neighbors());
  EXPECT_TRUE(got.sorted());
}

TEST(FromEdges, MatchesReferenceOnFixedCases) {
  const std::vector<std::pair<VertexId, std::vector<Edge>>> cases = {
      {0, {}},                                          // empty graph
      {5, {}},                                          // vertices, no edges
      {3, {{1, 1}, {2, 2}}},                            // self-loops only
      {4, {{0, 1}, {0, 1}, {1, 0}, {0, 1}, {3, 3}}},    // duplicates, loop
      {9, {{0, 1}, {1, 2}}},                            // isolated max-id vertex
      {9, {{8, 0}, {8, 0}, {0, 8}}},                    // max id in use
      {6, {{5, 4}, {4, 3}, {3, 2}, {2, 1}, {1, 0}}},    // reverse order
  };
  for (const auto& [n, edges] : cases)
    for (const bool sym : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " m=" << edges.size() << " sym=" << sym);
      expect_same_csr(Graph::from_edges(n, edges, sym), reference_from_edges(n, edges, sym));
    }
}

TEST(FromEdges, MatchesReferenceOnSeededRandomLists) {
  // Small id ranges make duplicates and self-loops common; wide ones leave
  // most vertices isolated. Each case is reproducible from its seed alone.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Xoshiro256 rng(seed);
    const VertexId n = 1 + rng.below(seed % 3 == 0 ? 4 : 200);
    const std::size_t m = rng.below(seed % 5 == 0 ? 2000 : 64);
    const bool sym = rng() & 1;
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < m; ++i) {
      const VertexId s = rng.below(n);
      edges.emplace_back(s, rng.below(8) == 0 ? s : rng.below(n));
    }
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " n=" << n << " m=" << m
                                      << " sym=" << sym);
    expect_same_csr(Graph::from_edges(n, edges, sym), reference_from_edges(n, edges, sym));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FromEdges, RejectsEndpointsOutOfRangeNamingTheEdge) {
  // A source >= n used to write past offsets_, a destination >= n to yield
  // neighbour ids >= n.
  for (const bool sym : {false, true}) {
    for (const Edge& bad : {Edge{4, 0}, Edge{0, 4}, Edge{7, 7}, Edge{~0ull, 1}}) {
      try {
        Graph::from_edges(4, {{0, 1}, {2, 3}, bad}, sym);
        ADD_FAILURE() << "accepted (" << bad.first << ", " << bad.second << ") sym=" << sym;
      } catch (const std::out_of_range& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("edge 2 (" + std::to_string(bad.first) + ", " +
                            std::to_string(bad.second) + ")"),
                  std::string::npos)
            << what;
      }
    }
  }
  EXPECT_THROW(Graph::from_edges(0, {{0, 0}}), std::out_of_range);
  EXPECT_THROW(Graph::from_edges(~0ull, {}), std::length_error);
}

TEST(Generators, RejectOverflowingScales) {
  EXPECT_THROW(rmat(64), std::invalid_argument);
  EXPECT_THROW(rmat(200), std::invalid_argument);
  EXPECT_THROW(rmat(61), std::invalid_argument);  // 2^61 * 16 edges
  EXPECT_THROW(rmat(63, {.edge_factor = 2}), std::invalid_argument);
  EXPECT_THROW(rmat_edges(64, {.edge_factor = 0}), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(64), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(61, 8), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(33, ~0u), std::invalid_argument);
  EXPECT_EQ(rmat(0).num_vertices(), 1u);  // 16 self-loops on vertex 0
  EXPECT_EQ(erdos_renyi(3, 0).num_edges(), 0u);
}

TEST(Generators, RmatRejectsProbabilitiesOutsideTheUnitInterval) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const RmatParams p : {RmatParams{.a = nan}, RmatParams{.b = inf}, RmatParams{.c = -inf},
                             RmatParams{.a = -0.1}, RmatParams{.b = -1e-300},
                             RmatParams{.a = 0.6, .b = 0.3, .c = 0.2},
                             RmatParams{.a = 1.5, .b = 0, .c = 0}}) {
    SCOPED_TRACE(::testing::Message() << p.a << " " << p.b << " " << p.c);
    EXPECT_THROW(rmat(4, p), std::invalid_argument);
  }
  EXPECT_NO_THROW(rmat(4, {.a = 0.5, .b = 0.25, .c = 0.25}));  // d = 0
}

TEST(Generators, RmatQuadrantsAtTheExtremes) {
  // All mass in one quadrant puts every edge in that corner of the matrix.
  const VertexId last = (1u << 6) - 1;
  const std::pair<RmatParams, Edge> corners[] = {
      {{.a = 1, .b = 0, .c = 0}, {0, 0}},
      {{.a = 0, .b = 1, .c = 0}, {0, last}},
      {{.a = 0, .b = 0, .c = 1}, {last, 0}},
      {{.a = 0, .b = 0, .c = 0}, {last, last}},
  };
  for (const auto& [p, corner] : corners)
    for (const Edge& e : rmat_edges(6, p)) ASSERT_EQ(e, corner);
}

TEST(Generators, RmatSamplingMatchesTheFloatingPointQuadrantTest) {
  // The integer thresholds must decide exactly as `uniform() < x` does: for
  // the paper's parameters, for dyadic ones (whose thresholds are exact
  // integers) and for arbitrary ones.
  Xoshiro256 pick(99);
  std::vector<RmatParams> params = {{}, {.a = 0.25, .b = 0.25, .c = 0.25},
                                    {.a = 0.5, .b = 0.125, .c = 0.375}};
  for (int i = 0; i < 20; ++i) {
    const double a = pick.uniform(), b = 0.99 * pick.uniform() * (1 - a);
    params.push_back({.a = a, .b = b, .c = 0.99 * pick.uniform() * (1 - a - b)});
  }
  for (const RmatParams& p : params) {
    SCOPED_TRACE(::testing::Message() << p.a << " " << p.b << " " << p.c);
    const std::uint32_t scale = 8;
    Xoshiro256 rng(17);
    std::vector<Edge> want;
    for (std::uint64_t e = 0; e < (1u << scale) * p.edge_factor; ++e) {
      VertexId src = 0, dst = 0;
      for (std::uint32_t bit = 0; bit < scale; ++bit) {
        const double r = rng.uniform();
        const bool s = r >= p.a + p.b;
        const bool d = (r >= p.a && r < p.a + p.b) || r >= p.a + p.b + p.c;
        src = (src << 1) | s;
        dst = (dst << 1) | d;
      }
      want.emplace_back(src, dst);
    }
    EXPECT_EQ(rmat_edges(scale, p, 17), want);
  }
}

}  // namespace
}  // namespace updown
