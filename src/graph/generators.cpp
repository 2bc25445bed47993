#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/rng.hpp"

namespace updown {

namespace {

/// n = 2^scale vertices and m = n * edge_factor edges, or invalid_argument
/// naming `who` when either count does not fit in 64 bits.
std::pair<std::uint64_t, std::uint64_t> counts(const char* who, std::uint32_t scale,
                                               std::uint32_t edge_factor) {
  if (scale >= 64 || edge_factor > (~0ull >> scale))
    throw std::invalid_argument(std::string(who) + ": scale " + std::to_string(scale) +
                                " with edge factor " + std::to_string(edge_factor) +
                                " overflows a 64-bit vertex or edge count");
  const std::uint64_t n = 1ull << scale;
  return {n, n * edge_factor};
}

/// The integer form of the test `uniform() < x` for x in [0, 1]: uniform()
/// is k * 2^-53 for k = rng() >> 11, and k * 2^-53 < x exactly when
/// k < ceil(x * 2^53).
std::uint64_t threshold53(double x) {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 53)));
}

}  // namespace

std::vector<Edge> rmat_edges(std::uint32_t scale, const RmatParams& p, std::uint64_t seed) {
  const std::uint64_t m = counts("rmat", scale, p.edge_factor).second;
  const double ab = p.a + p.b;
  const double abc = p.a + p.b + p.c;
  const auto valid = [](double x) { return std::isfinite(x) && x >= 0; };
  if (!valid(p.a) || !valid(p.b) || !valid(p.c) || abc > 1)
    throw std::invalid_argument("rmat: a, b and c must be finite and non-negative with a sum "
                                "of at most 1");
  // One draw per bit picks a quadrant: r < a top-left, r < a+b top-right
  // (dst bit), r < a+b+c bottom-left (src bit), else bottom-right (both).
  // With A <= AB <= ABC the dst bit is (k >= A) ^ (k >= AB) ^ (k >= ABC).
  const std::uint64_t A = threshold53(p.a), AB = threshold53(ab), ABC = threshold53(abc);
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t src = 0, dst = 0;
    for (std::uint32_t bit = 0; bit < scale; ++bit) {
      const std::uint64_t k = rng() >> 11;
      src = (src << 1) | (k >= AB);
      dst = (dst << 1) | ((k >= A) ^ (k >= AB) ^ (k >= ABC));
    }
    edges.emplace_back(src, dst);
  }
  return edges;
}

Graph rmat(std::uint32_t scale, const RmatParams& p, std::uint64_t seed) {
  std::vector<Edge> edges = rmat_edges(scale, p, seed);  // validates scale first
  return Graph::from_edges(1ull << scale, std::move(edges), p.symmetrize);
}

Graph erdos_renyi(std::uint32_t scale, std::uint32_t edge_factor, std::uint64_t seed,
                  bool symmetrize) {
  const auto [n, m] = counts("erdos_renyi", scale, edge_factor);
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e)
    edges.emplace_back(rng.below(n), rng.below(n));
  return Graph::from_edges(n, std::move(edges), symmetrize);
}

Graph forest_fire(std::uint64_t num_vertices, double fw_prob, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  // Grow the graph vertex by vertex; adjacency kept as out-lists during
  // growth, converted to CSR at the end.
  std::vector<std::vector<VertexId>> out(num_vertices);
  std::vector<Edge> edges;
  for (VertexId v = 1; v < num_vertices; ++v) {
    const VertexId ambassador = rng.below(v);
    std::unordered_set<VertexId> visited{v};
    std::vector<VertexId> frontier{ambassador};
    // Burn outward: geometric number of links per burned vertex.
    std::size_t burned = 0;
    while (!frontier.empty() && burned < 64) {
      const VertexId u = frontier.back();
      frontier.pop_back();
      if (!visited.insert(u).second) continue;
      edges.emplace_back(v, u);
      out[v].push_back(u);
      ++burned;
      for (VertexId w : out[u])
        if (rng.uniform() < fw_prob && !visited.count(w)) frontier.push_back(w);
    }
  }
  return Graph::from_edges(num_vertices, std::move(edges), /*symmetrize=*/true);
}

Graph path_graph(std::uint64_t n, bool symmetrize) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, std::move(edges), symmetrize);
}

Graph star_graph(std::uint64_t leaves) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= leaves; ++v) edges.emplace_back(0, v);
  return Graph::from_edges(leaves + 1, std::move(edges), /*symmetrize=*/true);
}

Graph complete_graph(std::uint64_t n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = 0; v < n; ++v)
      if (u != v) edges.emplace_back(u, v);
  return Graph::from_edges(n, std::move(edges));
}

}  // namespace updown
