// Synthetic graph generators standing in for the paper's datasets.
//
// The evaluation uses SNAP social graphs plus generated RMAT, Erdős–Rényi and
// Forest Fire graphs. The SNAP downloads are not available offline, so the
// generators below (with the paper's published RMAT parameters a=0.57,
// b=c=0.19, edge factor 16) provide graphs with the same skew structure:
// RMAT for heavy-tailed social-network-like degree distributions, ER for the
// uniform case, Forest Fire for community-structured graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace updown {

struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // d = 1 - a - b - c
  std::uint32_t edge_factor = 16;
  bool symmetrize = false;
};

/// RMAT graph of 2^scale vertices (Chakrabarti et al., the generator the
/// paper's artifact ships as a Python script): rmat_edges, then
/// Graph::from_edges.
Graph rmat(std::uint32_t scale, const RmatParams& params = {}, std::uint64_t seed = 48);

/// The 2^scale * edge_factor sampled RMAT edges, before deduplication. Each
/// edge draws `scale` RNG words in order and picks one quadrant per draw by
/// comparing the word's top 53 bits against integer thresholds for a, a+b
/// and a+b+c, which decides exactly as `uniform() < x` would. Throws
/// std::invalid_argument if 2^scale or the edge count overflows 64 bits, or
/// if a, b or c is negative or not finite, or a+b+c exceeds 1.
std::vector<Edge> rmat_edges(std::uint32_t scale, const RmatParams& params = {},
                             std::uint64_t seed = 48);

/// Erdős–Rényi G(n, m) with n = 2^scale, m = n * edge_factor. Throws
/// std::invalid_argument if n or m overflows 64 bits.
Graph erdos_renyi(std::uint32_t scale, std::uint32_t edge_factor = 16, std::uint64_t seed = 7,
                  bool symmetrize = false);

/// Simplified Forest Fire model (Leskovec): each new vertex links to an
/// ambassador and "burns" through its neighborhood with probability fw_prob.
Graph forest_fire(std::uint64_t num_vertices, double fw_prob = 0.35, std::uint64_t seed = 13);

// Small deterministic fixtures for unit tests.
Graph path_graph(std::uint64_t n, bool symmetrize = true);
Graph star_graph(std::uint64_t leaves);
Graph complete_graph(std::uint64_t n);

}  // namespace updown
