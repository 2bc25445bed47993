// Host-side graph representation: CSR ("neighbor list format" in the paper).
// This is the output of the artifact's preprocessing tools (split_and_shuffle,
// tsv): a vertex array plus a flat neighbor-list array.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace updown {

using VertexId = std::uint64_t;
using Edge = std::pair<VertexId, VertexId>;

class Graph {
 public:
  Graph() : offsets_(1, 0) {}

  /// Build a CSR graph from an edge list. Self-loops and duplicate edges are
  /// removed and adjacency lists are sorted by destination (the preprocessing
  /// the paper's `tsv` tool performs for TC); `symmetrize` adds every edge's
  /// reverse. A counting sort by source: count degrees, prefix-sum, scatter
  /// once, free `edges`, sort and deduplicate each list in place, then copy
  /// the lists into an exactly sized neighbour array. Peak memory is the edge
  /// list, the offsets and one neighbour slot per directed edge (no
  /// symmetrized copy of the edge list). Throws std::out_of_range
  /// naming the edge if an endpoint is >= num_vertices, and
  /// std::length_error if num_vertices + 1 offsets cannot be sized.
  static Graph from_edges(VertexId num_vertices, std::vector<Edge> edges,
                          bool symmetrize = false);

  /// Adopt prebuilt CSR arrays verbatim (no dedup/sort/self-loop removal).
  /// Used where vertex and neighbor id spaces intentionally differ, e.g. the
  /// split-vertex graph whose neighbors are original-graph ids. Adjacency
  /// lists are NOT assumed sorted unless the caller vouches for it via
  /// `sorted` — has_edge degrades to a linear scan otherwise.
  static Graph from_csr(std::vector<std::uint64_t> offsets, std::vector<VertexId> neighbors,
                        bool sorted = false) {
    Graph g;
    g.offsets_ = std::move(offsets);
    g.neighbors_ = std::move(neighbors);
    g.sorted_ = sorted;
    return g;
  }

  VertexId num_vertices() const { return offsets_.size() - 1; }
  std::uint64_t num_edges() const { return neighbors_.size(); }
  /// Every adjacency list is sorted ascending (from_edges output); binary
  /// search in has_edge and merge-intersection (TC) are valid.
  bool sorted() const { return sorted_; }

  std::uint64_t degree(VertexId v) const {
    assert(v < num_vertices() && "Graph::degree: vertex id out of range");
    return offsets_[v + 1] - offsets_[v];
  }
  std::uint64_t offset(VertexId v) const {
    assert(v < num_vertices() && "Graph::offset: vertex id out of range");
    return offsets_[v];
  }

  std::span<const VertexId> neighbors_of(VertexId v) const {
    assert(v < num_vertices() && "Graph::neighbors_of: vertex id out of range");
    return {neighbors_.data() + offsets_[v], degree(v)};
  }

  const std::vector<std::uint64_t>& offsets() const { return offsets_; }
  const std::vector<VertexId>& neighbors() const { return neighbors_; }

  std::uint64_t max_degree() const {
    std::uint64_t md = 0;
    for (VertexId v = 0; v < num_vertices(); ++v) md = std::max(md, degree(v));
    return md;
  }

  bool has_edge(VertexId u, VertexId v) const {
    const auto nbrs = neighbors_of(u);
    // binary_search on an unsorted adjacency list (a from_csr adoption, e.g.
    // the split-vertex graph) silently returns wrong answers — fall back to
    // the linear scan there.
    if (sorted_) return std::binary_search(nbrs.begin(), nbrs.end(), v);
    return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
  }

 private:
  std::vector<std::uint64_t> offsets_;  ///< size num_vertices + 1
  std::vector<VertexId> neighbors_;
  bool sorted_ = true;  ///< default-constructed/from_edges graphs are sorted
};

}  // namespace updown
