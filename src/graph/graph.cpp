#include "graph/graph.hpp"

#include <stdexcept>
#include <string>

namespace updown {

Graph Graph::from_edges(VertexId num_vertices, std::vector<Edge> edges, bool symmetrize) {
  Graph g;
  if (num_vertices >= g.offsets_.max_size())
    throw std::length_error("Graph::from_edges: cannot size a graph of " +
                            std::to_string(num_vertices) + " vertices");
  // Counting sort by source: out-degrees land in offsets_[src + 1], so the
  // inclusive prefix sum below leaves offsets_[v] = first slot of v.
  g.offsets_.assign(num_vertices + 1, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [src, dst] = edges[i];
    if (src >= num_vertices || dst >= num_vertices)
      throw std::out_of_range("Graph::from_edges: edge " + std::to_string(i) + " (" +
                              std::to_string(src) + ", " + std::to_string(dst) +
                              ") has an endpoint >= num_vertices " +
                              std::to_string(num_vertices));
    if (src == dst) continue;  // self-loops are dropped
    ++g.offsets_[src + 1];
    if (symmetrize) ++g.offsets_[dst + 1];
  }
  for (VertexId v = 0; v < num_vertices; ++v) g.offsets_[v + 1] += g.offsets_[v];

  // Scatter, using offsets_[src] as src's cursor: afterwards offsets_[v]
  // holds the end of v's list (the start of v + 1's).
  std::vector<VertexId> scattered(g.offsets_[num_vertices]);
  VertexId* const nbrs = scattered.data();
  for (const auto& [src, dst] : edges) {
    if (src == dst) continue;
    nbrs[g.offsets_[src]++] = dst;
    if (symmetrize) nbrs[g.offsets_[dst]++] = src;
  }
  std::vector<Edge>().swap(edges);  // free the edge list before the per-list pass

  // Sort and deduplicate each list, compacting the lists leftward in place
  // and restoring offsets_[v] to the start of v's compacted list.
  std::uint64_t begin = 0, out = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::uint64_t end = g.offsets_[v];
    g.offsets_[v] = out;
    std::sort(nbrs + begin, nbrs + end);
    VertexId* const last = std::unique(nbrs + begin, nbrs + end);
    if (out != begin) std::move(nbrs + begin, last, nbrs + out);
    out += last - (nbrs + begin);
    begin = end;
  }
  g.offsets_[num_vertices] = out;
  // The neighbour array is allocated exactly sized, and only now that the
  // edge list is gone. It is never larger than the edge list was, so it adds
  // nothing to the build's peak (edge list + scattered lists), and the graph
  // does not carry the duplicates' slack for its lifetime.
  g.neighbors_.assign(nbrs, nbrs + out);
  return g;
}

}  // namespace updown
