// Graph file IO mirroring the artifact's preprocessing pipeline:
//   - plain-text edge lists (the raw SNAP / generator format),
//   - binary *_gv.bin / *_nl.bin pairs (the preprocessed vertex-array +
//     neighbor-list files consumed by the UpDown applications).
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace updown {

/// Parse "src dst" lines; `skip_lines` mirrors the tools' -l offset flag for
/// headers. Tabs or spaces separate fields; blank lines and lines starting
/// with '#' or '%' are ignored, as are columns after the two ids. Anything
/// else that is not two decimal ids below VertexId's maximum (a sign, a
/// stray character, an overflowing id) throws std::runtime_error naming
/// `path:line`.
Graph read_edge_list(const std::string& path, std::uint64_t skip_lines = 0,
                     bool symmetrize = false);

void write_edge_list(const Graph& g, const std::string& path);

/// Write `<prefix>_gv.bin` (vertex count + per-vertex degree/offset records)
/// and `<prefix>_nl.bin` (the flat neighbor-list array).
void write_binary(const Graph& g, const std::string& prefix);

/// Read a pair written by write_binary. Throws std::runtime_error naming the
/// file when the header disagrees with the file sizes or the CSR is
/// malformed (offsets not starting at 0, decreasing, or not ending at m; a
/// neighbor id >= n).
Graph read_binary(const std::string& prefix);

}  // namespace updown
