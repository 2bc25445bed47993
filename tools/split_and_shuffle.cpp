// Preprocessing tool for PageRank (and BFS), mirroring the artifact's
// Listing 6:
//   ./split_and_shuffle -f <raw_graph_file> -m <max_degree> [-d] [-s] [-l offset]
//
// Converts a plain-text edge list to neighbor-list format, splits high-degree
// vertices (bounding both out- and in-degree; see graph/split.hpp), shuffles
// sub-vertices, and writes binary files with the artifact's naming:
//   <file>_shuffle_max_deg_<m>_gv.bin / _nl.bin / _meta.bin
// and, with -s, a <file>_m<m>_stats.txt summary.
#include <cstdio>
#include <fstream>
#include <string>

#include "graph/io.hpp"
#include "graph/split.hpp"
#include "graph/split_io.hpp"
#include "tools/cli.hpp"

using namespace updown;

int main(int argc, char** argv) {
  std::string file;
  const char* max_degree_arg = "512";  // the paper's PR setting
  const char* skip_lines_arg = "0";
  bool directed = false, stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-f" && i + 1 < argc)
      file = argv[++i];
    else if (a == "-m" && i + 1 < argc)
      max_degree_arg = argv[++i];
    else if (a == "-d")
      directed = true;
    else if (a == "-s")
      stats = true;
    else if (a == "-l" && i + 1 < argc)
      skip_lines_arg = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s -f <graph.txt> -m <max_degree> [-d] [-s] [-l offset]\n",
                   argv[0]);
      return 2;
    }
  }
  if (file.empty()) {
    std::fprintf(stderr, "%s: -f <raw_graph_file> is required\n", argv[0]);
    return 2;
  }
  return cli::run("split_and_shuffle", [&] {
    const std::uint64_t max_degree = cli::parse_u64("max_degree", max_degree_arg, 1);
    const std::uint64_t skip_lines = cli::parse_u64("offset", skip_lines_arg);

    // "-d indicates that the graph to be split is a directed graph. Without
    // specification, we assume the input is undirected and will create an
    // edge in both directions during the conversion."
    Graph g = read_edge_list(file, skip_lines, /*symmetrize=*/!directed);
    SplitGraph sg = split_vertices(g, max_degree);

    const std::string prefix = file + "_shuffle_max_deg_" + std::to_string(max_degree);
    write_split_binary(sg, prefix);
    std::printf("wrote %s_gv.bin / _nl.bin / _meta.bin\n", prefix.c_str());

    if (stats) {
      const std::string summary = split_stats(g, sg);
      std::fputs(summary.c_str(), stdout);
      std::ofstream sf(file + "_m" + std::to_string(max_degree) + "_stats.txt");
      sf << summary;
    }
    return 0;
  });
}
