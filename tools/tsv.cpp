// TC preprocessing tool, mirroring the artifact's Listing 9:
//   ./tsv <input.txt> <out_prefix>
// "these textual graph files must be preprocessed to eliminate duplicate
// edges and to sort entries by the source vertex ID", producing *_gv.bin
// (vertex array) and *_nl.bin (neighbor lists).
#include <cstdio>
#include <string>

#include "graph/io.hpp"
#include "tools/cli.hpp"

using namespace updown;

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <input_edge_list.txt> <output_prefix>\n", argv[0]);
    return 2;
  }
  return cli::run("tsv", [&] {
    // Graph::from_edges performs the dedup + sort; TC expects symmetric input.
    Graph g = read_edge_list(argv[1], 0, /*symmetrize=*/true);
    write_binary(g, argv[2]);
    std::printf("wrote %s_gv.bin and %s_nl.bin: %llu vertices, %llu edges\n", argv[2], argv[2],
                (unsigned long long)g.num_vertices(), (unsigned long long)g.num_edges());
    return 0;
  });
}
