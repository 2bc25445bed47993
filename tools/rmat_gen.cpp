// RMAT graph generator CLI — the artifact's Listing 8:
//   python3 rmat.py -s <scale>     (here: ./rmat_gen <scale> [out.txt])
// Generates a scale-s RMAT edge list with the paper's parameters a=0.57,
// b=0.19, c=0.19 and edge factor 16, written as plain text "src dst" lines.
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "tools/cli.hpp"

using namespace updown;

int main(int argc, char** argv) {
  // --symmetric may appear anywhere; the rest are positional.
  std::vector<const char*> pos;
  RmatParams p;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--symmetric")
      p.symmetrize = true;
    else
      pos.push_back(argv[i]);
  }
  if (pos.empty() || pos.size() > 4) {
    std::fprintf(stderr,
                 "usage: %s <scale> [out.txt] [edge_factor=16] [seed=48] [--symmetric]\n",
                 argv[0]);
    return 2;
  }
  return cli::run("rmat_gen", [&] {
    // rmat() itself rejects a scale whose vertex or edge count overflows.
    const auto scale = static_cast<std::uint32_t>(cli::parse_u64("scale", pos[0], 0, ~0u));
    const std::string out = pos.size() > 1 ? pos[1] : "rmat-s" + std::to_string(scale) + ".txt";
    if (pos.size() > 2)
      p.edge_factor = static_cast<std::uint32_t>(cli::parse_u64("edge_factor", pos[2], 0, ~0u));
    const std::uint64_t seed = pos.size() > 3 ? cli::parse_u64("seed", pos[3]) : 48;

    Graph g = rmat(scale, p, seed);
    write_edge_list(g, out);
    std::printf("wrote %s: %llu vertices, %llu edges (a=%.2f b=%.2f c=%.2f ef=%u seed=%llu)\n",
                out.c_str(), (unsigned long long)g.num_vertices(),
                (unsigned long long)g.num_edges(), p.a, p.b, p.c, p.edge_factor,
                (unsigned long long)seed);
    return 0;
  });
}
