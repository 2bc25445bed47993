// BFS application driver, mirroring the artifact's Listing 11:
//   ./bfs_udweave <graph_prefix> <lanes> <lanes_per_accel> <root_vid> [mem]
//
// <graph_prefix> names a tsv-produced binary pair; <lanes> selects the
// machine size (node count = lanes / (accels * lanes_per_accel)); <mem>
// sweeps the frontier's memory nodes (Figure 12).
#include <cstdio>
#include <string>

#include "apps/bfs.hpp"
#include "graph/io.hpp"
#include "tools/cli.hpp"

using namespace updown;

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr, "usage: %s <graph_prefix> <lanes> <lanes_per_accel> <root_vid> [mem]\n",
                 argv[0]);
    return 2;
  }
  return cli::run("bfs_udweave", [&] {
    const std::uint32_t accels = 4;
    const std::string prefix = argv[1];
    const auto lanes = static_cast<std::uint32_t>(cli::parse_u64("lanes", argv[2], 1, ~0u));
    const auto lpa =
        static_cast<std::uint32_t>(cli::parse_u64("lanes_per_accel", argv[3], 1, ~0u / accels));
    const VertexId root = cli::parse_u64("root_vid", argv[4]);

    const std::uint32_t lanes_per_node = accels * lpa;
    if (lanes % lanes_per_node != 0) {
      std::fprintf(stderr, "%s: lanes must be a multiple of %u\n", argv[0], lanes_per_node);
      return 2;
    }
    const std::uint32_t nodes = lanes / lanes_per_node;
    const auto mem =
        static_cast<std::uint32_t>(argc > 5 ? cli::parse_u64("mem", argv[5], 1, ~0u) : nodes);

    Graph g = read_binary(prefix);
    Machine m(MachineConfig::scaled(nodes, accels, lpa));
    DeviceGraph dg = upload_graph(m, g);
    bfs::Options opt;
    opt.root = root;
    opt.frontier_mem_nodes = mem;
    bfs::Result r = bfs::App::install(m, dg, opt).run();

    std::printf("[UDSIM] %llu: [main_master__init] BFS Start\n",
                (unsigned long long)r.start_tick);
    std::printf("[UDSIM] %llu: [main_master__reduce_launcher_done] BFS finish\n",
                (unsigned long long)r.done_tick);
    std::printf("simulated time: %.6f s | %llu rounds | traversed edges %llu | %.2f GTEPS\n",
                r.seconds(), (unsigned long long)r.rounds,
                (unsigned long long)r.traversed_edges, r.gteps());
    return 0;
  });
}
