// Triangle-count application driver, mirroring the artifact's Listing 12:
//   ./three_clique_count <gv/nl prefix> <lanes> [pbmw=0]
//
// <prefix> names a tsv-produced binary pair (symmetric, sorted adjacency).
#include <cstdio>
#include <string>

#include "apps/tc.hpp"
#include "graph/io.hpp"
#include "tools/cli.hpp"

using namespace updown;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <graph_prefix> <lanes> [pbmw=0]\n", argv[0]);
    return 2;
  }
  return cli::run("three_clique_count", [&] {
    const std::string prefix = argv[1];
    const auto lanes = static_cast<std::uint32_t>(cli::parse_u64("lanes", argv[2], 1, ~0u));
    const bool pbmw = argc > 3 && cli::parse_u64("pbmw", argv[3]) != 0;

    const std::uint32_t lanes_per_node = MachineConfig{}.lanes_per_node();
    if (lanes % lanes_per_node != 0) {
      std::fprintf(stderr, "%s: lanes must be a multiple of %u\n", argv[0], lanes_per_node);
      return 2;
    }
    Graph g = read_binary(prefix);
    Machine m(MachineConfig::scaled(lanes / lanes_per_node));
    DeviceGraph dg = upload_graph(m, g);
    tc::Options opt;
    opt.map_binding = pbmw ? kvmsr::MapBinding::kPBMW : kvmsr::MapBinding::kBlock;
    tc::Result r = tc::App::install(m, dg, opt).run();

    std::printf("[UDSIM] %llu: [main_master__init_tc] Main TC Master Start\n",
                (unsigned long long)r.start_tick);
    std::printf("[UDSIM] %llu: [main_master__tc_launcher_done] <tc_return> result:%llu\n",
                (unsigned long long)r.done_tick, (unsigned long long)r.triangles);
    std::printf("simulated time: %.6f s | %llu pairs | binding %s\n", r.seconds(),
                (unsigned long long)r.pairs, pbmw ? "PBMW" : "Block");
    return 0;
  });
}
