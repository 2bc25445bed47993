// PageRank application driver, mirroring the artifact's Listing 10:
//   ./pagerank_msr <graph_prefix> <nodes> [accel=4] [iters=5] [mem=<nodes>]
//
// <graph_prefix> is the output of split_and_shuffle (…_gv.bin/_nl.bin/
// _meta.bin). <mem> sweeps the number of memory nodes the graph's
// DRAMmalloc uses (the paper's Figure 12 knob). Output follows the
// artifact's convention: tick-stamped start/terminate lines; convert ticks
// to seconds with time[s] = ticks / 2e9.
#include <cstdio>
#include <string>

#include "apps/pagerank.hpp"
#include "graph/split_io.hpp"
#include "tools/cli.hpp"

using namespace updown;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <graph_prefix> <nodes> [accel=4] [iters=5] [mem=nodes]\n",
                 argv[0]);
    return 2;
  }
  return cli::run("pagerank_msr", [&] {
    const std::string prefix = argv[1];
    const auto nodes = static_cast<std::uint32_t>(cli::parse_u64("nodes", argv[2], 1, ~0u));
    const auto accel =
        static_cast<std::uint32_t>(argc > 3 ? cli::parse_u64("accel", argv[3], 1, ~0u) : 4);
    const auto iters =
        static_cast<unsigned>(argc > 4 ? cli::parse_u64("iters", argv[4], 0, ~0u) : 5);
    const auto mem =
        static_cast<std::uint32_t>(argc > 5 ? cli::parse_u64("mem", argv[5], 1, ~0u) : nodes);

    SplitGraph sg = read_split_binary(prefix);
    Machine m(MachineConfig::scaled(nodes, accel));
    GraphPlacement place;
    place.nr_nodes = mem;
    DeviceGraph dg = upload_graph(m, sg.g, place, &sg);
    pr::Options opt;
    opt.iterations = iters;
    opt.value_placement.nr_nodes = mem;
    pr::Result r = pr::App::install(m, dg, sg, opt).run();

    std::printf("[UDSIM] %llu: [updown_init] PageRank start\n",
                (unsigned long long)r.start_tick);
    std::printf("[UDSIM] %llu: [updown_terminate] PageRank done\n",
                (unsigned long long)r.done_tick);
    std::printf("simulated time: %.6f s (%llu ticks / 2e9) | %u iterations | "
                "%llu edge updates | %.2f GUPS | %llu lanes\n",
                r.seconds(), (unsigned long long)r.duration(), r.iterations,
                (unsigned long long)r.edge_updates, r.gups(),
                (unsigned long long)m.config().total_lanes());
    return 0;
  });
}
