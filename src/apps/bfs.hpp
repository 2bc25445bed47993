// Push-based Breadth-First Search on KVMSR (paper Section 4.2).
//
// Departures from PageRank's flat data parallelism, exactly as the paper
// describes:
//
//   - The frontier is a per-accelerator local structure: one contiguous
//     region per node (DRAMmalloc with block_size = size/NRnodes), split into
//     per-lane slices. Reading the current frontier and writing the next one
//     is node-local.
//   - Each BFS round is one KVMSR invocation whose kv_map tasks are bound one
//     per accelerator (Direct binding to the accelerator's first lane). The
//     accelerator master fans out scan subtasks to its lanes with plain
//     UDWeave messages — the paper's local master-worker scheme.
//   - Scan subtasks spawn one expand task per frontier vertex; expands read
//     the vertex record and neighbor list and emit <neighbor, dist, parent>
//     tuples. kv_reduce tasks land on hash(vertex) lanes, test-and-set a
//     lane-owned visited flag (scratchpad), write dist/parent into the vertex
//     record, and append fresh vertices to their own lane's next-frontier
//     slice.
//   - A driver thread chains rounds via KVMSR continuations and terminates
//     when a round adds nothing ("add queue 0" in the paper's log).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/layout.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown::bfs {

struct Options {
  VertexId root = 0;
  /// Next-frontier slice capacity per lane, entries (0 = auto from n/lanes).
  std::uint64_t slice_cap = 0;
  /// Placement override for the frontier (0 nr_nodes = per-node local, the
  /// paper's default; used by the Figure 12 placement sweep).
  std::uint32_t frontier_mem_nodes = 0;
};

struct Result {
  std::vector<std::uint64_t> dist;  ///< kInfDist if unreachable
  std::vector<VertexId> parent;     ///< kNoParent if none
  std::uint64_t traversed_edges = 0;
  std::uint64_t rounds = 0;
  Tick start_tick = 0;
  Tick done_tick = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
  /// Giga-traversed-edges per second, the paper's Figure 9 (center) metric.
  double gteps() const {
    return seconds() > 0 ? static_cast<double>(traversed_edges) / seconds() / 1e9 : 0.0;
  }
};

class App {
 public:
  static App& install(Machine& m, const DeviceGraph& dg, const Options& opt = {});

  App(Machine& m, const DeviceGraph& dg, const Options& opt);

  Result run();

  const kvmsr::JobState& round_state() const { return lib_->state(job_); }

 private:
  friend struct BfsDriver;
  friend struct BfsAccelMaster;
  friend struct BfsScan;
  friend struct BfsExpand;
  friend struct BfsExpandChunk;
  friend struct BfsReduce;

  Addr slice_addr(unsigned buf, NetworkId lane) const {
    return frontier_[buf] + static_cast<Addr>(lane) * slice_cap_ * 8;
  }

  Machine& m_;
  kvmsr::Library* lib_;
  DeviceGraph dg_;
  Options opt_;

  Addr frontier_[2] = {0, 0};
  std::uint64_t slice_cap_ = 0;
  unsigned cur_buf_ = 0;
  std::uint64_t round_ = 0;

  // Lane-local scratchpad state, modeled host-side with charged access costs:
  // frontier slice fill counts and the visited test-and-set flags.
  std::vector<std::uint32_t> cur_count_;
  std::vector<std::uint32_t> nxt_count_;
  // One visited flag per vertex. Vertex v is only ever tested on its reduce
  // lane hash64(v) % lanes (the root's seed lane too), so this flat array is
  // the union of the per-lane scratchpad sets, and each flag has exactly one
  // writing shard. The flags are bytes, not vector<bool>: neighbouring
  // vertices hash to lanes on different shards, and bits packed into one
  // word would make their concurrent test-and-sets a data race.
  std::vector<std::uint8_t> visited_;
  // Bumped by reduce tasks on many lanes (= many shards); read only after
  // the round's gather, which is ordered by a happens-before message chain.
  std::atomic<std::uint64_t> added_{0};

  kvmsr::JobId job_ = 0;
  EventLabel driver_start_ = 0;
  EventLabel scan_start_ = 0;
  EventLabel expand_start_ = 0;
  EventLabel expand_chunk_ = 0;
  struct Labels {
    EventLabel d_round_done = 0;
    EventLabel m_scan_done = 0;
    EventLabel s_slice_loaded = 0;
    EventLabel s_expand_done = 0;
    EventLabel e_rec_loaded = 0;
    EventLabel e_nbrs_loaded = 0;
    EventLabel e_chunk_done = 0;
    EventLabel c_nbrs_loaded = 0;
    EventLabel r_written = 0;
  } lb_;

  // Result fields filled by the driver.
  Tick start_tick_ = 0;
  Tick done_tick_ = 0;
  std::uint64_t traversed_edges_ = 0;
  std::uint64_t rounds_ = 0;
  bool finished_ = false;
};

}  // namespace updown::bfs
