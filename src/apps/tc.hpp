// Triangle Counting on KVMSR (paper Section 4.3).
//
// kv_map tasks run over all vertices; each enumerates the connected vertex
// pairs <v_x, v_y> with x > y and emits one tuple per pair — vertex
// parallelism on the map side, edge parallelism on the reduce side. kv_reduce
// tasks stream BOTH neighbor lists from DRAM (the paper's second TC version:
// "streams both neighbor lists in the reduce function, consuming more memory
// bandwidth but improving load balance") and merge-intersect the prefixes
// z < y, so every triangle x > y > z is counted exactly once.
//
// Counts accumulate through the combining cache into per-lane counter cells
// (lane-owned, so flushes never race); the host sums the cells after the run.
//
// The map side supports both Block and PBMW computation binding — the paper
// compares the two and found Block sufficient once the reduce was
// load-balanced; the PBMW variant remains available (Section 4.3.3).
//
// The kernel (TcMap/TcReduce) is shared with the serve layer's kTriangles
// query: a caller binds it through a Site type and supplies only the graph,
// its count cells and the combining-cache tag.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/layout.hpp"
#include "kvmsr/combining_cache.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown::tc {

/// Event labels of one Site's instantiation of the kernel.
struct KernelLabels {
  EventLabel kv_map = 0, kv_reduce = 0;
  EventLabel m_rec = 0, m_nbrs = 0;
  EventLabel r_rec = 0, r_xchunk = 0, r_ychunk = 0;
};

struct Options {
  kvmsr::MapBinding map_binding = kvmsr::MapBinding::kBlock;
  /// Shuffle coalescing factor for the pair job (1 = off; UD_COALESCE
  /// overrides). TC never enables map-side combining: every pair key is
  /// emitted exactly once, so there is nothing to merge.
  std::uint32_t coalesce_tuples = 1;
};

struct Result {
  std::uint64_t triangles = 0;
  std::uint64_t pairs = 0;  ///< reduce tasks (connected pairs with x > y)
  Tick start_tick = 0;
  Tick done_tick = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
};

class App {
 public:
  /// `dg` must be the device image of a symmetric (undirected) graph with
  /// sorted adjacency lists.
  static App& install(Machine& m, const DeviceGraph& dg, const Options& opt = {});

  App(Machine& m, const DeviceGraph& dg, const Options& opt);

  Result run();

 private:
  friend struct AppSite;

  Machine& m_;
  kvmsr::Library* lib_;
  kvmsr::CombiningCache* cc_;
  DeviceGraph dg_;
  Options opt_;

  Addr count_base_ = 0;  ///< one u64 counter cell per lane
  kvmsr::JobId job_ = 0;
  KernelLabels lb_;
};

/// Pack/unpack the pair key (vertex ids fit in 32 bits at simulated scales).
constexpr Word pair_key(Word x, Word y) { return (x << 32) | y; }
constexpr Word pair_x(Word key) { return key >> 32; }
constexpr Word pair_y(Word key) { return key & 0xFFFFFFFFull; }

// ---------------------------------------------------------------------------
// The kernel. `Site` binds it to one caller through static members, each
// resolved from the running task's job:
//   const DeviceGraph& graph(Ctx&, kvmsr::JobId)  symmetric, sorted lists
//   Addr cell(Ctx&, kvmsr::JobId)   the calling lane's u64 count cell
//   Word tag(kvmsr::JobId)          combining-cache tag of the count add
//   const KernelLabels& labels(Ctx&)  what register_kernel<Site> returned
// ---------------------------------------------------------------------------

/// Map: enumerate connected pairs <x, y> with x > y.
template <class Site>
struct TcMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word x = 0;
  Word degree = 0;
  Word loaded = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    job = kvmsr::Library::map_job(ctx);
    x = kvmsr::Library::map_key(ctx);
    ctx.send_dram_read(Site::graph(ctx, job).vertex_addr(x), 8, Site::labels(ctx).m_rec);
  }

  void m_rec(Ctx& ctx) {
    auto& lib = ctx.machine().service<kvmsr::Library>();
    degree = ctx.op(DeviceGraph::kDegree);
    const Word nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (degree == 0) {
      lib.map_return(ctx, kvmsr_cont);
      return;
    }
    const EventLabel nbrs = Site::labels(ctx).m_nbrs;
    for (Word i = 0; i < degree; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, degree - i));
      ctx.charge(2);
      ctx.send_dram_read(nbr_ptr + i * 8, n, nbrs);
    }
  }

  void m_nbrs(Ctx& ctx) {
    auto& lib = ctx.machine().service<kvmsr::Library>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      const Word y = ctx.op(i);
      ctx.charge(1);
      if (y < x) lib.emit(ctx, job, pair_key(x, y), 0);
    }
    loaded += ctx.nops();
    if (loaded == degree) lib.map_return(ctx, kvmsr_cont);
  }
};

/// Reduce: stream-intersect the z < y prefixes of N(x) and N(y).
template <class Site>
struct TcReduce : ThreadState {
  kvmsr::JobId job = 0;
  Word x = 0, y = 0;
  Word deg[2] = {0, 0};
  Word ptr[2] = {0, 0};
  unsigned recs = 0;

  // Both lists are streamed with full memory parallelism (every chunk read
  // issued at once) and merged locally when complete. A strict
  // request-response chunk chain would serialize tens of round trips on the
  // critical path; issuing them all up front is the paper's second TC
  // version — "streams both neighbor lists ... consuming more memory
  // bandwidth but improving load balance. This is a net win."
  std::vector<Word> list[2];
  Word arrived = 0, expected = 0;
  Word found = 0;

  void kv_reduce(Ctx& ctx) {
    job = kvmsr::Library::reduce_job(ctx);
    const Word key = kvmsr::Library::reduce_key(ctx);
    x = pair_x(key);
    y = pair_y(key);
    ctx.charge(2);
    const DeviceGraph& dg = Site::graph(ctx, job);
    const EventLabel rec = Site::labels(ctx).r_rec;
    ctx.send_dram_read(dg.vertex_addr(x), 8, rec);
    ctx.send_dram_read(dg.vertex_addr(y), 8, rec);
  }

  void r_rec(Ctx& ctx) {
    const unsigned side = ctx.ccont() == Site::graph(ctx, job).vertex_addr(x) ? 0 : 1;
    deg[side] = ctx.op(DeviceGraph::kDegree);
    ptr[side] = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (++recs < 2) return;
    if (deg[0] == 0 || deg[1] == 0) {
      finish(ctx);
      return;
    }
    const KernelLabels& lb = Site::labels(ctx);
    for (unsigned s = 0; s < 2; ++s) {
      list[s].assign(deg[s], 0);
      for (Word i = 0; i < deg[s]; i += 8) {
        const unsigned n = static_cast<unsigned>(std::min<Word>(8, deg[s] - i));
        ctx.charge(2);
        ctx.send_dram_read(ptr[s] + i * 8, n, s == 0 ? lb.r_xchunk : lb.r_ychunk);
        ++expected;
      }
    }
  }

  void r_xchunk(Ctx& ctx) { chunk_arrived(ctx, 0); }
  void r_ychunk(Ctx& ctx) { chunk_arrived(ctx, 1); }

 private:
  void chunk_arrived(Ctx& ctx, unsigned side) {
    // The DRAM response continuation carries the request address.
    const Word base = (ctx.ccont() - ptr[side]) / 8;
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      list[side][base + i] = ctx.op(i);
    }
    if (++arrived == expected) merge(ctx);
  }

  void merge(Ctx& ctx) {
    std::size_t i = 0, j = 0;
    while (i < list[0].size() && j < list[1].size()) {
      const Word a = list[0][i], b = list[1][j];
      ctx.charge(1);
      if (a >= y || b >= y) break;  // only the z < y prefix counts
      if (a < b) {
        ++i;
      } else if (b < a) {
        ++j;
      } else {
        ++found;
        ++i;
        ++j;
      }
    }
    finish(ctx);
  }

  void finish(Ctx& ctx) {
    if (found > 0)
      ctx.machine().service<kvmsr::CombiningCache>().add_u64(ctx, Site::cell(ctx, job), found,
                                                             Site::tag(job));
    ctx.machine().service<kvmsr::Library>().reduce_return(ctx, job);
  }
};

/// Register Site's instantiation of the kernel; `prefix` names its events.
template <class Site>
KernelLabels register_kernel(Program& p, const std::string& prefix) {
  KernelLabels lb;
  lb.kv_map = p.event(prefix + "kv_map", &TcMap<Site>::kv_map);
  lb.kv_reduce = p.event(prefix + "kv_reduce", &TcReduce<Site>::kv_reduce);
  lb.m_rec = p.event(prefix + "m_rec", &TcMap<Site>::m_rec);
  lb.m_nbrs = p.event(prefix + "m_nbrs", &TcMap<Site>::m_nbrs);
  lb.r_rec = p.event(prefix + "r_rec", &TcReduce<Site>::r_rec);
  lb.r_xchunk = p.event(prefix + "r_xchunk", &TcReduce<Site>::r_xchunk);
  lb.r_ychunk = p.event(prefix + "r_ychunk", &TcReduce<Site>::r_ychunk);
  return lb;
}

}  // namespace updown::tc
