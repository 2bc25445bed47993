// Push-based PageRank on KVMSR (paper Section 4.1, Listing 3).
//
// One kv_map task per (sub-)vertex reads its vertex record, the owner's
// current rank, and its neighbor list in chunks of eight, then emits a
// <target, contribution> tuple per edge — vertex parallelism on the map side,
// edge parallelism on the reduce side. kv_reduce accumulates contributions
// into a per-vertex accumulator array through the combining cache (the
// paper's software fetch&add). An apply phase (a second, map-only KVMSR job)
// folds the accumulators into ranks with the damping formula and zeroes them
// for the next iteration.
//
// The graph is vertex-split to a maximum degree (default 512, the paper's PR
// setting) "yet yields the correct result for the original graph": sub-vertex
// s pushes rank[owner(s)] / total_degree(owner(s)) along its slice of the
// owner's edges, and reductions key on original vertex ids.
//
// Iterations are chained on-device by a driver thread using KVMSR launch
// continuations — the host only fires the driver and reads results after
// quiescence.
//
// The kernel (PrMap/PrReduce/PrApply) is shared with the serve layer's
// kPageRank query: a caller binds it through a Site type and supplies the
// graph, its rank/accumulator/slot-table bases, the damping and the
// combining-cache tag. Each task binds its Site once, from its job, and
// keeps it for all its handlers. The apply picks its head from the graph: a
// split graph (num_vertices != num_original) reads v's slot range from the
// slot table and sums its accumulator chunks; on an unsplit graph slot v is
// v, so it reads the one accumulator word and goes straight to the shared
// tail.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/layout.hpp"
#include "kvmsr/combining_cache.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown::pr {

/// Event labels of one Site's instantiation of the kernel.
struct KernelLabels {
  EventLabel kv_map = 0, kv_reduce = 0, apply = 0;
  EventLabel v_loaded = 0, r_loaded = 0, n_loaded = 0;
  EventLabel o_loaded = 0, a_loaded = 0, a_word = 0, a_written = 0;
};

struct Options {
  unsigned iterations = 5;
  double damping = 0.85;
  /// Computation binding for the propagate map phase (Block default).
  kvmsr::MapBinding map_binding = kvmsr::MapBinding::kBlock;
  /// Shuffle coalescing factor for the propagate job (1 = off; see
  /// kvmsr::JobSpec::coalesce_tuples, overridable via UD_COALESCE). The
  /// propagate job declares kSumF64 map-side combining, so whenever the job
  /// coalesces, same-slot contributions sharing a source lane merge in the
  /// emit buffer; ranks then differ from the uncoalesced run only by f64
  /// summation order.
  std::uint32_t coalesce_tuples = 1;
  /// Placement of the rank/accumulator value arrays.
  GraphPlacement value_placement{};
};

struct Result {
  std::vector<double> rank;  ///< per original vertex
  Tick start_tick = 0;
  Tick done_tick = 0;
  /// Total emitted tuples over all iterations. With map-side combining this
  /// counts post-combine tuples (reduce tasks), not raw edge traversals, so
  /// gups() is not comparable between combining-on and combining-off runs.
  std::uint64_t edge_updates = 0;
  unsigned iterations = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
  /// Giga-updates per second, the paper's Figure 9 (left) metric.
  double gups() const {
    return seconds() > 0 ? static_cast<double>(edge_updates) / seconds() / 1e9 : 0.0;
  }
};

/// PageRank application instance; install at most one per Machine.
class App {
 public:
  /// `dg` must be the device image of `sg` (upload_split_graph). The split
  /// graph supplies the accumulator-slot numbering that load-balances
  /// reductions into high-in-degree vertices.
  static App& install(Machine& m, const DeviceGraph& dg, const SplitGraph& sg,
                      const Options& opt = {});

  App(Machine& m, const DeviceGraph& dg, const SplitGraph& sg, const Options& opt);

  /// Fire the driver, simulate to completion, read back ranks.
  Result run();

  // -- introspection (used by benches) --
  const kvmsr::JobState& propagate_state() const { return lib_->state(propagate_job_); }

 private:
  friend struct PrDriver;
  friend struct AppSite;

  Machine& m_;
  kvmsr::Library* lib_;
  kvmsr::CombiningCache* cc_;
  DeviceGraph dg_;
  Options opt_;

  Addr rank_base_ = 0;   ///< f64 rank per original vertex
  Addr acc_base_ = 0;    ///< f64 accumulator per slot (num_slots cells)
  Addr slot_tab_ = 0;    ///< slot_offset table, num_original + 1 words (split graphs only)

  kvmsr::JobId propagate_job_ = 0;
  kvmsr::JobId apply_job_ = 0;
  EventLabel driver_start_ = 0;
  EventLabel d_prop_done_ = 0, d_apply_done_ = 0;
  KernelLabels lb_;

  // Result fields written by the driver thread.
  Tick start_tick_ = 0;
  Tick done_tick_ = 0;
  std::uint64_t edge_updates_ = 0;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// The kernel. `Site` binds it to one caller: a default-constructible value
// made once per task by
//   static Site bind(Ctx&, kvmsr::JobId)  resolve the running task's job
// and read through its members:
//   const DeviceGraph& graph() const
//   Addr rank_base() const    f64 rank per original vertex
//   Addr acc_base() const     f64 accumulator per slot
//   Addr slot_table() const   slot_offset words; read only when the graph
//                             is split
//   double damping() const
//   Word tag() const          combining-cache tag of the adds
//   const KernelLabels& labels() const  what register_kernel<Site> returned
// ---------------------------------------------------------------------------

/// Propagate map, one task per (sub-)vertex (Listing 3's PageRankWorker).
template <class Site>
struct PrMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Site site;
  Word degree = 0;
  Word nbr_ptr = 0;
  Word owner = 0;
  Word owner_degree = 0;
  double contrib = 0.0;
  Word loaded_neighbors = 0;  // the paper's loadedNeighbors completion counter

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    job = kvmsr::Library::map_job(ctx);
    site = Site::bind(ctx, job);
    const Word v = kvmsr::Library::map_key(ctx);
    // One read returns the whole 8-word vertex record.
    ctx.send_dram_read(site.graph().vertex_addr(v), 8, site.labels().v_loaded);
  }

  void v_loaded(Ctx& ctx) {
    owner = ctx.op(DeviceGraph::kId);
    degree = ctx.op(DeviceGraph::kDegree);
    nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    owner_degree = ctx.op(DeviceGraph::kOwnerDegree);
    ctx.charge(3);
    if (degree == 0) {
      ctx.machine().service<kvmsr::Library>().map_return(ctx, kvmsr_cont);
      return;
    }
    ctx.send_dram_read(site.rank_base() + owner * 8, 1, site.labels().r_loaded);
  }

  void r_loaded(Ctx& ctx) {
    contrib = std::bit_cast<double>(ctx.op(0)) / static_cast<double>(owner_degree);
    ctx.charge(2);
    // Issue all neighbor-chunk reads up front: memory parallelism
    // proportional to the edges (Section 4.1.2).
    const EventLabel nbrs = site.labels().n_loaded;
    for (Word i = 0; i < degree; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, degree - i));
      ctx.charge(2);  // loop control + address arithmetic
      ctx.send_dram_read(nbr_ptr + i * 8, n, nbrs);
    }
  }

  void n_loaded(Ctx& ctx) {
    auto& lib = ctx.machine().service<kvmsr::Library>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      lib.emit(ctx, job, ctx.op(i), std::bit_cast<Word>(contrib));
    }
    loaded_neighbors += ctx.nops();
    if (loaded_neighbors == degree) lib.map_return(ctx, kvmsr_cont);
  }
};

/// Propagate reduce: fold one contribution into its accumulator slot.
template <class Site>
struct PrReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    const kvmsr::JobId job = kvmsr::Library::reduce_job(ctx);
    const Word slot = kvmsr::Library::reduce_key(ctx);
    const double c = std::bit_cast<double>(kvmsr::Library::reduce_val(ctx));
    const Site site = Site::bind(ctx, job);
    ctx.machine().service<kvmsr::CombiningCache>().add_f64(
        ctx, site.acc_base() + slot * 8, c, site.tag());
    ctx.machine().service<kvmsr::Library>().reduce_return(ctx, job);
  }
};

/// Apply: one task per ORIGINAL vertex v. Sum v's accumulator slots
/// [slot_offset[v], slot_offset[v+1]), fold in the damping formula, write the
/// new rank, and zero the slots for the next iteration.
template <class Site>
struct PrApply : kvmsr::MapTask {
  Site site;
  Word v = 0;
  Word first_slot = 0, end_slot = 0;
  double sum = 0.0;
  Word chunks_loaded = 0, chunks_expected = 0;
  unsigned acks = 0, acks_expected = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    site = Site::bind(ctx, kvmsr::Library::map_job(ctx));
    v = kvmsr::Library::map_key(ctx);
    const DeviceGraph& g = site.graph();
    if (g.num_vertices != g.num_original) {
      ctx.send_dram_read(site.slot_table() + v * 8, 2, site.labels().o_loaded);
      return;
    }
    // Unsplit: slot v is v, one accumulator word and no chunk loop.
    first_slot = v;
    end_slot = v + 1;
    ctx.send_dram_read(site.acc_base() + v * 8, 1, site.labels().a_word);
  }

  void o_loaded(Ctx& ctx) {
    first_slot = ctx.op(0);
    end_slot = ctx.op(1);
    chunks_expected = ceil_div(end_slot - first_slot, 8);
    ctx.charge(2);
    const Addr acc = site.acc_base();
    const EventLabel loaded = site.labels().a_loaded;
    for (Word s = first_slot; s < end_slot; s += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, end_slot - s));
      ctx.charge(2);
      ctx.send_dram_read(acc + s * 8, n, loaded);
    }
  }

  void a_loaded(Ctx& ctx) {
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      sum += std::bit_cast<double>(ctx.op(i));
    }
    if (++chunks_loaded == chunks_expected) apply(ctx);
  }

  void a_word(Ctx& ctx) {
    sum = std::bit_cast<double>(ctx.op(0));
    apply(ctx);
  }

  void a_written(Ctx& ctx) {
    if (++acks == acks_expected)
      ctx.machine().service<kvmsr::Library>().map_return(ctx, kvmsr_cont);
  }

 private:
  void apply(Ctx& ctx) {
    const double n = static_cast<double>(site.graph().num_original);
    const double d = site.damping();
    const double rank = (1.0 - d) / n + d * sum;
    ctx.charge(4);
    // Acked writes: the next iteration must not read stale ranks or stale
    // accumulators.
    const EventLabel written = site.labels().a_written;
    acks_expected = 1 + static_cast<unsigned>(ceil_div(end_slot - first_slot, 8));
    ctx.send_dram_write(site.rank_base() + v * 8, {std::bit_cast<Word>(rank)}, written);
    const Addr acc = site.acc_base();
    const Word zeros[8] = {};
    for (Word s = first_slot; s < end_slot; s += 8) {
      const unsigned k = static_cast<unsigned>(std::min<Word>(8, end_slot - s));
      ctx.send_dram_writev(acc + s * 8, zeros, k,
                           ctx.evw_update_event(ctx.cevnt(), written));
    }
  }
};

/// Register Site's instantiation of the kernel; `prefix` names its events.
template <class Site>
KernelLabels register_kernel(Program& p, const std::string& prefix) {
  KernelLabels lb;
  lb.kv_map = p.event(prefix + "kv_map", &PrMap<Site>::kv_map);
  lb.kv_reduce = p.event(prefix + "kv_reduce", &PrReduce<Site>::kv_reduce);
  lb.apply = p.event(prefix + "apply", &PrApply<Site>::kv_map);
  lb.v_loaded = p.event(prefix + "v_loaded", &PrMap<Site>::v_loaded);
  lb.r_loaded = p.event(prefix + "r_loaded", &PrMap<Site>::r_loaded);
  lb.n_loaded = p.event(prefix + "n_loaded", &PrMap<Site>::n_loaded);
  lb.o_loaded = p.event(prefix + "o_loaded", &PrApply<Site>::o_loaded);
  lb.a_loaded = p.event(prefix + "a_loaded", &PrApply<Site>::a_loaded);
  lb.a_word = p.event(prefix + "a_word", &PrApply<Site>::a_word);
  lb.a_written = p.event(prefix + "a_written", &PrApply<Site>::a_written);
  return lb;
}

}  // namespace updown::pr
