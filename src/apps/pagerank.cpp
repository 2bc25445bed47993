#include "apps/pagerank.hpp"

#include <stdexcept>

namespace updown::pr {

// The app's binding of the shared kernel: its one graph and value arrays,
// the Options damping, untagged combining-cache adds.
struct AppSite {
  const App* app = nullptr;

  static AppSite bind(Ctx& ctx, kvmsr::JobId) { return {&ctx.machine().user<App>()}; }
  const DeviceGraph& graph() const { return app->dg_; }
  Addr rank_base() const { return app->rank_base_; }
  Addr acc_base() const { return app->acc_base_; }
  Addr slot_table() const { return app->slot_tab_; }
  double damping() const { return app->opt_.damping; }
  Word tag() const { return kvmsr::CombiningCache::kUntagged; }
  const KernelLabels& labels() const { return app->lb_; }
};

// ---------------------------------------------------------------------------
// Driver thread: chains propagate -> apply per iteration via continuations.
// ---------------------------------------------------------------------------
struct PrDriver : ThreadState {
  unsigned iter = 0;

  void d_start(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    app.start_tick_ = ctx.start_time();
    launch_propagate(ctx);
  }

  void d_prop_done(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    app.edge_updates_ += ctx.op(0);  // emitted tuples == edge updates
    app.lib_->launch(ctx, app.apply_job_, 0, app.dg_.num_original,
                     ctx.evw_update_event(ctx.cevnt(), app.d_apply_done_));
  }

  void d_apply_done(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    ctx.trace_phase_end("pr.iteration");
    if (++iter < app.opt_.iterations) {
      launch_propagate(ctx);
    } else {
      app.done_tick_ = ctx.now();
      app.finished_ = true;
      ctx.log("[pagerank] done: %u iterations, %llu edge updates", iter,
              static_cast<unsigned long long>(app.edge_updates_));
      ctx.yield_terminate();
    }
  }

 private:
  void launch_propagate(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    // udtrace superstep span: one "pr.iteration" covering propagate + apply,
    // nesting the two KVMSR jobs' own phase spans on the driver lane.
    ctx.trace_phase_begin("pr.iteration");
    app.lib_->launch(ctx, app.propagate_job_, 0, app.dg_.num_vertices,
                     ctx.evw_update_event(ctx.cevnt(), app.d_prop_done_));
  }
};

// ---------------------------------------------------------------------------

App& App::install(Machine& m, const DeviceGraph& dg, const SplitGraph& sg,
                  const Options& opt) {
  return m.emplace_user<App>(m, dg, sg, opt);
}

App::App(Machine& m, const DeviceGraph& dg, const SplitGraph& sg, const Options& opt)
    : m_(m), dg_(dg), opt_(opt) {
  lib_ = &kvmsr::Library::install(m);
  cc_ = &kvmsr::CombiningCache::install(m);
  Program& p = m.program();

  lb_ = register_kernel<AppSite>(p, "pr::");
  d_prop_done_ = p.event("pr::d_prop_done", &PrDriver::d_prop_done);
  d_apply_done_ = p.event("pr::d_apply_done", &PrDriver::d_apply_done);
  driver_start_ = p.event("pr::d_start", &PrDriver::d_start);

  // Rank array (per original), accumulator array (per slot), and, for a
  // split graph, the slot_offset table, placed per Options (defaults: spread
  // over the whole machine in 32 KiB blocks, like the graph itself). An
  // unsplit graph's slot v is v, so its apply needs no table.
  const std::uint32_t nr =
      opt.value_placement.nr_nodes ? opt.value_placement.nr_nodes : m.config().nodes;
  auto place = [&](std::uint64_t bytes) {
    return m.memory().dram_malloc(std::max<std::uint64_t>(8, bytes),
                                  opt.value_placement.first_node, nr,
                                  opt.value_placement.block_size);
  };
  const std::uint64_t num_slots = sg.num_slots();
  rank_base_ = place(dg.num_original * 8);
  acc_base_ = place(num_slots * 8);
  const double init = 1.0 / static_cast<double>(dg.num_original);
  for (VertexId v = 0; v < dg.num_original; ++v)
    m.memory().host_store<double>(rank_base_ + v * 8, init);
  for (std::uint64_t s = 0; s < num_slots; ++s)
    m.memory().host_store<double>(acc_base_ + s * 8, 0.0);
  if (dg.num_vertices != dg.num_original) {
    slot_tab_ = place((dg.num_original + 1) * 8);
    m.memory().host_write(slot_tab_, sg.slot_offset.data(), (dg.num_original + 1) * 8);
  }

  kvmsr::JobSpec prop;
  prop.kv_map = lb_.kv_map;
  prop.kv_reduce = lb_.kv_reduce;
  prop.flush = cc_->flush_label();
  prop.map_binding = opt.map_binding;
  prop.coalesce_tuples = opt.coalesce_tuples;
  // Contributions to one accumulator slot are order-insensitive f64 sums up
  // to rounding; combining only activates when the job coalesces.
  prop.combiner = kvmsr::Combiner::kSumF64;
  prop.name = "pr.propagate";
  propagate_job_ = lib_->add_job(prop);

  kvmsr::JobSpec apply;
  apply.kv_map = lb_.apply;
  apply.name = "pr.apply";
  apply_job_ = lib_->add_job(apply);
}

Result App::run() {
  m_.send_from_host(evw::make_new(0, driver_start_), {});
  m_.run();
  if (!finished_) throw std::runtime_error("pagerank: driver did not finish");

  Result r;
  r.start_tick = start_tick_;
  r.done_tick = done_tick_;
  r.edge_updates = edge_updates_;
  r.iterations = opt_.iterations;
  r.rank.resize(dg_.num_original);
  for (VertexId v = 0; v < dg_.num_original; ++v)
    r.rank[v] = m_.memory().host_load<double>(rank_base_ + v * 8);
  return r;
}

}  // namespace updown::pr
