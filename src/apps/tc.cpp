#include "apps/tc.hpp"

namespace updown::tc {

// The app's binding of the shared kernel: its one graph, one count cell per
// machine lane, untagged combining-cache adds.
struct AppSite {
  static App& app(Ctx& ctx) { return ctx.machine().user<App>(); }
  static const DeviceGraph& graph(Ctx& ctx, kvmsr::JobId) { return app(ctx).dg_; }
  static Addr cell(Ctx& ctx, kvmsr::JobId) {
    return app(ctx).count_base_ + static_cast<Addr>(ctx.nwid()) * 8;
  }
  static Word tag(kvmsr::JobId) { return kvmsr::CombiningCache::kUntagged; }
  static const KernelLabels& labels(Ctx& ctx) { return app(ctx).lb_; }
};

App& App::install(Machine& m, const DeviceGraph& dg, const Options& opt) {
  return m.emplace_user<App>(m, dg, opt);
}

App::App(Machine& m, const DeviceGraph& dg, const Options& opt)
    : m_(m), dg_(dg), opt_(opt) {
  lib_ = &kvmsr::Library::install(m);
  cc_ = &kvmsr::CombiningCache::install(m);
  lb_ = register_kernel<AppSite>(m.program(), "tc::");

  const std::uint64_t lanes = m.config().total_lanes();
  count_base_ = m.memory().dram_malloc_spread(lanes * 8, 4096);
  m.memory().host_fill(count_base_, 0, lanes * 8);

  kvmsr::JobSpec spec;
  spec.kv_map = lb_.kv_map;
  spec.kv_reduce = lb_.kv_reduce;
  spec.flush = cc_->flush_label();
  spec.map_binding = opt.map_binding;
  spec.coalesce_tuples = opt.coalesce_tuples;  // combiner stays kNone: pair keys are unique
  spec.name = "tc";
  job_ = lib_->add_job(spec);
}

Result App::run() {
  const kvmsr::JobState& st = lib_->run_to_completion(job_, 0, dg_.num_vertices);
  Result r;
  r.start_tick = st.start_tick;
  r.done_tick = st.done_tick;
  r.pairs = st.total_emitted;
  for (std::uint64_t l = 0; l < m_.config().total_lanes(); ++l)
    r.triangles += m_.memory().host_load<Word>(count_base_ + l * 8);
  return r;
}

}  // namespace updown::tc
