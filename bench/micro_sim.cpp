// Host-side microbenchmarks (google-benchmark): how fast the simulator
// itself runs. These are the knobs that determine how large a machine and
// dataset one host core can simulate — the Fastsim-vs-Gem5 tradeoff of the
// paper's methodology section.
//
// Besides the google-benchmark timings, the binary always runs a fixed
// million-event mixed workload (message chains + DRAM round trips across an
// 8-node machine), reports simulated events per wall-clock second, and writes
// the result to BENCH_micro_sim.json so the event-engine throughput trend is
// tracked PR over PR.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "kvmsr/kvmsr.hpp"
#include "mem/global_memory.hpp"
#include "sim/event_queue.hpp"
#include "udweave/context.hpp"

using namespace updown;

static void BM_Translation(benchmark::State& state) {
  GlobalMemory gm(64);
  const Addr base = gm.dram_malloc(64ull << 20, 0, 64, 32 * 1024);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const Addr a = base + (rng() % (64ull << 20)) / 8 * 8;
    benchmark::DoNotOptimize(gm.translate(a));
  }
}
BENCHMARK(BM_Translation);

static void BM_Hash64(benchmark::State& state) {
  std::uint64_t x = 12345;
  for (auto _ : state) {
    x = hash64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Hash64);

/// Raw push/pop throughput of the calendar queue against the event-time
/// distribution the machine produces (mostly near-future, occasional far).
static void BM_CalendarQueue(benchmark::State& state) {
  for (auto _ : state) {
    CalendarEventQueue q;
    Xoshiro256 rng(7);
    std::uint32_t seq = 0;
    Tick now = 0;
    for (int warm = 0; warm < 256; ++warm)
      q.push(QEntry{now + 2 + rng() % 1000, 0, seq++, 0, 0});
    for (int i = 0; i < 100000; ++i) {
      const QEntry e = q.pop();
      now = e.t;
      const Tick ahead = (rng() % 64 == 0) ? 20000 + rng() % 80000 : 2 + rng() % 1000;
      q.push(QEntry{now + ahead, 0, seq++, 0, 0});
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_CalendarQueue)->Unit(benchmark::kMillisecond);

namespace {
struct PingApp {
  EventLabel ping = 0;
};
struct TPing : ThreadState {
  void ping(Ctx& ctx) {
    auto& app = ctx.machine().user<PingApp>();
    if (ctx.op(0) > 0)
      ctx.send_event(ctx.evw_new((ctx.nwid() + 1) % ctx.machine().config().total_lanes(),
                                 app.ping),
                     {ctx.op(0) - 1});
    ctx.yield_terminate();
  }
};
}  // namespace

/// Simulated-events-per-second of the discrete-event core (message chain).
static void BM_EventChain(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Machine m(MachineConfig::scaled(4));
    auto& app = m.emplace_user<PingApp>();
    app.ping = m.program().event("TPing::ping", &TPing::ping);
    state.ResumeTiming();
    m.send_from_host(evw::make_new(0, app.ping), {10000});
    m.run();
    benchmark::DoNotOptimize(m.stats().events_executed);
  }
  state.SetItemsProcessed(state.iterations() * 10001);
}
BENCHMARK(BM_EventChain)->Unit(benchmark::kMillisecond);

static void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Graph g = rmat(static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_RmatGeneration)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The million-event throughput workload: 64 message chains striding across an
// 8-node machine (cross-accelerator and cross-node hops) interleaved with 32
// DRAM-read chains (request + reply per hop). Deterministic; ~1.02M events.
// ---------------------------------------------------------------------------
namespace {
struct ChainApp {
  EventLabel hop = 0;
  EventLabel dram_hop = 0;
  EventLabel dram_ret = 0;
  Addr buf = 0;
};
struct TChain : ThreadState {
  void hop(Ctx& ctx) {
    auto& app = ctx.machine().user<ChainApp>();
    const Word remaining = ctx.op(0);
    const Word stride = ctx.op(1);
    if (remaining > 0) {
      const NetworkId dst = static_cast<NetworkId>(
          (ctx.nwid() + stride) % ctx.machine().config().total_lanes());
      ctx.send_event(ctx.evw_new(dst, app.hop), {remaining - 1, stride});
    }
    ctx.yield_terminate();
  }
};
struct TDramChain : ThreadState {
  Word remaining = 0;
  Word stride = 0;
  void start(Ctx& ctx) {
    auto& app = ctx.machine().user<ChainApp>();
    remaining = ctx.op(0);
    stride = ctx.op(1);
    ctx.send_dram_read(app.buf + (ctx.nwid() % 512) * 64, 8, app.dram_ret);
  }
  void ret(Ctx& ctx) {
    auto& app = ctx.machine().user<ChainApp>();
    if (remaining > 0) {
      const NetworkId dst = static_cast<NetworkId>(
          (ctx.nwid() + stride) % ctx.machine().config().total_lanes());
      ctx.send_event(ctx.evw_new(dst, app.dram_hop), {remaining - 1, stride});
    }
    ctx.yield_terminate();
  }
};

struct ThroughputResult {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t dram_accesses = 0;
  Tick final_tick = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  EngineStats engine;
  std::uint64_t max_queue_depth = 0;
  bool checker_enabled = false;
  std::uint64_t shadow_peak_bytes = 0;  ///< udcheck shadow-memory high-water mark
};

ThroughputResult run_throughput_workload(bool check = false, std::uint32_t shards = 1) {
  MachineConfig cfg = MachineConfig::scaled(8);
  cfg.check = check;
  cfg.shards = shards;  // note: a UD_SHARDS env var would override this
  Machine m(cfg);
  auto& app = m.emplace_user<ChainApp>();
  app.hop = m.program().event("TChain::hop", &TChain::hop);
  app.dram_hop = m.program().event("TDramChain::start", &TDramChain::start);
  app.dram_ret = m.program().event("TDramChain::ret", &TDramChain::ret);
  app.buf = m.memory().dram_malloc_spread(1ull << 20);

  const unsigned kChains = 64;
  const Word kHops = 14000;
  const unsigned kDramChains = 32;
  const Word kDramHops = 2000;

  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned c = 0; c < kChains; ++c)
    m.send_from_host(evw::make_new(c % m.config().total_lanes(), app.hop),
                     {kHops, 2 * c + 1});
  for (unsigned c = 0; c < kDramChains; ++c)
    m.send_from_host(evw::make_new((c * 7) % m.config().total_lanes(), app.dram_hop),
                     {kDramHops, 2 * c + 5});
  m.run();
  const auto t1 = std::chrono::steady_clock::now();

  ThroughputResult r;
  r.events = m.stats().events_executed;
  r.messages = m.stats().messages_sent;
  r.dram_accesses = m.stats().dram_reads + m.stats().dram_writes;
  r.final_tick = m.now();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec = r.wall_seconds > 0 ? r.events / r.wall_seconds : 0.0;
  r.engine = m.engine_stats();
  r.max_queue_depth = m.stats().max_queue_depth;
  r.checker_enabled = m.stats().check.enabled;  // env UD_CHECK=1 can force it on
  r.shadow_peak_bytes = m.stats().check.shadow_peak_bytes;
  return r;
}

/// Checker-off throughput recorded when the udcheck hook sites landed (each
/// hook is one null test on the disabled path). The guard below asserts the
/// disabled-checker path stays within 2% of this on comparable hardware;
/// absolute events/s varies across machines, so the hard failure is opt-in
/// via UD_BENCH_ENFORCE=1 (set it when running on the reference box).
/// UD_BENCH_ENFORCE=ratios enforces only the box-independent gates below
/// (checker-cost ceiling, shard-speedup floor) — that is what CI sets.
constexpr double kBaselineEventsPerSec = 11018594.0;
constexpr double kMaxCheckerOffRegressPct = 2.0;
/// Ceiling on the serial checker's throughput cost. The epoch/flat-shadow
/// rewrite brought it down from ~75% (sparse vector clocks + hashed shadow
/// maps); the gate keeps it from creeping back up.
constexpr double kMaxCheckerCostPct = 40.0;

int throughput_report() {
  // Best of five: wall-clock noise rejection, standard for host-side timing.
  const int kReps = 5;
  ThroughputResult best;
  for (int i = 0; i < kReps; ++i) {
    ThroughputResult r = run_throughput_workload();
    if (r.events_per_sec > best.events_per_sec) best = r;
  }
  // Checked-mode throughput: the same workload under UD_CHECK, serial and at
  // 4 shards (the sharded path defers checking to a window-boundary replay on
  // shard 0, so its cost profile is distinct from the inline serial path).
  // Same rep count as the unchecked baseline: an asymmetric best-of biases
  // the cost ratio upward on a noisy box (more chances to catch a fast
  // baseline run than a fast checked run).
  ThroughputResult checked, checked4;
  for (int i = 0; i < kReps; ++i) {
    ThroughputResult r = run_throughput_workload(/*check=*/true);
    if (r.events_per_sec > checked.events_per_sec) checked = r;
  }
  for (int i = 0; i < kReps; ++i) {
    ThroughputResult r = run_throughput_workload(/*check=*/true, /*shards=*/4);
    if (r.events_per_sec > checked4.events_per_sec) checked4 = r;
  }

  // Shard sweep: the same workload on 1/2/4/8 host threads. The event engine
  // guarantees bit-identical schedules for any shard count, so the simulated
  // counters must match the serial run exactly — enforced here, every run.
  const std::uint32_t kSweep[] = {1, 2, 4, 8};
  ThroughputResult sweep[4];
  bool sweep_counts_ok = true;
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 3; ++i) {
      ThroughputResult r = run_throughput_workload(/*check=*/false, kSweep[s]);
      if (r.events_per_sec > sweep[s].events_per_sec) sweep[s] = r;
    }
    if (sweep[s].events != best.events || sweep[s].messages != best.messages ||
        sweep[s].dram_accesses != best.dram_accesses ||
        sweep[s].final_tick != best.final_tick) {
      sweep_counts_ok = false;
      std::fprintf(stderr,
                   "micro_sim: FAIL: shards=%u diverged from serial: events %llu vs "
                   "%llu, messages %llu vs %llu, final tick %llu vs %llu\n",
                   kSweep[s], (unsigned long long)sweep[s].events,
                   (unsigned long long)best.events, (unsigned long long)sweep[s].messages,
                   (unsigned long long)best.messages,
                   (unsigned long long)sweep[s].final_tick,
                   (unsigned long long)best.final_tick);
    }
  }
  const double speedup4 = sweep[0].events_per_sec > 0
                              ? sweep[2].events_per_sec / sweep[0].events_per_sec
                              : 0.0;

  // Checked runs must reproduce the unchecked schedule exactly, at any shard
  // count: checking observes, it never perturbs.
  bool checked_counts_ok = true;
  for (const ThroughputResult* c : {&checked, &checked4}) {
    if (c->events != best.events || c->messages != best.messages ||
        c->dram_accesses != best.dram_accesses || c->final_tick != best.final_tick) {
      checked_counts_ok = false;
      std::fprintf(stderr,
                   "micro_sim: FAIL: checked run diverged from unchecked: events %llu "
                   "vs %llu, final tick %llu vs %llu\n",
                   (unsigned long long)c->events, (unsigned long long)best.events,
                   (unsigned long long)c->final_tick,
                   (unsigned long long)best.final_tick);
    }
  }

  const double vs_baseline_pct =
      (kBaselineEventsPerSec - best.events_per_sec) / kBaselineEventsPerSec * 100.0;
  const double checker_cost_pct =
      best.events_per_sec > 0
          ? (best.events_per_sec - checked.events_per_sec) / best.events_per_sec * 100.0
          : 0.0;
  // Cost of checking at 4 shards, against the unchecked 4-shard run (both
  // sides use the same engine configuration, so this isolates the checker).
  const double checker_cost_pct_4shards =
      sweep[2].events_per_sec > 0
          ? (sweep[2].events_per_sec - checked4.events_per_sec) /
                sweep[2].events_per_sec * 100.0
          : 0.0;

  std::printf("\n=== micro_sim host throughput ===\n");
  std::printf("simulated events      %llu\n", (unsigned long long)best.events);
  std::printf("wall seconds (best/%d) %.4f\n", kReps, best.wall_seconds);
  std::printf("events / second       %.0f%s\n", best.events_per_sec,
              best.checker_enabled ? "  (UD_CHECK forced on: not a baseline)" : "");
  std::printf("events / second (UD_CHECK=1) %.0f  (checker cost %.1f%%)\n",
              checked.events_per_sec, checker_cost_pct);
  std::printf("events / second (UD_CHECK=1, 4 shards) %.0f  (checker cost %.1f%%)\n",
              checked4.events_per_sec, checker_cost_pct_4shards);
  std::printf("shadow peak bytes     %llu\n",
              (unsigned long long)checked.shadow_peak_bytes);
  std::printf("vs PR-1 baseline      %+.2f%% (baseline %.0f ev/s, limit %.1f%%)\n",
              -vs_baseline_pct, kBaselineEventsPerSec, kMaxCheckerOffRegressPct);
  std::printf("final simulated tick  %llu\n", (unsigned long long)best.final_tick);
  std::printf("max queue depth       %llu\n", (unsigned long long)best.max_queue_depth);
  std::printf("far-heap events       %llu\n", (unsigned long long)best.engine.far_events);
  std::printf("shard sweep (UD_SHARDS) ");
  for (int s = 0; s < 4; ++s)
    std::printf("%u:%.0f%s", kSweep[s], sweep[s].events_per_sec, s < 3 ? "  " : "\n");
  std::printf("speedup at 4 shards   %.2fx (windows %llu, mailbox events %llu)\n",
              speedup4, (unsigned long long)sweep[2].engine.windows,
              (unsigned long long)sweep[2].engine.mailbox_messages);

  {
    // Rates are whole events per second.
    auto per_sec = [](double r) { return static_cast<std::uint64_t>(std::llround(r)); };
    bench::Json j("BENCH_micro_sim.json");
    if (!j.ok()) {
      std::fprintf(stderr, "micro_sim: cannot write BENCH_micro_sim.json\n");
      return 1;
    }
    j.str("benchmark", "micro_sim");
    j.str("workload",
          "64 message chains x 14000 hops + 32 dram chains x 2000 round trips, 8-node machine");
    j.u64("repetitions", kReps);
    j.u64("events", best.events);
    j.u64("messages", best.messages);
    j.u64("dram_accesses", best.dram_accesses);
    j.u64("final_tick", best.final_tick);
    j.num("wall_seconds", best.wall_seconds);
    j.u64("events_per_sec", per_sec(best.events_per_sec));
    j.u64("events_per_sec_checked", per_sec(checked.events_per_sec));
    j.num("checker_cost_pct", checker_cost_pct);
    j.u64("events_per_sec_checked_4shards", per_sec(checked4.events_per_sec));
    j.num("checker_cost_pct_4shards", checker_cost_pct_4shards);
    j.u64("shadow_peak_bytes", checked.shadow_peak_bytes);
    j.u64("baseline_events_per_sec", per_sec(kBaselineEventsPerSec));
    j.num("vs_baseline_regress_pct", vs_baseline_pct);
    j.u64("max_queue_depth", best.max_queue_depth);
    j.begin_object("engine");
    j.u64("far_events", best.engine.far_events);
    j.u64("bucket_sorts", best.engine.bucket_sorts);
    j.u64("msg_pool_capacity", best.engine.msg_pool_capacity);
    j.u64("dram_pool_capacity", best.engine.dram_pool_capacity);
    j.end();
    j.begin_array("shard_sweep");
    for (int s = 0; s < 4; ++s) {
      j.begin_object();
      j.u64("shards", kSweep[s]);
      j.u64("events_per_sec", per_sec(sweep[s].events_per_sec));
      j.u64("windows", sweep[s].engine.windows);
      j.u64("mailbox_events", sweep[s].engine.mailbox_messages);
      j.end();
    }
    j.end();
    j.num("speedup_4_shards", speedup4);
    j.boolean("shard_counts_identical", sweep_counts_ok);
    j.boolean("checked_counts_identical", checked_counts_ok);
  }

  if (!sweep_counts_ok) return 1;    // sharded schedule diverged: always fatal
  if (!checked_counts_ok) return 1;  // checking perturbed the run: always fatal
  // The throughput floors only bind trace-off runs: UD_TRACE adds real
  // per-event bookkeeping by design, so a traced run is never a baseline.
  // (CI's udtrace smoke job runs with UD_TRACE set and must not trip them.)
  const char* trace_env = std::getenv("UD_TRACE");
  const bool tracing = trace_env && *trace_env;
  // Two enforcement tiers: "ratios" binds only box-independent checks (the
  // checker-cost ceiling and the shard-speedup floor), "1" binds the
  // absolute events/s floor too. The absolute floor compares against the
  // reference box and trips on any slower machine, so CI runners use
  // UD_BENCH_ENFORCE=ratios.
  const bench::Enforce enforce = bench::enforce_mode();
  const bool enforce_ratios = enforce != bench::Enforce::kOff;
  const bool enforce_absolute = enforce == bench::Enforce::kAll;
  if (tracing && enforce_ratios)
    std::printf("UD_TRACE is set: skipping UD_BENCH_ENFORCE throughput floors "
                "(trace-on runs are not baselines)\n");
  if (!tracing && enforce_absolute && !best.checker_enabled &&
      vs_baseline_pct > kMaxCheckerOffRegressPct) {
    std::fprintf(stderr,
                 "micro_sim: FAIL: checker-off throughput %.0f ev/s is %.2f%% below "
                 "the PR-1 baseline %.0f (limit %.1f%%)\n",
                 best.events_per_sec, vs_baseline_pct, kBaselineEventsPerSec,
                 kMaxCheckerOffRegressPct);
    return 1;
  }
  if (!tracing && enforce_ratios && !best.checker_enabled &&
      std::thread::hardware_concurrency() >= 4 && speedup4 < 1.5) {
    std::fprintf(stderr,
                 "micro_sim: FAIL: 4-shard speedup %.2fx is below the 1.5x floor\n",
                 speedup4);
    return 1;
  }
  if (!tracing && enforce_ratios && !best.checker_enabled &&
      checker_cost_pct > kMaxCheckerCostPct) {
    std::fprintf(stderr,
                 "micro_sim: FAIL: checker cost %.1f%% exceeds the %.0f%% ceiling "
                 "(%.0f ev/s unchecked vs %.0f ev/s checked)\n",
                 checker_cost_pct, kMaxCheckerCostPct, best.events_per_sec,
                 checked.events_per_sec);
    return 1;
  }
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return throughput_report();
}
