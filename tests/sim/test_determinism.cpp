// The simulator is deterministic: identical inputs produce identical event
// orders, final ticks, and statistics — the property that makes the paper's
// simulated timing results reproducible at all.
//
// With the host-parallel engine this hardens into a stronger claim, asserted
// by the matrix below: the (tick, sending entity, sender seq) total order
// makes every fingerprint bit-identical for ANY shard count, with and
// without the udcheck subsystem (which, when sharded, defers its analysis to
// a deterministic window-boundary replay on shard 0), including the
// drain/quiescence path each KVMSR round crosses.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/tc.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"

namespace updown {
namespace {

/// Pin an environment variable for the scope of a test (and restore it
/// after), so the shard matrix is immune to an ambient UD_SHARDS / UD_CHECK —
/// CI runs the whole suite under UD_SHARDS=4.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (old) old_ = old;
    if (value) ::setenv(name, value, 1);
    else ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_) ::setenv(name_.c_str(), old_.c_str(), 1);
    else ::unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_ = false;
};

struct RunFingerprint {
  Tick done = 0;
  std::uint64_t events = 0, messages = 0, message_bytes = 0, cross_node = 0;
  std::uint64_t dram_reads = 0, dram_writes = 0, dram_bytes = 0, remote_dram = 0;
  std::uint64_t threads_created = 0, threads_destroyed = 0, charged = 0;
  std::uint64_t result = 0;  ///< an application-level answer (ranks, triangles...)
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint fingerprint(Machine& m, Tick done, std::uint64_t result) {
  // Deliberately excludes the engine gauges (max_queue_depth,
  // max_live_threads): those describe per-shard queues, not the simulation.
  EXPECT_TRUE(m.idle());  // quiescent drain: nothing left in queues/mailboxes
  const MachineStats& s = m.stats();
  return {done,
          s.events_executed,
          s.messages_sent,
          s.message_bytes,
          s.cross_node_messages,
          s.dram_reads,
          s.dram_writes,
          s.dram_bytes,
          s.remote_dram_accesses,
          s.threads_created,
          s.threads_destroyed,
          s.charged_cycles,
          result};
}

RunFingerprint run_pr(std::uint32_t nodes, std::uint32_t shards = 1, bool check = false,
                      std::uint32_t coalesce = 1) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  EnvGuard g3("UD_COALESCE", std::to_string(coalesce).c_str());
  Machine m(MachineConfig::scaled(nodes));
  Graph g = rmat(9, {}, 77);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Result r = pr::App::install(m, dg, sg, {.iterations = 2}).run();
  if (shards > 1) {
    // Checked runs no longer force shards=1: the engine really runs sharded
    // (windows advance) and udcheck replays at window boundaries on shard 0.
    EXPECT_GT(m.engine_stats().windows, 0u);
  }
  if (check) {
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }
  return fingerprint(m, r.done_tick, r.edge_updates);
}

RunFingerprint run_bfs(std::uint32_t nodes, std::uint32_t shards = 1, bool check = false,
                       std::uint32_t coalesce = 1) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  EnvGuard g3("UD_COALESCE", std::to_string(coalesce).c_str());
  Machine m(MachineConfig::scaled(nodes));
  Graph g = rmat(9, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  bfs::Result r = bfs::App::install(m, dg, {.root = 1}).run();
  // Each BFS round is one KVMSR invocation: rounds cross the drain path, so
  // a multi-round run exercises quiescence detection under sharding.
  EXPECT_GE(r.rounds, 2u);
  if (check) {
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }
  return fingerprint(m, r.done_tick, r.traversed_edges);
}

RunFingerprint run_tc(std::uint32_t shards = 1, std::uint32_t coalesce = 1) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", "0");
  EnvGuard g3("UD_COALESCE", std::to_string(coalesce).c_str());
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(8, {.symmetrize = true}, 5);
  DeviceGraph dg = upload_graph(m, g);
  tc::Result r = tc::App::install(m, dg, {}).run();
  return fingerprint(m, r.done_tick, r.triangles);
}

TEST(Determinism, PageRankRunsAreBitIdentical) {
  const RunFingerprint a = run_pr(4), b = run_pr(4);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
}

TEST(Determinism, DifferentMachinesDiffer) {
  EXPECT_NE(run_pr(1).done, run_pr(4).done);
}

TEST(Determinism, TriangleCountRunsAreBitIdentical) {
  EXPECT_EQ(run_tc(), run_tc());
}

// ---------------------------------------------------------------------------
// The shard matrix: every fingerprint bit-identical across shards 1/2/4/8,
// with and without UD_CHECK=1. An 8-node machine so all four shard counts
// are distinct partitions (shards are clamped to the node count).
// ---------------------------------------------------------------------------

TEST(DeterminismMatrix, PageRankIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_pr(8, 1);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_pr(8, shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, PageRankIdenticalUnderCheck) {
  const RunFingerprint serial = run_pr(8, 1);
  // At shards=1 the checker runs inline with the serial engine; at any
  // higher count its hooks only append to per-shard logs and the analysis
  // replays deterministically on shard 0 at window boundaries. Either way a
  // checked run must match the serial fingerprint exactly — checking never
  // perturbs the simulation — and run_pr also asserts the check came back
  // clean at every shard count.
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_pr(8, shards, /*check=*/true), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, BfsIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_bfs(8, 1);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_bfs(8, shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, BfsIdenticalUnderCheck) {
  const RunFingerprint serial = run_bfs(8, 1);
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_bfs(8, shards, /*check=*/true), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, TriangleCountIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_tc(1);
  EXPECT_EQ(run_tc(2), serial);  // 2-node machine: 2 is the max useful count
}

// ---------------------------------------------------------------------------
// The same matrix with shuffle coalescing on (UD_COALESCE=16): packing,
// map-side combining, bulk routing across shard mailboxes, and the poll-time
// flush must all be bit-identical for every shard count — and must survive
// the checker, whose inline-delivery origin stack is exercised only here.
// ---------------------------------------------------------------------------

TEST(DeterminismMatrix, CoalescedPageRankIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_pr(8, 1, false, 16);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_pr(8, shards, false, 16), serial) << "shards=" << shards;
  // Sanity: coalescing actually changed the simulation (fewer messages).
  EXPECT_LT(serial.messages, run_pr(8, 1, false, 1).messages);
}

TEST(DeterminismMatrix, CoalescedPageRankIdenticalUnderCheck) {
  const RunFingerprint serial = run_pr(8, 1, false, 16);
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_pr(8, shards, /*check=*/true, 16), serial)
        << "shards=" << shards;
}

TEST(DeterminismMatrix, CoalescedBfsIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_bfs(8, 1, false, 16);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_bfs(8, shards, false, 16), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, CoalescedTriangleCountIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_tc(1, 16);
  EXPECT_EQ(run_tc(2, 16), serial);
}

// ---------------------------------------------------------------------------
// Concurrent serve-layer jobs: two tenants (a partitioned PageRank and a
// partitioned BFS) resident at once, launched together and driven to global
// drain. The whole-machine fingerprint AND the per-job quantities folded into
// `result` (each tenant's completion tick, shuffle volume, and BFS rounds)
// must be bit-identical across shard counts, with and without UD_CHECK —
// multi-tenancy adds no nondeterminism.
// ---------------------------------------------------------------------------

RunFingerprint run_concurrent(std::uint32_t shards, bool check = false) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  EnvGuard g3("UD_COALESCE", "1");
  Machine m(MachineConfig::scaled(4));
  auto& eng = serve::QueryEngine::install(m);
  const auto lanes_per_node =
      static_cast<std::uint32_t>(m.config().total_lanes() / m.config().nodes);

  Graph ga = rmat(8, {}, 41);
  const GraphPlacement pa{0, 2, 32 * 1024};
  DeviceGraph dga = upload_graph(m, ga, pa);
  serve::QuerySpec sa;
  sa.kind = serve::QueryKind::kPageRank;
  sa.graph = &dga;
  sa.lanes = {0, 2 * lanes_per_node};
  sa.values = pa;
  sa.iterations = 2;
  sa.name = "det.pr";

  Graph gb = rmat(8, {.symmetrize = true}, 42);
  const GraphPlacement pb{2, 2, 32 * 1024};
  DeviceGraph dgb = upload_graph(m, gb, pb);
  serve::QuerySpec sb;
  sb.kind = serve::QueryKind::kBfs;
  sb.graph = &dgb;
  sb.lanes = {2 * lanes_per_node, 2 * lanes_per_node};
  sb.values = pb;
  sb.root = 1;
  sb.name = "det.bfs";

  const serve::QueryId qa = eng.add_query(sa);
  const serve::QueryId qb = eng.add_query(sb);
  eng.launch(qa);
  eng.launch(qb);
  m.run();
  EXPECT_TRUE(eng.done(qa) && eng.done(qb));
  if (check) {
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }
  const serve::QueryResult ra = eng.collect(qa);
  const serve::QueryResult rb = eng.collect(qb);
  // Fold the per-job stats into the fingerprint so a run that redistributes
  // work between tenants (same totals, different split) still fails.
  std::uint64_t per_job = ra.done_tick;
  per_job = per_job * 1000003 + ra.emitted;
  per_job = per_job * 1000003 + rb.done_tick;
  per_job = per_job * 1000003 + rb.emitted;
  per_job = per_job * 1000003 + rb.rounds;
  return fingerprint(m, std::max(ra.done_tick, rb.done_tick), per_job);
}

TEST(DeterminismMatrix, ConcurrentJobsIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_concurrent(1);
  EXPECT_GT(serial.events, 0u);
  for (std::uint32_t shards : {2u, 4u})
    EXPECT_EQ(run_concurrent(shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, ConcurrentJobsIdenticalUnderCheck) {
  const RunFingerprint serial = run_concurrent(1);
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_concurrent(shards, /*check=*/true), serial) << "shards=" << shards;
}

// ---------------------------------------------------------------------------
// Golden fingerprints. The host-parallel engine re-keyed the event order to
// (tick, sending entity, sender seq) — sender-local, no global counter — and
// split the bisection token bucket per source node (a per-node share of
// bisection bandwidth, required for lock-free sharded routing). Both change
// tie-breaks and cross-node queuing, so these goldens were regenerated from
// the serial engine at that point; the sharded engine must reproduce them
// exactly for every shard count (see the matrix above). Update only with a
// side-by-side run against the previous engine showing both produce the new
// numbers.
// ---------------------------------------------------------------------------

TEST(Determinism, PageRankGoldenCounts) {
  EnvGuard g1("UD_SHARDS", nullptr);
  EnvGuard g2("UD_CHECK", "0");
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(9, {}, 77);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Result r = pr::App::install(m, dg, sg, {.iterations = 2}).run();
  const MachineStats& s = m.stats();
  EXPECT_EQ(r.done_tick, 37626u);
  EXPECT_EQ(s.events_executed, 27893u);
  EXPECT_EQ(s.messages_sent, 27893u);
  EXPECT_EQ(s.dram_reads, 7012u);
  EXPECT_EQ(s.dram_writes, 3010u);
  EXPECT_EQ(s.threads_created, 14657u);
  EXPECT_EQ(s.charged_cycles, 187382u);
  EXPECT_EQ(s.message_bytes, 991968u);
}

TEST(Determinism, BfsGoldenCounts) {
  EnvGuard g1("UD_SHARDS", nullptr);
  EnvGuard g2("UD_CHECK", "0");
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(9, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  bfs::Result r = bfs::App::install(m, dg, {.root = 1}).run();
  const MachineStats& s = m.stats();
  // done_tick moved 30025 -> 30026 when the network token buckets switched
  // from double accumulators to 1/256-cycle integer fixed-point: the final
  // ceil() now rounds one fractional bucket boundary up instead of landing
  // exactly on it. Every count below is unchanged — only arrival rounding
  // moved, by at most one cycle.
  EXPECT_EQ(r.done_tick, 30026u);
  EXPECT_EQ(s.events_executed, 16153u);
  EXPECT_EQ(s.messages_sent, 16153u);
  EXPECT_EQ(s.dram_reads, 2098u);
  EXPECT_EQ(s.dram_writes, 918u);
  EXPECT_EQ(s.threads_created, 11325u);
  EXPECT_EQ(s.charged_cycles, 122984u);
  EXPECT_EQ(r.rounds, 4u);
  EXPECT_EQ(r.traversed_edges, 9514u);
}

// The triangle-count app and the serve-layer BFS / PageRank / triangle
// queries share kernels with other callers; these goldens pin their ticks and counts so a
// refactor of the shared code cannot move them unnoticed.
TEST(Determinism, TriangleCountGoldenCounts) {
  EXPECT_EQ(run_tc(), (RunFingerprint{.done = 13995,
                                      .events = 36621,
                                      .messages = 36621,
                                      .message_bytes = 2643664,
                                      .cross_node = 17557,
                                      .dram_reads = 33356,
                                      .dram_writes = 64,
                                      .dram_bytes = 1995728,
                                      .remote_dram = 16238,
                                      .threads_created = 2688,
                                      .threads_destroyed = 2688,
                                      .charged = 439030,
                                      .result = 11096}));
}

/// A solo whole-machine serve query on the BfsGoldenCounts graph (root 1),
/// driven to global drain. The fingerprint's result is the query's shuffle
/// volume.
RunFingerprint run_serve_solo(serve::QueryKind kind, serve::QueryResult& r) {
  EnvGuard g1("UD_SHARDS", nullptr);
  EnvGuard g2("UD_CHECK", "0");
  EnvGuard g3("UD_COALESCE", "1");
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(9, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  auto& eng = serve::QueryEngine::install(m);
  serve::QuerySpec s;
  s.kind = kind;
  s.graph = &dg;
  s.root = 1;
  s.name = "golden";
  const serve::QueryId q = eng.add_query(s);
  eng.launch(q);
  m.run();
  EXPECT_TRUE(eng.done(q));
  r = eng.collect(q);
  return fingerprint(m, r.done_tick, r.emitted);
}

TEST(Determinism, ServeBfsGoldenCounts) {
  serve::QueryResult r;
  const RunFingerprint f = run_serve_solo(serve::QueryKind::kBfs, r);
  EXPECT_EQ(r.rounds, 4u);
  EXPECT_EQ(r.emitted, 9514u);
  EXPECT_EQ(f, (RunFingerprint{.done = 28321,
                               .events = 18544,
                               .messages = 18544,
                               .message_bytes = 703176,
                               .cross_node = 9934,
                               .dram_reads = 1888,
                               .dram_writes = 459,
                               .dram_bytes = 109224,
                               .remote_dram = 1131,
                               .threads_created = 12863,
                               .threads_destroyed = 12863,
                               .charged = 122336,
                               .result = 9514}));
}

TEST(Determinism, ServePageRankGoldenCounts) {
  serve::QueryResult r;
  const RunFingerprint f = run_serve_solo(serve::QueryKind::kPageRank, r);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.emitted, 19028u);
  EXPECT_EQ(f, (RunFingerprint{.done = 41020,
                               .events = 34909,
                               .messages = 34909,
                               .message_bytes = 1318232,
                               .cross_node = 21700,
                               .dram_reads = 6744,
                               .dram_writes = 2968,
                               .dram_bytes = 264416,
                               .remote_dram = 6026,
                               .threads_created = 22121,
                               .threads_destroyed = 22121,
                               .charged = 257718,
                               .result = 19028}));
}

TEST(Determinism, ServeTrianglesGoldenCounts) {
  serve::QueryResult r;
  const RunFingerprint f = run_serve_solo(serve::QueryKind::kTriangles, r);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.emitted, 4757u);
  EXPECT_EQ(r.count, 29148u);
  EXPECT_EQ(f, (RunFingerprint{.done = 24488,
                               .events = 104330,
                               .messages = 104330,
                               .message_bytes = 7744800,
                               .cross_node = 76486,
                               .dram_reads = 97132,
                               .dram_writes = 128,
                               .dram_bytes = 5938592,
                               .remote_dram = 72060,
                               .threads_created = 5915,
                               .threads_destroyed = 5915,
                               .charged = 1308537,
                               .result = 4757}));
}

}  // namespace
}  // namespace updown
