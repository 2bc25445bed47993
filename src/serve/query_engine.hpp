// Multi-tenant query kernels for job serving (ROADMAP item 2).
//
// The existing apps (src/apps/) are single-tenant by construction: each owns
// Machine::user<App>() and drives the machine to global drain. The serve
// layer re-expresses the same workloads as *queries* — self-contained KVMSR
// job bundles with per-query device arrays, a per-query device-side driver
// thread, and a host-visible completion flag — so any number of them can be
// resident at once, each on its own lane partition (or interleaved over the
// whole machine) with its own value placement (the paper's fig12
// `nr_nodes`-style knob).
//
// Per-query quiescence: a query is done when its driver thread sets
// Query::finished — the predicate handed to Machine::run_until. Nothing here
// waits for global drain; the host scheduler (serve/scheduler.hpp) resumes
// the engine while other queries stay in flight.
//
// Query kinds:
//   kPageRank  — push PageRank, `iterations` synchronous sweeps: the pagerank
//                app's kernel (apps/pagerank.hpp) bound to the query's graph,
//                rank/accumulator arrays and damping (propagate job with f64
//                combining + apply job per sweep, chained by the driver).
//   kBfs       — BFS as monotone frontier repair: one KVMSR job launch per
//                round over the whole key range; the frontier (lane-local
//                scratchpad state modeled host-side) holds each member's
//                level, and a reduce lowers a vertex's level only if the
//                tuple improves it. Without `resident` it is a
//                level-synchronous BFS from `root` into query-owned levels.
//                With `resident` it refreshes the streaming session's levels
//                in place: Seeds::kAll recomputes from `root`, Seeds::kPending
//                repairs from the delta-touched sources.
//   kPathCount — 2-hop path count (#{(a,b,c): a->b->c}), the PartialMatch
//                stand-in: a two-edge pattern-matching query in one
//                map+reduce pass (cf. apps/partial_match).
//   kTriangles — triangle count: the tc app's kernel (apps/tc.hpp) bound to
//                the query's graph and count cells.
//   kIncPageRank — incremental PageRank refresh over a streaming ResidentState
//                (src/stream/): re-ranks only the delta-affected frontier, one
//                pull sweep per round against the resident rank history, each
//                round's affected set expanded host-side by the driver. Writes
//                land in the SAME rank_hist arrays a from-scratch pull sweep
//                would produce, so results are bit-equal to full recomputation.
//
// Results are value-deterministic for a fixed machine + shard count; queries
// whose lane partition, graph copy, and value arrays are confined to a
// disjoint node partition are bit-identical to running alone (asserted in
// tests/serve/).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/pagerank.hpp"
#include "apps/tc.hpp"
#include "graph/layout.hpp"
#include "kvmsr/combining_cache.hpp"
#include "kvmsr/kvmsr.hpp"
#include "sim/machine.hpp"

namespace updown::serve {

using QueryId = std::uint32_t;

enum class QueryKind : std::uint8_t {
  kPageRank,
  kBfs,
  kPathCount,
  kTriangles,
  kIncPageRank,
};

const char* kind_name(QueryKind k);

/// Device + host state an incremental query refreshes in place, owned by the
/// streaming session (stream::StreamEngine) and outliving any single query.
/// The serve layer takes it by pointer so serve/ does not depend on stream/.
struct ResidentState {
  const DeviceGraph* fwd = nullptr;  ///< post-epoch forward upload
  const DeviceGraph* rev = nullptr;  ///< post-epoch reverse upload
  const Graph* csr = nullptr;        ///< host mirror of fwd (affected-set expansion)
  /// PageRank rank history: rank_hist[k] = device f64 array of ranks after
  /// sweep k. Sweep k of a refresh reads rank_hist[k-1] (k==0 reads the
  /// uniform 1/n inline), so a partial re-rank reproduces the from-scratch
  /// Jacobi values bit-for-bit.
  std::vector<Addr> rank_hist;
  Addr dist_base = 0;      ///< BFS level array (device)
  std::vector<Word> dist;  ///< host mirror of dist_base, updated per round
  /// Dirty sets accumulated at compaction, consumed by the next refresh query
  /// with Seeds::kPending: pr_dirty = vertices whose in-edges or in-neighbor
  /// outdegrees changed; bfs_dirty = finite-dist sources with new out-edges.
  std::vector<VertexId> pr_dirty;
  std::vector<VertexId> bfs_dirty;
};

struct QuerySpec {
  QueryKind kind = QueryKind::kPageRank;
  /// Device graph the query reads (resident shared copy, or a per-query
  /// partition-local copy when bit-exact isolation is required). Must be an
  /// unsplit upload (num_vertices == num_original).
  const DeviceGraph* graph = nullptr;
  /// Lane partition the query's KVMSR jobs, driver, and reducers run on.
  /// count 0 = interleaved over the whole machine.
  kvmsr::LaneSet lanes;
  /// Placement of the query's own value arrays (rank/dist/count cells) —
  /// the fig12 placement knob. nr_nodes 0 = spread over the whole machine.
  GraphPlacement values;
  std::uint32_t iterations = 2;  ///< PageRank sweeps (0 = no-op query)
  double damping = 0.85;         ///< PageRank damping factor
  VertexId root = 0;             ///< BFS root
  std::uint32_t coalesce_tuples = 1;  ///< forwarded to the shuffle jobs
  /// kIncPageRank / kBfs only: the streaming session state the query
  /// refreshes. When set and `graph` is null, the engine fills graph from it
  /// (rev for kIncPageRank, fwd for kBfs). `iterations` must equal
  /// rank_hist.size() for kIncPageRank.
  ResidentState* resident = nullptr;
  /// Incremental seed policy. kPending consumes (moves and clears) the
  /// resident dirty set at add_query — so register the refresh query AFTER
  /// the epoch's compaction has run. kAll seeds every vertex (kIncPageRank)
  /// or just `root` with dist reset (kBfs) — the warm-up / full-recompute
  /// mode.
  enum class Seeds : std::uint8_t { kPending, kAll };
  Seeds seeds = Seeds::kPending;
  /// Query name; keep unique per query — it prefixes the KVMSR job names, so
  /// udtrace phase spans and diagnostics attribute work to this query.
  std::string name = "query";
};

struct QueryResult {
  Tick launch_tick = 0;
  Tick done_tick = 0;
  std::uint64_t rounds = 0;   ///< PR sweeps run / BFS rounds / 1
  std::uint64_t emitted = 0;  ///< shuffle tuples over all rounds
  std::uint64_t count = 0;    ///< kPathCount paths / kTriangles triangles
  bool cancelled = false;     ///< drained early via cancel()
  std::vector<double> rank;   ///< kPageRank
  std::vector<Word> dist;     ///< kBfs levels (kInfDist = unreachable)

  Tick duration() const { return done_tick - launch_tick; }
};

class QueryEngine {
 public:
  /// Register the engine (and its KVMSR/CombiningCache dependencies) on `m`.
  /// Call once, before Machine::run.
  static QueryEngine& install(Machine& m);

  explicit QueryEngine(Machine& m);

  /// Register a query: allocates its device arrays (per QuerySpec::values)
  /// and its KVMSR jobs. Does not launch.
  QueryId add_query(QuerySpec spec);

  /// Inject the query's driver start from the host, departing at simulated
  /// tick max(at, now). Host-side only (engine paused).
  void launch(QueryId q, Tick at = 0);

  bool launched(QueryId q) const { return queries_.at(q)->launched; }
  /// Host-visible completion flag — the run_until predicate for this query.
  bool done(QueryId q) const { return queries_.at(q)->finished; }

  /// Drain-to-cancel: the query stops starting new rounds, its in-flight
  /// KVMSR launch forfeits unissued map tasks (Library::request_cancel), and
  /// the driver finishes through the normal termination path — no leaked
  /// threads, udcheck-clean. Host-side only.
  void cancel(QueryId q);

  /// Read back results; valid once done(q). kIncPageRank and resident kBfs
  /// results are read from the LIVE resident arrays the query refreshed — collect
  /// them before a later epoch's refresh overwrites that state.
  QueryResult collect(QueryId q) const;

  /// Completion tick / cancellation flag without the array copies of
  /// collect(); valid once done(q).
  Tick done_tick(QueryId q) const { return queries_.at(q)->done_tick; }
  bool was_cancelled(QueryId q) const { return queries_.at(q)->cancel; }

  const QuerySpec& spec(QueryId q) const { return queries_.at(q)->spec; }
  /// Resolved lane partition of the query.
  kvmsr::LaneSet lanes(QueryId q) const;
  std::size_t num_queries() const { return queries_.size(); }

  /// Name of the LAUNCHED-and-unfinished query whose lane partition contains
  /// `lane`, or "" — the checker's leak-attribution annotator. Partition
  /// queries only (interleaved queries own no lane exclusively).
  std::string owner_of_lane(NetworkId lane) const;

  Machine& machine() { return m_; }
  kvmsr::Library& kvmsr_lib() { return *lib_; }

  // ---- Host-timer support for the scheduler ---------------------------------
  /// A `tick_label` event carrying {tick} publishes that tick to tick_seen()
  /// and terminates. The scheduler injects one per host-attention time
  /// (arrival, timed cancel) so a run_until predicate can stop the engine at
  /// a simulated time without peeking at mid-run engine state.
  EventLabel tick_label() const { return tick_; }
  Tick tick_seen() const {
    return static_cast<Tick>(tick_seen_.load(std::memory_order_acquire));
  }

 private:
  friend struct SqTick;
  friend struct SqDriver;
  friend struct SqPrSite;
  friend struct SqPcMap;
  friend struct SqPcReduce;
  friend struct SqTcSite;
  friend struct SqIprMap;
  friend struct SqIbfsMap;
  friend struct SqIbfsReduce;

  struct Query {
    QuerySpec spec;
    QueryId id = 0;
    kvmsr::JobId job = 0;        ///< propagate / round / single-pass job
    kvmsr::JobId apply_job = 0;  ///< kPageRank only
    kvmsr::LaneSet rlanes;       ///< spec.lanes with count 0 resolved
    // Per-query device arrays.
    Addr rank_base = 0;   ///< PR ranks (f64 per vertex)
    Addr acc_base = 0;    ///< PR accumulators (f64 per vertex)
    Addr dist_base = 0;   ///< BFS levels (resident or query-owned)
    Addr cells_base = 0;  ///< PC/TC per-partition-lane count cells
    // BFS level mirror read by the reduce's improve test (the scratchpad
    // copy on each vertex's hash-owner lane, modeled host-side): the
    // resident mirror, or own_dist for a query-owned dist_base.
    std::vector<Word>* dist = nullptr;
    std::vector<Word> own_dist;
    // BFS lane-local frontier state, modeled host-side like apps/bfs:
    // frontier[b][v] is v's level while v is in that frontier, else
    // kInfDist. cur is read by map tasks, nxt written by reduce tasks,
    // swapped by the driver between rounds (ordered by the round's message
    // chain).
    std::vector<Word> frontier[2];
    unsigned cur_buf = 0;
    std::atomic<std::uint64_t> added{0};  ///< BFS level improvements this round
    // kIncPageRank affected flags, and the same set as a compact ascending
    // list. The sweep job launches keys [0, alist.size()) and maps key ->
    // alist[key], so a sweep's KVMSR cost scales with the affected set, not
    // num_vertices.
    std::vector<char> visited;
    std::vector<VertexId> alist;
    std::uint64_t seeded = 0;  ///< kBfs / kIncPageRank: initial frontier size
    // Driver-owned progress (host-visible once published at a pause point).
    std::uint64_t round = 0;
    std::uint64_t emitted = 0;
    Tick launch_tick = 0;
    Tick done_tick = 0;
    bool launched = false;
    bool finished = false;
    bool cancel = false;  ///< host set; driver checks at round boundaries

    Addr lane_cell(NetworkId lane) const {
      return cells_base + static_cast<Addr>(lane - rlanes.first) * 8;
    }
  };

  Query& query_of_job(kvmsr::JobId j) { return *queries_.at(job2query_.at(j)); }
  Addr place(const QuerySpec& spec, std::uint64_t bytes);

  Machine& m_;
  kvmsr::Library* lib_ = nullptr;
  kvmsr::CombiningCache* cc_ = nullptr;
  std::vector<std::unique_ptr<Query>> queries_;
  std::unordered_map<kvmsr::JobId, QueryId> job2query_;

  // Event labels (registered once; per-query state rides in job ids).
  EventLabel d_start_ = 0;
  EventLabel tick_ = 0;
  std::atomic<std::uint64_t> tick_seen_{0};  ///< max fired tick time
  struct Labels {
    EventLabel d_pr_prop_done = 0;
    EventLabel d_pr_apply_done = 0;
    EventLabel d_pass_done = 0;  ///< kPathCount / kTriangles single pass
    pr::KernelLabels pr;
    EventLabel pc_map = 0;
    EventLabel pc_reduce = 0;
    EventLabel pc_rec = 0;
    EventLabel pc_nbrs = 0;
    EventLabel pc_deg = 0;
    tc::KernelLabels tc;
    EventLabel d_ipr_round_done = 0;
    EventLabel d_ibfs_round_done = 0;
    EventLabel ipr_map = 0;
    EventLabel ipr_rrec = 0;
    EventLabel ipr_ids = 0;
    EventLabel ipr_deg = 0;
    EventLabel ipr_rank = 0;
    EventLabel ipr_written = 0;
    EventLabel ibfs_map = 0;
    EventLabel ibfs_reduce = 0;
    EventLabel ibfs_rec = 0;
    EventLabel ibfs_nbrs = 0;
    EventLabel ibfs_written = 0;
  } lb_;
};

// ---- CPU oracles (host-side, for tests/benches) -----------------------------

/// #{(a,b,c) : a->b and b->c} = sum_a sum_{b in N(a)} outdeg(b) — the
/// kPathCount ground truth.
std::uint64_t cpu_path_count(const Graph& g);

}  // namespace updown::serve
