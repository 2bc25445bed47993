// udbench: runs one workload of the end-to-end benchmark and writes its raw
// measurements as JSON. run.py builds this binary, runs it once per
// workload, and turns the samples into the reported metrics (README.md).
//
//   udbench --workload <name> --seed <n> --seconds <s> --out <file>
//           [--trace] [--tiny] [--shards <k>]
//
// Each layer is measured from outside: udbench times its calls into the
// public functions of src/ modules and reads their public counters at those
// boundaries. Every host time is steady_clock seconds on this machine; every
// simulated time is in 2 GHz ticks.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "baseline/baseline.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/split.hpp"
#include "serve/scheduler.hpp"
#include "stream/stream.hpp"

extern char** environ;

namespace updown {
namespace {

using Clock = std::chrono::steady_clock;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- JSON output ------------------------------------------------------------
// Keys and strings are literals or generated names without quotes or
// backslashes, so no escaping is needed. Doubles keep all 17 digits.
class Out {
 public:
  void key(const std::string& k) {
    sep();
    s_ += '"' + k + "\":";
    fresh_ = true;
  }
  void num(double v) {
    sep();
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s_ += buf;
  }
  void str(const std::string& v) {
    sep();
    s_ += '"' + v + '"';
  }
  void boolean(bool v) {
    sep();
    s_ += v ? "true" : "false";
  }
  void open(char c) {
    sep();
    s_ += c;
    fresh_ = true;
  }
  void close(char c) {
    s_ += c;
    fresh_ = false;
  }
  void field(const std::string& k, double v) { key(k), num(v); }
  /// `k` bound to an object whose fields another Out already wrote.
  void object(const std::string& k, const std::string& fields) {
    key(k);
    sep();
    s_ += '{' + fields + '}';
  }
  void field(const std::string& k, const std::string& v) { key(k), str(v); }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

// ---- Spans --------------------------------------------------------------------
// Recorded by udbench only, around its calls into each layer, and kept
// in memory until the output is written. Host spans are in seconds since the
// recorder started; simulated spans (queue wait, execution, KVMSR map and
// tail) are in ticks and hang off the host span that ran them.
struct Span {
  std::string layer, name;
  double start = 0, end = 0;
  int parent = -1;
  std::uint64_t req = 0;
  bool simulated = false;
};

class Spans {
 public:
  bool on = false;

  /// Run `f` as a span of `layer` and return its host seconds.
  double time(const char* layer, const char* name, std::uint64_t req,
              const std::function<void()>& f) {
    const int id = on ? open(layer, name, req) : -1;
    const auto a = Clock::now();
    f();
    const auto b = Clock::now();
    if (id >= 0) close(id, b);
    return std::chrono::duration<double>(b - a).count();
  }
  int open(const char* layer, const char* name, std::uint64_t req) {
    Span s{layer, name, secs(Clock::now()), 0, stack_.empty() ? -1 : stack_.back(), req, false};
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id, Clock::time_point at) {
    spans_[id].end = secs(at);
    stack_.pop_back();
  }
  int last() const { return static_cast<int>(spans_.size()) - 1; }
  void sim(const char* layer, const std::string& name, Tick a, Tick b, int parent,
           std::uint64_t req) {
    if (!on) return;
    spans_.push_back({layer, name, static_cast<double>(a), static_cast<double>(b), parent,
                      req, true});
  }
  void write(Out& o) const {
    o.key("spans");
    o.open('[');
    for (const Span& s : spans_) {
      o.open('{');
      o.field("layer", s.layer);
      o.field("name", s.name);
      o.field("start", s.start);
      o.field("end", s.end);
      o.field("parent", s.parent);
      o.field("req", static_cast<double>(s.req));
      o.key("simulated"), o.boolean(s.simulated);
      o.close('}');
    }
    o.close(']');
  }

 private:
  double secs(Clock::time_point t) const {
    return std::chrono::duration<double>(t - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- Shared measurement state -------------------------------------------------

using Counters = std::map<std::string, double>;

/// Graph generation (and vertex splitting) is part of set-up in the first
/// kFullSetups repetitions only; later ones reuse the same seed's graph and
/// set up only the machine, so a run fits more timed calls.
constexpr std::uint64_t kFullSetups = 5;

/// Host seconds of one repetition, split by the layer that spent them.
struct RepTimes {
  double gen = 0, split = 0, build = 0, upload = 0, install = 0, warm = 0, submit = 0;
  double wall = 0, cpu = 0;
  bool full = false;  ///< generated its own graph (a complete set-up)
  bool traced = false;
  double setup() const { return gen + split + build + upload + install + warm + submit; }
};

/// The simulated fingerprint every repetition must reproduce exactly.
struct Fingerprint {
  Tick ticks = 0;
  std::uint64_t events = 0, messages = 0, charged = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct Bench {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool tiny = false;
  std::uint32_t shards = 0;  ///< 0 = the workload's own shard count
  Spans spans;
  Counters counters;        ///< deterministic per-layer counters (first rep)
  std::vector<RepTimes> reps;
  std::vector<Fingerprint> fps;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  double oracle_s = 0;
  Out config;             ///< resolved configuration, echoed in the output
  std::uint64_t req = 0;  ///< request id (index) of the current repetition

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

void config_machine(Out& o, const MachineConfig& c) {
  o.field("nodes", c.nodes);
  o.field("accels_per_node", c.accels_per_node);
  o.field("lanes_per_accel", c.lanes_per_accel);
  o.field("total_lanes", static_cast<double>(c.total_lanes()));
  o.field("shards", c.shards);
  o.field("bw_inject_node", c.bw_inject_node);
  o.field("bw_bisection_per_node", c.bw_bisection_per_node);
  o.field("bw_dram_node", c.bw_dram_node);
  o.field("lat_hop", static_cast<double>(c.lat_hop));
  o.key("check"), o.boolean(c.check);
  o.key("trace"), o.boolean(!c.trace.empty());
}

/// Counters every workload reads at the Machine / GlobalMemory / KVMSR
/// boundaries once the timed call has returned.
void machine_counters(Machine& m, Tick makespan, Counters& c) {
  const MachineStats& s = m.stats();
  const EngineStats es = m.engine_stats();
  const double ev = static_cast<double>(s.events_executed);
  c["sim.events"] = ev;
  c["sim.messages"] = static_cast<double>(s.messages_sent);
  c["sim.cross_node_messages"] = static_cast<double>(s.cross_node_messages);
  c["sim.dram_accesses"] = static_cast<double>(s.dram_reads + s.dram_writes);
  c["sim.remote_dram_accesses"] = static_cast<double>(s.remote_dram_accesses);
  c["sim.threads_created"] = static_cast<double>(s.threads_created);
  c["sim.max_queue_depth"] = static_cast<double>(s.max_queue_depth);
  c["sim.msg_pool_capacity"] = es.msg_pool_capacity;
  c["sim.windows"] = static_cast<double>(es.windows);
  c["sim.events_per_window"] = es.windows ? ev / static_cast<double>(es.windows) : 0.0;
  c["sim.mailbox_events"] = static_cast<double>(es.mailbox_messages);
  c["sim.mailbox_frac"] = ev > 0 ? static_cast<double>(es.mailbox_messages) / ev : 0.0;
  c["sim.far_events"] = static_cast<double>(es.far_events);
  c["sim.bucket_sorts"] = static_cast<double>(es.bucket_sorts);
  c["sim.charged_cycles"] = static_cast<double>(s.charged_cycles);
  const double lane_ticks =
      static_cast<double>(m.config().total_lanes()) * static_cast<double>(makespan);
  c["sim.lane_utilization"] =
      lane_ticks > 0 ? static_cast<double>(s.charged_cycles) / lane_ticks : 0.0;
  c["sim.lane_imbalance"] = m.lane_activity().imbalance();

  c["mem.descriptors"] = static_cast<double>(m.memory().descriptor_count());
  std::uint64_t node_max = 0;
  for (std::uint32_t n = 0; n < m.config().nodes; ++n)
    node_max = std::max(node_max, m.memory().node_bytes(n));
  c["mem.node_bytes_max"] = static_cast<double>(node_max);

  const ShuffleStats& sh = s.shuffle;
  c["kvmsr.tuples_emitted"] = static_cast<double>(sh.tuples_emitted);
  c["kvmsr.tuples_combined"] = static_cast<double>(sh.tuples_combined);
  c["kvmsr.combine_ratio"] =
      sh.tuples_emitted ? static_cast<double>(sh.tuples_combined) / sh.tuples_emitted : 0.0;
  c["kvmsr.shuffle_messages"] = static_cast<double>(sh.messages);
  c["kvmsr.shuffle_cross_node"] = static_cast<double>(sh.cross_node_messages);
  c["kvmsr.shuffle_bytes"] = static_cast<double>(sh.bytes);
  c["kvmsr.coalescing_factor"] = sh.coalescing_factor();
  double jobs = 0, map_ticks = 0, tail_ticks = 0, polls = 0;
  if (m.has_service<kvmsr::Library>()) {
    const kvmsr::Library& lib = m.service<kvmsr::Library>();
    jobs = static_cast<double>(lib.num_jobs());
    // JobState keeps the ticks of each job's last run only.
    for (kvmsr::JobId j = 0; j < lib.num_jobs(); ++j) {
      const kvmsr::JobState& st = lib.state(j);
      if (st.runs == 0) continue;
      map_ticks += static_cast<double>(st.map_done_tick - st.start_tick);
      tail_ticks += static_cast<double>(st.done_tick - st.map_done_tick);
      polls += st.poll_rounds;
    }
  }
  c["kvmsr.jobs"] = jobs;
  c["kvmsr.map_ticks"] = map_ticks;
  c["kvmsr.tail_ticks"] = tail_ticks;
  c["kvmsr.poll_rounds"] = polls;
}

/// Simulated child spans for every KVMSR job's last run.
void job_spans(Bench& b, Machine& m, int parent) {
  if (!b.spans.on || !m.has_service<kvmsr::Library>()) return;
  const kvmsr::Library& lib = m.service<kvmsr::Library>();
  for (kvmsr::JobId j = 0; j < lib.num_jobs(); ++j) {
    const kvmsr::JobState& st = lib.state(j);
    if (st.runs == 0) continue;
    const std::string nm = "job" + std::to_string(j);
    b.spans.sim("kvmsr", nm + ".map", st.start_tick, st.map_done_tick, parent, b.req);
    b.spans.sim("kvmsr", nm + ".tail", st.map_done_tick, st.done_tick, parent, b.req);
  }
}

Fingerprint fingerprint(Machine& m, Tick ticks) {
  const MachineStats& s = m.stats();
  return {ticks, s.events_executed, s.messages_sent, s.charged_cycles};
}

/// Runs the timed call as the "sim" layer span and records host wall and
/// process CPU seconds (CPU covers every shard thread).
void timed_call(Bench& b, RepTimes& t, const char* name, const std::function<void()>& f) {
  const double c0 = cpu_seconds();
  t.wall = b.spans.time("sim", name, b.req, f);
  t.cpu = cpu_seconds() - c0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  return v[i];
}

double median_of(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest-degree vertex (lowest id on ties): a hub of the skewed
/// graph, so the level count, and with it the simulated time, varies little
/// from seed to seed.
VertexId hub_root(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(best)) best = v;
  return best;
}

bool ranks_match(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::fabs(got[i] - want[i]) > 1e-9) return false;
  return true;
}

bool ranks_bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---- pagerank-serial ------------------------------------------------------------
// Push PageRank on a vertex-split skewed RMAT graph, one host shard, network
// bandwidth cut to the paper's per-lane share (scaled_netbound): the KVMSR
// shuffle, combining cache and DRAM dominate, and host time is pure
// per-event cost with no window barrier.

void pagerank_serial(Bench& b, bool first) {
  const std::uint32_t scale = b.tiny ? 10 : 14;
  const std::uint32_t nodes = b.tiny ? 4 : 16;
  const std::uint64_t max_deg = 64;
  MachineConfig cfg = MachineConfig::scaled_netbound(nodes);
  cfg.shards = b.shards ? b.shards : 1;
  pr::Options opt;
  opt.iterations = 2;

  RepTimes t;
  static Graph g;
  static SplitGraph sg;
  std::unique_ptr<Machine> m;
  DeviceGraph dg;
  pr::App* app = nullptr;
  if (b.req < kFullSetups) {
    t.full = true;
    t.gen = b.spans.time("graph", "rmat", b.req, [&] { g = rmat(scale, {}, b.seed); });
    t.split = b.spans.time("graph", "split", b.req,
                           [&] { sg = split_vertices(g, max_deg, true, b.seed); });
  }
  t.build = b.spans.time("sim", "build", b.req, [&] { m = std::make_unique<Machine>(cfg); });
  t.upload = b.spans.time("graph", "upload", b.req, [&] { dg = upload_split_graph(*m, sg); });
  t.install = b.spans.time("apps", "install", b.req,
                           [&] { app = &pr::App::install(*m, dg, sg, opt); });
  pr::Result r;
  timed_call(b, t, "run", [&] { r = app->run(); });
  const int run_span = b.spans.last();
  job_spans(b, *m, run_span);

  static std::vector<double> oracle;
  if (first) {
    b.oracle_s = b.spans.time("baseline", "pagerank", b.req,
                              [&] { oracle = baseline::pagerank(g, opt.iterations); });
    machine_counters(*m, r.duration(), b.counters);
    b.counters["graph.vertices"] = static_cast<double>(g.num_vertices());
    b.counters["graph.edges"] = static_cast<double>(g.num_edges());
    b.counters["apps.updates"] = static_cast<double>(r.edge_updates);
    b.counters["apps.gups"] = r.gups();
    b.counters["apps.rounds"] = r.iterations;
    b.config.key("machine"), b.config.open('{'), config_machine(b.config, m->config());
    b.config.close('}');
    b.config.field("graph", "rmat");
    b.config.field("scale", scale);
    b.config.field("split_max_degree", static_cast<double>(max_deg));
    b.config.field("iterations", opt.iterations);
  }
  ++b.attempted;
  bool ok = true;
  b.spans.time("baseline", "check", b.req, [&] { ok = ranks_match(r.rank, oracle); });
  if (!ok) b.fail("pagerank ranks differ from baseline::pagerank");
  b.fps.push_back(fingerprint(*m, r.duration()));
  b.reps.push_back(t);
}

// ---- bfs-sharded ------------------------------------------------------------------
// Level-synchronous BFS on a symmetrized RMAT graph over 2,048 lanes, with
// the engine sharded across 4 host threads: most events cross shards through
// mailboxes, so the window protocol, mailbox merge and barrier dominate host
// time.

void bfs_sharded(Bench& b, bool first) {
  const std::uint32_t scale = b.tiny ? 11 : 16;
  const std::uint32_t nodes = b.tiny ? 16 : 64;
  MachineConfig cfg = MachineConfig::scaled(nodes);
  cfg.shards = b.shards ? b.shards : 4;

  RepTimes t;
  static Graph g;
  std::unique_ptr<Machine> m;
  DeviceGraph dg;
  bfs::App* app = nullptr;
  if (b.req < kFullSetups) {
    t.full = true;
    t.gen = b.spans.time("graph", "rmat", b.req,
                         [&] { g = rmat(scale, {.symmetrize = true}, b.seed); });
  }
  static VertexId root = 0;
  static baseline::BfsResult oracle;
  if (first) {
    b.oracle_s = b.spans.time("baseline", "bfs", b.req, [&] {
      root = hub_root(g);
      oracle = baseline::bfs(g, root);
    });
  }
  t.build = b.spans.time("sim", "build", b.req, [&] { m = std::make_unique<Machine>(cfg); });
  t.upload = b.spans.time("graph", "upload", b.req, [&] { dg = upload_graph(*m, g); });
  t.install = b.spans.time("apps", "install", b.req,
                           [&] { app = &bfs::App::install(*m, dg, {.root = root}); });
  bfs::Result r;
  timed_call(b, t, "run", [&] { r = app->run(); });
  job_spans(b, *m, b.spans.last());

  if (first) {
    machine_counters(*m, r.duration(), b.counters);
    b.counters["graph.vertices"] = static_cast<double>(g.num_vertices());
    b.counters["graph.edges"] = static_cast<double>(g.num_edges());
    b.counters["apps.updates"] = static_cast<double>(r.traversed_edges);
    b.counters["apps.gups"] = r.gteps();
    b.counters["apps.rounds"] = static_cast<double>(r.rounds);
    b.config.key("machine"), b.config.open('{'), config_machine(b.config, m->config());
    b.config.close('}');
    b.config.field("graph", "rmat-symmetrized");
    b.config.field("scale", scale);
    b.config.field("root", static_cast<double>(root));
  }
  ++b.attempted;
  bool ok = true;
  b.spans.time("baseline", "check", b.req, [&] {
    ok = r.dist == oracle.dist && r.traversed_edges == oracle.traversed_edges;
  });
  if (!ok) b.fail("bfs levels differ from baseline::bfs");
  b.fps.push_back(fingerprint(*m, r.duration()));
  b.reps.push_back(t);
}

// ---- serving: shared ticket accounting ----------------------------------------------

struct TicketRow {
  serve::QueryKind kind;
  Tick arrival, dispatch, done;
  serve::TicketStatus status;
};

/// Latency / queue-wait summary of a replay, all in simulated ticks.
struct ServeSummary {
  std::vector<double> latency, wait;
  std::map<std::string, std::vector<double>> exec;  ///< by query kind
  std::uint64_t completed = 0, rejected = 0, cancelled = 0;
  double growth = 0;  ///< mean wait of the last tenth minus the first tenth
  Tick makespan = 0;
};

ServeSummary summarize(const std::vector<TicketRow>& rows) {
  ServeSummary s;
  Tick first = rows.empty() ? 0 : rows.front().arrival;
  std::vector<double> waits_in_order;
  for (const TicketRow& r : rows) {
    first = std::min(first, r.arrival);
    if (r.status == serve::TicketStatus::kRejected) {
      ++s.rejected;
      continue;
    }
    if (r.status != serve::TicketStatus::kDone) {
      ++s.cancelled;
      continue;
    }
    ++s.completed;
    s.latency.push_back(static_cast<double>(r.done - r.arrival));
    s.wait.push_back(static_cast<double>(r.dispatch - r.arrival));
    waits_in_order.push_back(s.wait.back());
    s.exec[serve::kind_name(r.kind)].push_back(static_cast<double>(r.done - r.dispatch));
    s.makespan = std::max(s.makespan, r.done - first);
  }
  const std::size_t tenth = waits_in_order.size() / 10;
  if (tenth > 0) {
    double head = 0, tail = 0;
    for (std::size_t i = 0; i < tenth; ++i) {
      head += waits_in_order[i];
      tail += waits_in_order[waits_in_order.size() - 1 - i];
    }
    s.growth = (tail - head) / static_cast<double>(tenth);
  }
  return s;
}

// ---- serve-mixed -------------------------------------------------------------------
// A resident symmetrized RMAT graph served through a 4-slot partitioned
// Scheduler. The open-loop trace fixes every arrival tick in advance from
// the seed (Poisson arrivals; PageRank / BFS / path-count / triangle mix),
// so the generator is never late; latency runs from each due arrival.

struct ServeParams {
  std::uint32_t scale = 6, nodes = 4, queries = 1000;
  double nominal_qpmt = 0;  ///< queries per million ticks at the nominal rate
  std::vector<double> ladder;
  serve::SchedOptions sched;
};

ServeParams serve_params(const Bench& b) {
  ServeParams p;
  if (b.tiny) {
    p.scale = 5;
    p.queries = 40;
  }
  p.nominal_qpmt = 200;
  p.ladder = {200, 400, 800};
  p.sched.max_concurrent = 4;
  p.sched.max_queue = 32;
  p.sched.partition_lanes = true;
  p.sched.aging_quantum = 0;
  return p;
}

struct TraceItem {
  serve::QueryKind kind;
  VertexId root;
  double unit_arrival;  ///< arrival in mean inter-arrival gaps
};

struct ServeInput {
  Graph g;
  std::vector<TraceItem> trace;
  // Oracles, computed once per run.
  std::vector<double> pr;
  std::map<VertexId, std::vector<std::uint64_t>> bfs;
  std::uint64_t paths = 0, triangles = 0;
};

std::vector<TraceItem> make_serve_trace(const Graph& g, std::uint32_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x5E12E);
  std::vector<VertexId> with_edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > 0) with_edges.push_back(v);
  static constexpr serve::QueryKind kKinds[] = {
      serve::QueryKind::kPageRank, serve::QueryKind::kBfs, serve::QueryKind::kPathCount,
      serve::QueryKind::kTriangles};
  std::vector<TraceItem> t;
  double at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const serve::QueryKind k = kKinds[rng.below(4)];
    const VertexId root = with_edges[rng.below(with_edges.size())];
    t.push_back({k, root, at});
    at += -std::log(1.0 - rng.uniform());  // exponential gap, mean 1
  }
  return t;
}

struct ServeReplay {
  std::vector<TicketRow> rows;
  std::uint64_t wrong = 0;
  double updates = 0, rounds = 0;  ///< shuffle tuples and rounds, all queries
  Fingerprint fp;
};

/// One replay of the trace at `qpmt` on a fresh machine. With `rep` set the
/// set-up and drain are timed into it and the machine counters recorded.
ServeReplay serve_replay(Bench& b, const ServeParams& p, const ServeInput& in, double qpmt,
                         RepTimes* rep, bool record) {
  RepTimes scratch;
  RepTimes& t = rep ? *rep : scratch;
  const MachineConfig cfg = [&] {
    MachineConfig c = MachineConfig::scaled(p.nodes);
    c.shards = b.shards ? b.shards : 1;
    return c;
  }();
  std::unique_ptr<Machine> m;
  DeviceGraph dg;
  serve::QueryEngine* eng = nullptr;
  std::unique_ptr<serve::Scheduler> sched;
  std::vector<serve::TicketId> ids;
  t.build = b.spans.time("sim", "build", b.req, [&] { m = std::make_unique<Machine>(cfg); });
  t.upload = b.spans.time("graph", "upload", b.req, [&] { dg = upload_graph(*m, in.g); });
  t.install = b.spans.time("serve", "install", b.req, [&] {
    eng = &serve::QueryEngine::install(*m);
    sched = std::make_unique<serve::Scheduler>(*eng, p.sched);
  });
  const double gap = 1e6 / qpmt;
  t.submit = b.spans.time("serve", "submit", b.req, [&] {
    for (std::size_t i = 0; i < in.trace.size(); ++i) {
      const TraceItem& it = in.trace[i];
      serve::QuerySpec s;
      s.kind = it.kind;
      s.graph = &dg;
      s.iterations = 2;
      s.root = it.root;
      s.name = std::string(serve::kind_name(it.kind)) + std::to_string(i);
      ids.push_back(sched->submit(std::move(s), serve::QoS::kNormal,
                                  static_cast<Tick>(std::llround(it.unit_arrival * gap))));
    }
  });
  timed_call(b, t, "drain", [&] { sched->drain(); });
  const int drain_span = b.spans.last();

  ServeReplay out;
  b.spans.time("baseline", "check", b.req, [&] {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const serve::Ticket& tk = sched->ticket(ids[i]);
      out.rows.push_back({in.trace[i].kind, tk.arrival, tk.dispatch, tk.done, tk.status});
      if (tk.status != serve::TicketStatus::kDone) continue;
      const serve::QueryResult r = eng->collect(tk.query);
      bool ok = true;
      switch (in.trace[i].kind) {
        case serve::QueryKind::kPageRank: ok = ranks_match(r.rank, in.pr); break;
        case serve::QueryKind::kBfs: ok = r.dist == in.bfs.at(in.trace[i].root); break;
        case serve::QueryKind::kPathCount: ok = r.count == in.paths; break;
        case serve::QueryKind::kTriangles: ok = r.count == in.triangles; break;
        default: ok = false;
      }
      if (!ok) ++out.wrong;
      out.updates += static_cast<double>(r.emitted);
      out.rounds += static_cast<double>(r.rounds);
      if (b.spans.on && rep) {
        const std::uint64_t req = (b.req << 20) | i;
        b.spans.sim("serve", "queue_wait", tk.arrival, tk.dispatch, drain_span, req);
        b.spans.sim("serve", std::string("exec.") + serve::kind_name(in.trace[i].kind),
                    tk.dispatch, tk.done, drain_span, req);
      }
    }
  });
  const ServeSummary s = summarize(out.rows);
  out.fp = fingerprint(*m, s.makespan);
  if (record) {
    machine_counters(*m, s.makespan, b.counters);
    job_spans(b, *m, drain_span);
  }
  return out;
}

void serve_mixed(Bench& b, bool first) {
  static ServeParams p;
  static ServeInput in;
  RepTimes t;
  Graph g;
  if (b.req < kFullSetups) {
    t.full = true;
    t.gen = b.spans.time("graph", "rmat", b.req, [&] {
      g = rmat(serve_params(b).scale, {.symmetrize = true}, b.seed);
    });
  }
  if (first) {
    p = serve_params(b);
    in.g = std::move(g);
    in.trace = make_serve_trace(in.g, p.queries, b.seed);
    b.oracle_s = b.spans.time("baseline", "oracles", b.req, [&] {
      in.pr = baseline::pagerank(in.g, 2);
      for (const TraceItem& it : in.trace)
        if (it.kind == serve::QueryKind::kBfs && !in.bfs.count(it.root))
          in.bfs[it.root] = baseline::bfs(in.g, it.root).dist;
      in.paths = serve::cpu_path_count(in.g);
      in.triangles = baseline::triangle_count(in.g);
    });
  }
  const ServeReplay r = serve_replay(b, p, in, p.nominal_qpmt, &t, first);
  const ServeSummary s = summarize(r.rows);
  b.attempted += r.rows.size();
  if (r.wrong) b.fail(std::to_string(r.wrong) + " served results differ from the oracles");
  for (std::uint64_t i = 0; i < s.rejected + s.cancelled; ++i)
    b.fail("query rejected or cancelled at the nominal rate");
  b.fps.push_back(r.fp);
  b.reps.push_back(t);
  if (!first) return;

  Counters& c = b.counters;
  c["graph.vertices"] = static_cast<double>(in.g.num_vertices());
  c["graph.edges"] = static_cast<double>(in.g.num_edges());
  c["query_p50_ticks"] = quantile(s.latency, 0.5);
  c["query_p99_ticks"] = quantile(s.latency, 0.99);
  c["serve.queue_wait_p50_ticks"] = quantile(s.wait, 0.5);
  c["serve.queue_wait_p99_ticks"] = quantile(s.wait, 0.99);
  c["serve.queue_wait_growth"] = s.growth;
  c["serve.rejected"] = static_cast<double>(s.rejected);
  c["serve.completed"] = static_cast<double>(s.completed);
  for (const char* k : {"pagerank", "bfs", "pathcount", "triangles"})
    c[std::string("serve.exec_p50_ticks.") + k] =
        s.exec.count(k) ? quantile(s.exec.at(k), 0.5) : 0.0;
  c["apps.updates"] = r.updates;
  c["apps.rounds"] = r.rounds;
  c["apps.gups"] = s.makespan ? r.updates / ticks_to_seconds(s.makespan) / 1e9 : 0.0;

  // The rate ladder: the same trace compressed or stretched in simulated
  // time. A rate is sustained when p99 stays under the limit, nothing is
  // rejected, and mean queue wait grows by less than the median latency
  // from the first to the last tenth of the trace.
  const double p99_limit = 50'000;
  double sustained = 0;
  for (const double rate : p.ladder) {
    const ServeReplay lr =
        rate == p.nominal_qpmt ? r : serve_replay(b, p, in, rate, nullptr, false);
    const ServeSummary ls = summarize(lr.rows);
    const double p99 = quantile(ls.latency, 0.99);
    c["serve.p99_ticks.r" + std::to_string(static_cast<int>(rate))] = p99;
    if (lr.wrong) b.fail("ladder results differ from the oracles");
    if (p99 < p99_limit && ls.rejected == 0 && ls.cancelled == 0 &&
        ls.growth <= quantile(ls.latency, 0.5))
      sustained = std::max(sustained, rate);
  }
  c["sustained_qpmt"] = sustained;

  b.config.key("machine"), b.config.open('{'),
      config_machine(b.config, MachineConfig::scaled(p.nodes));
  b.config.close('}');
  b.config.field("graph", "rmat-symmetrized");
  b.config.field("scale", p.scale);
  b.config.field("queries", p.queries);
  b.config.field("arrivals", "open-loop poisson");
  b.config.field("nominal_qpmt", p.nominal_qpmt);
  b.config.key("ladder_qpmt"), b.config.open('[');
  for (const double r : p.ladder) b.config.num(r);
  b.config.close(']');
  b.config.field("p99_limit_ticks", p99_limit);
  b.config.field("max_concurrent", p.sched.max_concurrent);
  b.config.field("max_queue", p.sched.max_queue);
  b.config.key("partition_lanes"), b.config.boolean(p.sched.partition_lanes);
}

// ---- stream-serve ---------------------------------------------------------------
// A streaming session on an ER graph, warmed during set-up. Seeded delta
// batches arrive on a fixed simulated schedule through StreamEngine::submit,
// each followed by incremental PageRank and BFS refresh tickets; read
// queries (BFS, path count) on the live forward graph arrive in between, on
// the same Scheduler and QueryEngine as serve-mixed.

struct StreamParams {
  std::uint32_t scale = 11, edge_factor = 4, nodes = 2;
  std::uint32_t batches = 8, reads_per_batch = 8;
  Tick batch_period = 400'000;
};

StreamParams stream_params(const Bench& b) {
  StreamParams p;
  if (b.tiny) {
    p.scale = 9;
    p.batches = 2;
    p.reads_per_batch = 4;
  }
  return p;
}

struct StreamPlan {
  std::vector<std::vector<tform::EdgeRecord>> deltas;
  struct Read {
    serve::QueryKind kind;
    VertexId root;
    Tick offset;  ///< arrival after the base tick
  };
  std::vector<Read> reads;
  std::vector<Graph> versions;  ///< versions[k]: base + the first k deltas
};

Graph with_delta(const Graph& g, const std::vector<tform::EdgeRecord>& recs) {
  std::vector<Edge> es;
  es.reserve(g.num_edges() + recs.size());
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors_of(u)) es.emplace_back(u, v);
  for (const tform::EdgeRecord& r : recs) es.emplace_back(r.src, r.dst);
  return Graph::from_edges(g.num_vertices(), std::move(es), false);
}

void stream_serve(Bench& b, bool first) {
  const StreamParams p = stream_params(b);
  static StreamPlan plan;
  RepTimes t;
  static Graph base;
  if (b.req < kFullSetups) {
    t.full = true;
    t.gen = b.spans.time("graph", "erdos_renyi", b.req,
                         [&] { base = erdos_renyi(p.scale, p.edge_factor, b.seed); });
  }
  if (first) {
    Xoshiro256 rng(b.seed ^ 0x57EA);
    const VertexId n = base.num_vertices();
    const std::uint64_t per_batch = std::max<std::uint64_t>(8, base.num_edges() / 512);
    plan.versions.push_back(base);
    for (std::uint32_t k = 0; k < p.batches; ++k) {
      std::vector<tform::EdgeRecord> recs;
      for (std::uint64_t i = 0; i < per_batch; ++i)
        recs.push_back({rng.below(n), rng.below(n), i % 4});
      plan.deltas.push_back(recs);
      for (std::uint32_t j = 0; j < p.reads_per_batch; ++j) {
        const serve::QueryKind kind =
            rng.below(2) ? serve::QueryKind::kBfs : serve::QueryKind::kPathCount;
        const Tick off = k * p.batch_period + 1 + rng.below(p.batch_period - 1);
        plan.reads.push_back({kind, rng.below(n), off});
      }
    }
    b.oracle_s += b.spans.time("baseline", "versions", b.req, [&] {
      for (const auto& d : plan.deltas) plan.versions.push_back(with_delta(plan.versions.back(), d));
    });
  }

  MachineConfig cfg = MachineConfig::scaled(p.nodes);
  cfg.shards = b.shards ? b.shards : 1;
  stream::StreamOptions so;
  so.pr_iterations = 2;
  so.bfs_root = 0;
  so.block_bytes = 1000;
  so.epoch = 0;
  serve::SchedOptions sched_opt;
  sched_opt.max_concurrent = 4;
  sched_opt.max_queue = 64;
  sched_opt.partition_lanes = false;

  std::unique_ptr<Machine> m;
  stream::StreamEngine* se = nullptr;
  serve::QueryEngine* eng = nullptr;
  std::unique_ptr<serve::Scheduler> sched;
  t.build = b.spans.time("sim", "build", b.req, [&] { m = std::make_unique<Machine>(cfg); });
  t.upload = b.spans.time("stream", "install", b.req, [&] {
    se = &stream::StreamEngine::install(*m, base, so);
    eng = &serve::QueryEngine::install(*m);
    sched = std::make_unique<serve::Scheduler>(*eng, sched_opt);
  });
  t.warm = b.spans.time("stream", "warm", b.req, [&] { se->warm(); });
  const Tick warm_ticks = m->now();
  const Tick t0 = m->now() + 1000;

  std::vector<serve::MutationId> muts;
  std::vector<std::pair<serve::TicketId, serve::TicketId>> refresh;
  std::vector<serve::TicketId> reads;
  // One submit + drain per batch, in arrival order: the batch, its refresh,
  // then the reads that arrive before the next batch. A single drain of the
  // whole schedule livelocks at this commit (README.md, "Known defect"):
  // Scheduler::drain spins without stepping the engine when a batch falls
  // due while queries that arrived before it are still running. Draining
  // per batch applies each batch at a quiescent point, which is where the
  // Scheduler's gating would apply it anyway.
  std::size_t ri = 0;
  std::vector<int> drain_span;   // per batch
  std::vector<std::size_t> read_batch;
  for (std::uint32_t k = 0; k < p.batches; ++k) {
    t.submit += b.spans.time("stream", "submit", b.req, [&] {
      const Tick at = t0 + k * p.batch_period;
      muts.push_back(se->submit(*sched, plan.deltas[k], at));
      const serve::TicketId ipr =
          sched->submit(se->inc_pagerank_spec(), serve::QoS::kNormal, at + 1);
      const serve::TicketId ibfs =
          sched->submit(se->inc_bfs_spec(), serve::QoS::kNormal, at + 1);
      refresh.emplace_back(ipr, ibfs);
      for (; ri < plan.reads.size() && plan.reads[ri].offset < (k + 1) * p.batch_period; ++ri) {
        serve::QuerySpec s;
        s.kind = plan.reads[ri].kind;
        s.graph = se->resident().fwd;
        s.root = plan.reads[ri].root;
        s.name = "read" + std::to_string(ri);
        reads.push_back(sched->submit(std::move(s), serve::QoS::kNormal,
                                      t0 + plan.reads[ri].offset));
        read_batch.push_back(k);
      }
    });
    RepTimes d;
    timed_call(b, d, "drain", [&] { sched->drain(); });
    drain_span.push_back(b.spans.last());
    t.wall += d.wall;
    t.cpu += d.cpu;
  }

  // Checks: every read against the CPU oracle on the graph version it saw
  // (all batches that arrived at or before it), and the final refresh
  // bit-exact against from-scratch PageRank / BFS on the final graph.
  // Earlier refreshes wrote the same resident arrays and cannot be read back.
  std::uint64_t wrong = 0, unresolved = 0;
  std::vector<double> read_lat, gate_wait, upd_lag, vis_lag, ipr_exec, ibfs_exec;
  std::vector<TicketRow> read_rows;
  b.spans.time("baseline", "check", b.req, [&] {
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const serve::Ticket& tk = sched->ticket(reads[i]);
      read_rows.push_back({plan.reads[i].kind, tk.arrival, tk.dispatch, tk.done, tk.status});
      if (tk.status != serve::TicketStatus::kDone) {
        ++unresolved;
        continue;
      }
      std::size_t ver = 0;
      Tick held_until = tk.arrival;
      for (std::uint32_t k = 0; k < p.batches; ++k)
        if (t0 + k * p.batch_period <= tk.arrival) {
          ver = k + 1;
          held_until = std::max(held_until, sched->mutation_applied_tick(muts[k]));
        }
      gate_wait.push_back(static_cast<double>(std::min(held_until, tk.dispatch) - tk.arrival));
      const Graph& g = plan.versions[ver];
      const serve::QueryResult r = eng->collect(tk.query);
      const bool ok = plan.reads[i].kind == serve::QueryKind::kBfs
                          ? r.dist == baseline::bfs(g, plan.reads[i].root).dist
                          : r.count == serve::cpu_path_count(g);
      if (!ok) ++wrong;
      read_lat.push_back(static_cast<double>(tk.done - tk.arrival));
      if (b.spans.on) {
        const std::uint64_t req = (b.req << 20) | i;
        const int parent = drain_span[read_batch[i]];
        b.spans.sim("serve", "queue_wait", tk.arrival, tk.dispatch, parent, req);
        b.spans.sim("serve", std::string("exec.") + serve::kind_name(plan.reads[i].kind),
                    tk.dispatch, tk.done, parent, req);
      }
    }
    for (std::uint32_t k = 0; k < p.batches; ++k) {
      const Tick at = t0 + k * p.batch_period;
      const serve::Ticket& a = sched->ticket(refresh[k].first);
      const serve::Ticket& c = sched->ticket(refresh[k].second);
      if (!sched->mutation_applied(muts[k]) || a.status != serve::TicketStatus::kDone ||
          c.status != serve::TicketStatus::kDone) {
        ++unresolved;
        continue;
      }
      vis_lag.push_back(static_cast<double>(sched->mutation_applied_tick(muts[k]) - at));
      upd_lag.push_back(static_cast<double>(std::max(a.done, c.done) - at));
      ipr_exec.push_back(static_cast<double>(a.done - a.dispatch));
      ibfs_exec.push_back(static_cast<double>(c.done - c.dispatch));
      if (b.spans.on) {
        const std::uint64_t req = (b.req << 20) | (1u << 19) | k;
        b.spans.sim("stream", "visible_lag", at, sched->mutation_applied_tick(muts[k]),
                    drain_span[k], req);
        b.spans.sim("stream", "inc_pagerank", a.dispatch, a.done, drain_span[k], req);
        b.spans.sim("stream", "inc_bfs", c.dispatch, c.done, drain_span[k], req);
      }
    }
    if (!refresh.empty()) {
      const Graph& g = plan.versions.back();
      const serve::QueryResult pr = eng->collect(sched->ticket(refresh.back().first).query);
      const serve::QueryResult bf = eng->collect(sched->ticket(refresh.back().second).query);
      if (!ranks_bit_equal(pr.rank, baseline::pagerank(g, so.pr_iterations))) ++wrong;
      if (bf.dist != baseline::bfs(g, so.bfs_root).dist) ++wrong;
    }
  });
  b.attempted += reads.size() + 3 * p.batches;
  if (wrong) b.fail(std::to_string(wrong) + " stream results differ from the oracles");
  for (std::uint64_t i = 0; i < unresolved; ++i)
    b.fail("stream query or batch not completed");

  Tick makespan = 0;
  for (const serve::TicketId id : reads) makespan = std::max(makespan, sched->ticket(id).done);
  for (const auto& [a, c] : refresh)
    makespan = std::max({makespan, sched->ticket(a).done, sched->ticket(c).done});
  makespan = makespan > t0 ? makespan - t0 : 0;
  b.fps.push_back(fingerprint(*m, makespan));
  b.reps.push_back(t);
  if (!first) return;

  machine_counters(*m, makespan, b.counters);
  job_spans(b, *m, drain_span.back());
  Counters& c = b.counters;
  const ServeSummary s = summarize(read_rows);
  c["graph.vertices"] = static_cast<double>(base.num_vertices());
  c["graph.edges"] = static_cast<double>(base.num_edges());
  c["query_p50_ticks"] = quantile(read_lat, 0.5);
  c["query_p99_ticks"] = quantile(read_lat, 0.99);
  c["update_lag_ticks"] = median_of(upd_lag);
  c["serve.queue_wait_p50_ticks"] = quantile(s.wait, 0.5);
  c["serve.queue_wait_p99_ticks"] = quantile(s.wait, 0.99);
  c["serve.queue_wait_growth"] = s.growth;
  c["serve.rejected"] = static_cast<double>(s.rejected);
  c["serve.completed"] = static_cast<double>(s.completed);
  for (const char* k : {"pagerank", "bfs", "pathcount", "triangles"})
    c[std::string("serve.exec_p50_ticks.") + k] =
        s.exec.count(k) ? quantile(s.exec.at(k), 0.5) : 0.0;
  c["stream.warm_ticks"] = static_cast<double>(warm_ticks);
  c["stream.visible_lag_ticks"] = median_of(vis_lag);
  c["stream.inc_pagerank_exec_ticks"] = median_of(ipr_exec);
  c["stream.inc_bfs_exec_ticks"] = median_of(ibfs_exec);
  double recs = 0;
  for (const auto& d : plan.deltas) recs += static_cast<double>(d.size());
  c["stream.delta_records"] = recs;
  c["stream.epochs"] = static_cast<double>(se->graph().epochs());
  double gate_sum = 0;
  for (const double w : gate_wait) gate_sum += w;
  c["stream.gate_wait_ticks"] = gate_wait.empty() ? 0.0 : gate_sum / gate_wait.size();
  double updates = 0, rounds = 0;
  for (const auto& [a, cc] : refresh)
    for (const serve::TicketId id : {a, cc}) {
      const serve::Ticket& tk = sched->ticket(id);
      if (tk.status != serve::TicketStatus::kDone) continue;
      const serve::QueryResult r = eng->collect(tk.query);
      updates += static_cast<double>(r.emitted);
      rounds += static_cast<double>(r.rounds);
    }
  c["apps.updates"] = updates;
  c["apps.rounds"] = rounds;
  c["apps.gups"] = makespan ? updates / ticks_to_seconds(makespan) / 1e9 : 0.0;

  b.config.key("machine"), b.config.open('{'), config_machine(b.config, m->config());
  b.config.close('}');
  b.config.field("graph", "erdos-renyi");
  b.config.field("scale", p.scale);
  b.config.field("edge_factor", p.edge_factor);
  b.config.field("batches", p.batches);
  b.config.field("records_per_batch", static_cast<double>(plan.deltas.front().size()));
  b.config.field("batch_period_ticks", static_cast<double>(p.batch_period));
  b.config.field("reads", static_cast<double>(plan.reads.size()));
  b.config.field("max_concurrent", sched_opt.max_concurrent);
  b.config.field("max_queue", sched_opt.max_queue);
  b.config.field("epoch_ticks", static_cast<double>(so.epoch));
}

// ---- main --------------------------------------------------------------------------

/// Clear every ambient UD_* knob (and UDSIM_LOG) so configuration comes only
/// from the MachineConfig / option structs set above.
void clear_knobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    const std::string k = kv.substr(0, kv.find('='));
    if (k.rfind("UD_", 0) == 0 || k == "UDSIM_LOG") names.push_back(k);
  }
  for (const std::string& k : names) ::unsetenv(k.c_str());
}

int run(int argc, char** argv) {
  Bench b;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value after " + a);
      return argv[++i];
    };
    if (a == "--workload") b.workload = next();
    else if (a == "--seed") b.seed = std::stoull(next());
    else if (a == "--seconds") b.seconds = std::stod(next());
    else if (a == "--out") out_path = next();
    else if (a == "--shards") b.shards = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--trace") b.spans.on = true;
    else if (a == "--tiny") b.tiny = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (out_path.empty()) throw std::invalid_argument("--out is required");
  const std::map<std::string, void (*)(Bench&, bool)> workloads = {
      {"pagerank-serial", pagerank_serial},
      {"bfs-sharded", bfs_sharded},
      {"serve-mixed", serve_mixed},
      {"stream-serve", stream_serve},
  };
  const auto w = workloads.find(b.workload);
  if (w == workloads.end()) throw std::invalid_argument("unknown workload " + b.workload);
  clear_knobs();

  // Repetitions until the measuring window closes: the first is reported
  // apart (cold allocator and caches), so at least three run. In a traced
  // run every other repetition is untraced, for the overhead comparison.
  const bool trace = b.spans.on;
  const std::size_t min_reps = 3, max_reps = 200;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < max_reps; ++i) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= min_reps && elapsed >= b.seconds) break;
    b.req = i;
    b.spans.on = trace && i % 2 == 0;
    const int rep_span = b.spans.on ? b.spans.open("bench", "rep", i) : -1;
    w->second(b, i == 0);
    if (rep_span >= 0) b.spans.close(rep_span, Clock::now());
    b.reps.back().traced = b.spans.on;
    if (!(b.fps.back() == b.fps.front())) b.fail("simulated fingerprint differs between reps");
  }
  b.spans.on = trace;

  Out o;
  o.open('{');
  o.field("workload", b.workload);
  o.field("seed", static_cast<double>(b.seed));
  o.field("tiny", b.tiny ? 1.0 : 0.0);
  o.field("build_type", UD_BUILD_TYPE);
  o.field("compiler", UD_COMPILER);
  o.field("cxx_flags", UD_CXX_FLAGS);
  o.object("config", b.config.text());
  o.field("peak_rss_mb", peak_rss_mb());
  o.field("oracle_s", b.oracle_s);
  o.field("attempted", static_cast<double>(b.attempted));
  o.field("failed", static_cast<double>(b.failed));
  o.key("errors"), o.open('[');
  for (const std::string& e : b.errors) o.str(e);
  o.close(']');
  const Fingerprint& fp = b.fps.front();
  o.key("fingerprint"), o.open('{');
  o.field("sim_ticks", static_cast<double>(fp.ticks));
  o.field("events", static_cast<double>(fp.events));
  o.field("messages", static_cast<double>(fp.messages));
  o.field("charged_cycles", static_cast<double>(fp.charged));
  o.close('}');
  o.key("reps"), o.open('[');
  for (const RepTimes& t : b.reps) {
    o.open('{');
    o.field("setup_s", t.setup());
    o.field("gen_s", t.gen);
    o.field("split_s", t.split);
    o.field("build_s", t.build);
    o.field("upload_s", t.upload);
    o.field("install_s", t.install);
    o.field("warm_s", t.warm);
    o.field("submit_s", t.submit);
    o.field("wall_s", t.wall);
    o.field("cpu_s", t.cpu);
    o.key("full"), o.boolean(t.full);
    o.key("traced"), o.boolean(t.traced);
    o.close('}');
  }
  o.close(']');
  o.key("counters"), o.open('{');
  for (const auto& [k, v] : b.counters) o.field(k, v);
  o.close('}');
  if (trace) b.spans.write(o);
  o.close('}');

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + out_path);
  const bool wrote = std::fputs(o.text().c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !wrote) throw std::runtime_error("cannot write " + out_path);
  return b.failed ? 1 : 0;
}

}  // namespace
}  // namespace updown

int main(int argc, char** argv) {
  try {
    return updown::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "udbench: %s\n", e.what());
    return 2;
  }
}
