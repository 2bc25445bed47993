#include "kvmsr/kvmsr.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/env.hpp"

namespace updown::kvmsr {

namespace {
// udcheck sync-cell slots for the per-lane emit/receive counters: the
// termination gather's poll read of these counters is a happens-before edge
// (reduce tasks terminate without sending, so the message graph alone cannot
// order their DRAM writes before the master's done decision).
constexpr std::uint64_t emitted_slot(JobId job) { return 2ull * job; }
constexpr std::uint64_t received_slot(JobId job) { return 2ull * job + 1; }

// Sync cell carrying the emitter→flusher happens-before edge for one
// (job, destination) emit buffer: every append releases it, the flush
// acquires it before sending the packet, so the packet's clock dominates
// every emitter — one conservative HB edge per packed tuple. Cell keys must
// fit 32 bits (the checker packs them as (lane << 32) | slot); bit 31
// namespaces buffer cells away from the emitted/received counter cells,
// which bounds job ids to 11 bits and lane ids to 20 (checked at add_job).
constexpr std::uint64_t buf_slot(JobId job, NetworkId dst) {
  return (1ull << 31) | (static_cast<std::uint64_t>(job) << 20) | dst;
}

/// JobSpec::coalesce_tuples with the UD_COALESCE override applied. Strict
/// parse: trailing garbage, a negative value, or a factor beyond the
/// bulk-message capacity (kMaxBulkWords) throws std::invalid_argument at
/// add_job time instead of being silently truncated or wrapped; "0", empty,
/// and unset keep the job's configured factor.
std::uint32_t resolved_coalesce(const JobSpec& spec) {
  const std::uint32_t c = static_cast<std::uint32_t>(
      env_u64("UD_COALESCE", spec.coalesce_tuples, kMaxBulkWords));
  return std::max<std::uint32_t>(1, c);
}

/// Buffer capacity in tuples: the job's factor, clamped so one packet's
/// payload fits the bulk-message capacity at this tuple width.
std::uint32_t tuple_cap(std::uint32_t coalesce, std::uint32_t nvals) {
  return std::min<std::uint32_t>(coalesce, kMaxBulkWords / (1 + nvals));
}

Word combine_values(const JobSpec& spec, Word a, Word b) {
  switch (spec.combiner) {
    case Combiner::kSumU64: return a + b;
    case Combiner::kSumF64: {
      double x, y;
      std::memcpy(&x, &a, sizeof x);
      std::memcpy(&y, &b, sizeof y);
      const double r = x + y;
      Word w;
      std::memcpy(&w, &r, sizeof w);
      return w;
    }
    case Combiner::kNone: break;
  }
  return b;
}
}  // namespace

// ---------------------------------------------------------------------------
// Runtime thread classes. These are the KVMSR library's own UDWeave threads:
// a per-launch master, per-node broadcast relays, a per-lane worker that
// pumps map tasks with a bounded in-flight window, and per-lane poll agents
// for the termination gather.
// ---------------------------------------------------------------------------

struct MasterThread : ThreadState {
  JobId job = 0;
  std::uint64_t key_begin = 0, key_end = 0;
  Word cont = IGNRCONT;
  std::uint32_t lanes_done = 0;
  std::uint64_t keys_done = 0;  // kDirect mode
  std::uint32_t poll_replies = 0;
  std::uint64_t poll_emitted = 0, poll_received = 0;
  std::uint64_t pbmw_next = 0;
  std::uint32_t flush_replies = 0;
  Tick backoff = 128;  ///< exponential re-poll delay, capped at spec.poll_backoff

  void m_start(Ctx& ctx);
  void m_lane_map_done(Ctx& ctx);
  void m_poll_again(Ctx& ctx);
  void m_key_returned(Ctx& ctx);
  void m_pbmw_request(Ctx& ctx);
  void m_poll_reply(Ctx& ctx);
  void m_flush_done(Ctx& ctx);

 private:
  void map_phase_complete(Ctx& ctx);
  void start_poll_round(Ctx& ctx);
  void start_flush(Ctx& ctx);
  void finish(Ctx& ctx);
};

struct RelayThread : ThreadState {
  void relay(Ctx& ctx);
};

struct WorkerThread : ThreadState {
  JobId job = 0;
  std::uint64_t next = 0, end = 0;
  Word master = 0;  ///< master thread event word (any label)
  std::uint32_t inflight = 0;
  bool waiting_grant = false;
  bool no_more = false;

  void w_start(Ctx& ctx);
  void w_map_returned(Ctx& ctx);
  void w_grant(Ctx& ctx);

 private:
  void pump(Ctx& ctx);
  void maybe_finish(Ctx& ctx);
};

struct PollThread : ThreadState {
  void p_poll(Ctx& ctx);
};

/// Receiver of one coalesced shuffle packet: unpacks the bulk payload into
/// per-tuple reduce tasks executed inline on this lane, each charged its own
/// handler cost exactly as an individually delivered tuple would have been.
struct PacketThread : ThreadState {
  void kv_packet(Ctx& ctx);
};

// ---------------------------------------------------------------------------
// Library
// ---------------------------------------------------------------------------

Library& Library::install(Machine& m) {
  if (m.has_service<Library>()) return m.service<Library>();
  return m.add_service<Library>(m);
}

Library::Library(Machine& m) : m_(m) {
  Program& p = m.program();
  m_start_ = p.event("kvmsr::m_start", &MasterThread::m_start);
  m_lane_map_done_ = p.event("kvmsr::m_lane_map_done", &MasterThread::m_lane_map_done);
  m_key_returned_ = p.event("kvmsr::m_key_returned", &MasterThread::m_key_returned);
  m_pbmw_request_ = p.event("kvmsr::m_pbmw_request", &MasterThread::m_pbmw_request);
  m_poll_reply_ = p.event("kvmsr::m_poll_reply", &MasterThread::m_poll_reply);
  m_poll_again_ = p.event("kvmsr::m_poll_again", &MasterThread::m_poll_again);
  m_flush_done_ = p.event("kvmsr::m_flush_done", &MasterThread::m_flush_done);
  relay_start_ = p.event("kvmsr::relay", &RelayThread::relay);
  w_start_ = p.event("kvmsr::w_start", &WorkerThread::w_start);
  w_map_returned_ = p.event("kvmsr::w_map_returned", &WorkerThread::w_map_returned);
  w_grant_ = p.event("kvmsr::w_grant", &WorkerThread::w_grant);
  p_poll_ = p.event("kvmsr::p_poll", &PollThread::p_poll);
  kv_packet_ = p.event("kvmsr::kv_packet", &PacketThread::kv_packet);
}

JobId Library::add_job(JobSpec spec) {
  Job j;
  j.spec = std::move(spec);
  j.coalesce = resolved_coalesce(j.spec);
  j.emitted_by_lane.assign(m_.config().total_lanes(), 0);
  j.received_by_lane.assign(m_.config().total_lanes(), 0);
  if (j.coalesce > 1) {
    if (jobs_.size() >= (1u << 11) || m_.config().total_lanes() >= (1u << 20))
      throw std::runtime_error("KVMSR coalescing: job or lane id exceeds the "
                               "32-bit sync-cell packing (see buf_slot)");
    j.bufs_by_lane.resize(m_.config().total_lanes());
  }
  jobs_.push_back(std::move(j));
  return static_cast<JobId>(jobs_.size() - 1);
}

LaneSet Library::resolved_lanes(const Job& j) const {
  LaneSet s = j.spec.lanes;
  if (s.count == 0) {
    s.first = 0;
    s.count = static_cast<std::uint32_t>(m_.config().total_lanes());
  }
  return s;
}

NetworkId Library::reduce_lane(Job& j, Word key) const {
  const LaneSet s = resolved_lanes(j);
  if (j.spec.reduce_binding) return j.spec.reduce_binding(key, s.first, s.count);
  return s.first + static_cast<NetworkId>(hash64(key) % s.count);  // Hash binding
}

void Library::launch_from_host(JobId job, std::uint64_t key_begin, std::uint64_t key_end,
                               Word cont) {
  const LaneSet s = resolved_lanes(jobs_.at(job));
  m_.send_from_host(evw::make_new(s.first, m_start_), {job, key_begin, key_end}, cont);
}

void Library::launch_from_host_at(Tick at, JobId job, std::uint64_t key_begin,
                                  std::uint64_t key_end, Word cont) {
  const LaneSet s = resolved_lanes(jobs_.at(job));
  m_.send_from_host_at(at, evw::make_new(s.first, m_start_), {job, key_begin, key_end},
                       cont);
}

void Library::launch(Ctx& ctx, JobId job, std::uint64_t key_begin, std::uint64_t key_end,
                     Word cont) {
  const LaneSet s = resolved_lanes(jobs_.at(job));
  ctx.send_event(evw::make_new(s.first, m_start_), {job, key_begin, key_end}, cont);
}

const JobState& Library::run_to_completion(JobId job, std::uint64_t key_begin,
                                           std::uint64_t key_end) {
  // run() below drains the WHOLE machine, so any other resident job would be
  // driven to completion (or deadlock on its absent driver) under this job's
  // name — a single-tenant helper silently swallowing a concurrent workload.
  // Debug builds assert; Release builds throw. Concurrent jobs go through
  // launch_from_host + Machine::run_until (see serve::Scheduler).
  for (JobId o = 0; o < static_cast<JobId>(jobs_.size()); ++o) {
    if (o != job && jobs_[o].state.running) {
      assert(false && "KVMSR run_to_completion: another job is resident; "
                      "drive concurrent jobs with Machine::run_until");
      throw std::runtime_error("KVMSR: run_to_completion('" + jobs_.at(job).spec.name +
                               "') while job '" + jobs_[o].spec.name +
                               "' is resident; drive concurrent jobs with "
                               "Machine::run_until instead");
    }
  }
  launch_from_host(job, key_begin, key_end);
  m_.run();
  if (jobs_.at(job).state.running)
    throw std::runtime_error("KVMSR job '" + jobs_[job].spec.name +
                             "' did not terminate (machine went quiescent mid-job)");
  return jobs_.at(job).state;
}

void Library::emit(Ctx& ctx, JobId job, Word key, Word v0) {
  Job& j = jobs_.at(job);
  const NetworkId dst = reduce_lane(j, key);
  ctx.charge(2);  // binding hash + scratchpad emit counter
  ctx.shuffle_stats().tuples_emitted++;
  if (j.coalesce > 1) {
    const Word vals[1] = {v0};
    coalesce_emit(ctx, job, j, dst, key, vals, 1);
    return;
  }
  j.emitted_by_lane.at(ctx.nwid())++;
  ctx.sync_release(emitted_slot(job));
  ctx.send_event(evw::make_new(dst, j.spec.kv_reduce), {key, v0, job});
  count_tuple_message(ctx, dst, 3);
}

void Library::emit2(Ctx& ctx, JobId job, Word key, Word v0, Word v1) {
  Job& j = jobs_.at(job);
  const NetworkId dst = reduce_lane(j, key);
  ctx.charge(2);
  ctx.shuffle_stats().tuples_emitted++;
  if (j.coalesce > 1) {
    const Word vals[2] = {v0, v1};
    coalesce_emit(ctx, job, j, dst, key, vals, 2);
    return;
  }
  j.emitted_by_lane.at(ctx.nwid())++;
  ctx.sync_release(emitted_slot(job));
  ctx.send_event(evw::make_new(dst, j.spec.kv_reduce), {key, v0, v1, job});
  count_tuple_message(ctx, dst, 4);
}

// Shuffle-traffic accounting for one un-coalesced tuple message. Pure
// statistics — never touches timing, so the coalesce-off goldens stay
// bit-identical.
void Library::count_tuple_message(Ctx& ctx, NetworkId dst, std::uint32_t payload_words) {
  ShuffleStats& s = ctx.shuffle_stats();
  s.messages++;
  s.bytes += m_.config().msg_header_bytes + 8ull * payload_words;
  if (m_.node_of(ctx.nwid()) != m_.node_of(dst)) s.cross_node_messages++;
}

void Library::coalesce_emit(Ctx& ctx, JobId job, Job& j, NetworkId dst, Word key,
                            const Word* vals, std::uint32_t nvals) {
  LaneBufs& lb = j.bufs_by_lane.at(ctx.nwid());
  std::uint32_t slot;
  const auto it = lb.index.find(dst);
  if (it == lb.index.end()) {
    slot = static_cast<std::uint32_t>(lb.bufs.size());
    lb.bufs.push_back(EmitBuf{dst, nvals, 0, {}});
    lb.index.emplace(dst, slot);
  } else {
    slot = it->second;
  }
  EmitBuf& b = lb.bufs[slot];
  // emit/emit2 width mix on one destination: ship the old-width packet first.
  if (b.ntuples > 0 && b.nvals != nvals) flush_buffer(ctx, job, j, b);
  b.nvals = nvals;

  // Map-side combining: merge into an equal key already waiting in the
  // buffer. The merged tuple never becomes a reduce task, so it must NOT
  // bump the emitted counter — emitted == received stays exact.
  if (j.spec.combiner != Combiner::kNone && nvals == 1) {
    for (std::uint32_t t = 0; t < b.ntuples; ++t) {
      if (b.words[2 * t] == key) {
        b.words[2 * t + 1] = combine_values(j.spec, b.words[2 * t + 1], vals[0]);
        ctx.charge(1);  // probe hit: one scratchpad read-modify-write
        ctx.shuffle_stats().tuples_combined++;
        return;
      }
    }
  }

  b.words.push_back(key);
  for (std::uint32_t i = 0; i < nvals; ++i) b.words.push_back(vals[i]);
  b.ntuples++;
  j.emitted_by_lane.at(ctx.nwid())++;
  ctx.sync_release(emitted_slot(job));
  ctx.sync_release(buf_slot(job, dst));
  if (b.ntuples >= tuple_cap(j.coalesce, nvals)) flush_buffer(ctx, job, j, b);
}

void Library::flush_buffer(Ctx& ctx, JobId job, Job& j, EmitBuf& b) {
  if (b.ntuples == 0) return;
  // The acquire stamps the packet with a clock dominating every emitter that
  // appended to this buffer (see buf_slot) — the checker sees one HB edge
  // covering each packed tuple.
  ctx.sync_acquire(buf_slot(job, b.dst));
  ctx.send_event_bulk(evw::make_new(b.dst, kv_packet_), {job, b.ntuples, b.nvals},
                      b.words.data(), static_cast<std::uint32_t>(b.words.size()));
  ShuffleStats& s = ctx.shuffle_stats();
  s.messages++;
  s.coalesced_packets++;
  s.bytes += m_.config().msg_header_bytes + 8ull * (3 + b.words.size());
  if (m_.node_of(ctx.nwid()) != m_.node_of(b.dst)) s.cross_node_messages++;
  b.words.clear();
  b.ntuples = 0;
}

void Library::flush_lane(Ctx& ctx, JobId job) {
  Job& j = jobs_.at(job);
  if (j.coalesce <= 1) return;
  for (EmitBuf& b : j.bufs_by_lane.at(ctx.nwid()).bufs) flush_buffer(ctx, job, j, b);
}

void Library::map_return(Ctx& ctx, Word stored_cont) {
  ctx.send_event(stored_cont, {});
  ctx.yield_terminate();
}

void Library::reduce_return(Ctx& ctx, JobId job) {
  Job& j = jobs_.at(job);
  ctx.charge(1);  // scratchpad received counter
  j.received_by_lane.at(ctx.nwid())++;
  ctx.sync_release(received_slot(job));
  ctx.yield_terminate();
}

// ---------------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------------

void MasterThread::m_start(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  job = static_cast<JobId>(ctx.op(0));
  key_begin = ctx.op(1);
  key_end = ctx.op(2);
  cont = ctx.ccont();

  Library::Job& j = lib.jobs_.at(job);
  if (j.state.running)
    throw std::runtime_error("KVMSR: job '" + j.spec.name + "' launched while running");
  j.state.running = true;
  j.state.runs++;
  j.state.start_tick = ctx.start_time();
  j.state.map_done_tick = j.state.done_tick = 0;
  j.state.total_keys = key_end - key_begin;
  j.state.total_emitted = 0;
  j.state.poll_rounds = 0;
  j.state.cancelled = false;
  j.cancel = false;  // a relaunch of a previously cancelled job starts fresh
  backoff = 128;
  std::fill(j.emitted_by_lane.begin(), j.emitted_by_lane.end(), 0);
  std::fill(j.received_by_lane.begin(), j.received_by_lane.end(), 0);

  // udtrace spans live on the master lane: map from launch to the map
  // barrier, then shuffle-drain, then flush — the paper's phase anatomy.
  // Name construction is guarded so the trace-off path stays zero-cost.
  if (ctx.machine().tracer()) ctx.trace_phase_begin(j.spec.name + ":map");

  const LaneSet s = lib.resolved_lanes(j);

  switch (j.spec.map_binding) {
    case MapBinding::kBlock: {
      // Broadcast through one relay per node (the multi-level control tree
      // the paper's BFS artifact describes).
      const NetworkId set_end = s.first + s.count;
      for (std::uint32_t node = ctx.machine().node_of(s.first);
           node <= ctx.machine().node_of(set_end - 1); ++node) {
        const NetworkId node_first =
            std::max<NetworkId>(s.first, ctx.machine().first_lane_of_node(node));
        ctx.send_event(ctx.evw_new(node_first, lib.relay_start_),
                       {job, key_begin, key_end, s.first, s.count, ctx.cevnt()});
      }
      break;
    }
    case MapBinding::kPBMW: {
      // Partial block + master-worker: each lane starts with one chunk and
      // asks this master for more.
      pbmw_next = key_begin;
      for (std::uint32_t i = 0; i < s.count; ++i) {
        const std::uint64_t b = std::min(key_end, pbmw_next);
        const std::uint64_t e = std::min(key_end, b + j.spec.pbmw_chunk);
        pbmw_next = e;
        ctx.charge(1);
        ctx.send_event(ctx.evw_new(s.first + i, lib.w_start_), {job, b, e, ctx.cevnt()});
      }
      break;
    }
    case MapBinding::kDirect: {
      // One map task per key, placed by the user's map_home binding. Used
      // when tasks are few and location-sensitive (BFS per-accelerator
      // frontier masters).
      for (std::uint64_t k = key_begin; k < key_end; ++k) {
        ctx.charge(1);
        ctx.send_event(ctx.evw_new(j.spec.map_home(k), j.spec.kv_map), {k, job},
                       ctx.evw_update_event(ctx.cevnt(), lib.m_key_returned_));
      }
      if (key_begin == key_end) map_phase_complete(ctx);
      break;
    }
  }
}

void MasterThread::m_lane_map_done(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  const LaneSet s = lib.resolved_lanes(lib.jobs_.at(job));
  if (++lanes_done == s.count) map_phase_complete(ctx);
}

void MasterThread::m_key_returned(Ctx& ctx) {
  if (++keys_done == key_end - key_begin) map_phase_complete(ctx);
}

void MasterThread::map_phase_complete(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  j.state.map_done_tick = ctx.now();
  if (ctx.machine().tracer()) {
    ctx.trace_phase_end(j.spec.name + ":map");
    if (j.spec.kv_reduce != 0) ctx.trace_phase_begin(j.spec.name + ":drain");
  }
  if (j.spec.kv_reduce != 0)
    start_poll_round(ctx);
  else if (j.spec.flush != 0)
    start_flush(ctx);
  else
    finish(ctx);
}

void MasterThread::start_poll_round(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  const LaneSet s = lib.resolved_lanes(j);
  poll_replies = 0;
  poll_emitted = poll_received = 0;
  j.state.poll_rounds++;
  for (std::uint32_t i = 0; i < s.count; ++i) {
    ctx.charge(1);
    ctx.send_event(ctx.evw_new(s.first + i, lib.p_poll_), {job},
                   ctx.evw_update_event(ctx.cevnt(), lib.m_poll_reply_));
  }
}

void MasterThread::m_poll_reply(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  const LaneSet s = lib.resolved_lanes(j);
  poll_emitted += ctx.op(0);
  poll_received += ctx.op(1);
  if (++poll_replies < s.count) return;
  if (poll_emitted == poll_received) {
    j.state.total_emitted = poll_emitted;
    if (ctx.machine().tracer()) ctx.trace_phase_end(j.spec.name + ":drain");
    if (j.spec.flush != 0)
      start_flush(ctx);
    else
      finish(ctx);
  } else {
    // Tuples are still in flight; gather again after an exponentially
    // growing backoff, so short drains re-poll quickly while long-running
    // reduce phases do not saturate the master lane with polling.
    const Tick delay = std::min(backoff, j.spec.poll_backoff);
    backoff *= 2;
    ctx.send_event_delayed(ctx.evw_update_event(ctx.cevnt(), lib.m_poll_again_), {},
                           IGNRCONT, delay);
  }
}

void MasterThread::m_poll_again(Ctx& ctx) { start_poll_round(ctx); }

void MasterThread::start_flush(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  const LaneSet s = lib.resolved_lanes(j);
  flush_replies = 0;
  if (ctx.machine().tracer()) ctx.trace_phase_begin(j.spec.name + ":flush");
  for (std::uint32_t i = 0; i < s.count; ++i) {
    ctx.charge(1);
    ctx.send_event(ctx.evw_new(s.first + i, j.spec.flush), {job},
                   ctx.evw_update_event(ctx.cevnt(), lib.m_flush_done_));
  }
}

void MasterThread::m_flush_done(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  const LaneSet s = lib.resolved_lanes(lib.jobs_.at(job));
  if (++flush_replies == s.count) finish(ctx);
}

void MasterThread::finish(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  j.state.done_tick = ctx.now();
  j.state.cancelled = j.cancel;
  j.cancel = false;
  j.state.running = false;
  if (j.spec.flush != 0 && ctx.machine().tracer())
    ctx.trace_phase_end(j.spec.name + ":flush");
  if (cont != IGNRCONT) ctx.send_event(cont, {j.state.total_emitted});
  ctx.yield_terminate();
}

void MasterThread::m_pbmw_request(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  if (pbmw_next < key_end) {
    const std::uint64_t b = pbmw_next;
    const std::uint64_t e = std::min(key_end, b + j.spec.pbmw_chunk);
    pbmw_next = e;
    ctx.charge(2);
    ctx.send_reply({b, e, 1});
  } else {
    ctx.send_reply({0, 0, 0});
  }
}

// ---------------------------------------------------------------------------
// Relay + worker + poll agent
// ---------------------------------------------------------------------------

void RelayThread::relay(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  const JobId job_id = static_cast<JobId>(ctx.op(0));
  const std::uint64_t key_begin = ctx.op(1), key_end = ctx.op(2);
  const NetworkId set_first = static_cast<NetworkId>(ctx.op(3));
  const std::uint32_t set_count = static_cast<std::uint32_t>(ctx.op(4));
  const Word master = ctx.op(5);

  Machine& m = ctx.machine();
  const std::uint32_t node = m.node_of(ctx.nwid());
  const NetworkId node_first = m.first_lane_of_node(node);
  const NetworkId node_end = node_first + m.config().lanes_per_node();
  const NetworkId lo = std::max(set_first, node_first);
  const NetworkId hi = std::min<NetworkId>(set_first + set_count, node_end);

  const std::uint64_t total = key_end - key_begin;
  const std::uint64_t per = ceil_div(total, set_count);
  for (NetworkId lane = lo; lane < hi; ++lane) {
    const std::uint64_t i = lane - set_first;
    const std::uint64_t b = std::min(key_end, key_begin + i * per);
    const std::uint64_t e = std::min(key_end, b + per);
    ctx.charge(2);
    ctx.send_event(ctx.evw_new(lane, lib.w_start_), {job_id, b, e, master});
  }
  ctx.yield_terminate();
}

void WorkerThread::w_start(Ctx& ctx) {
  job = static_cast<JobId>(ctx.op(0));
  next = ctx.op(1);
  end = ctx.op(2);
  master = ctx.op(3);
  pump(ctx);
}

void WorkerThread::w_map_returned(Ctx& ctx) {
  --inflight;
  pump(ctx);
}

void WorkerThread::w_grant(Ctx& ctx) {
  waiting_grant = false;
  if (ctx.op(2) != 0) {
    next = ctx.op(0);
    end = ctx.op(1);
    pump(ctx);
  } else {
    no_more = true;
    maybe_finish(ctx);
  }
}

void WorkerThread::pump(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  if (j.cancel) {
    // Drain-to-cancel: forfeit the remaining key range (and any future PBMW
    // grants) so in-flight tasks retire and the normal termination gather
    // runs to done — the job ends cleanly, just early.
    next = end;
    no_more = true;
  }
  while (inflight < j.spec.max_inflight_per_lane && next < end) {
    ctx.charge(1);
    ctx.send_event(ctx.evw_new(ctx.nwid(), j.spec.kv_map), {next, job},
                   ctx.evw_update_event(ctx.cevnt(), lib.w_map_returned_));
    ++inflight;
    ++next;
  }
  if (next >= end && j.spec.map_binding == MapBinding::kPBMW && !waiting_grant && !no_more) {
    waiting_grant = true;
    ctx.send_event(evw::update_event(master, lib.m_pbmw_request_), {job},
                   ctx.evw_update_event(ctx.cevnt(), lib.w_grant_));
    return;
  }
  maybe_finish(ctx);
}

void WorkerThread::maybe_finish(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  const bool exhausted =
      next >= end && (j.spec.map_binding != MapBinding::kPBMW || no_more);
  if (exhausted && inflight == 0 && !waiting_grant) {
    // Map-task retirement flush: this lane's map work is done, so ship any
    // partially filled emit buffers before reporting map-done (poll-time
    // flushing alone would still be correct, just slower to drain).
    lib.flush_lane(ctx, job);
    ctx.send_event(evw::update_event(master, lib.m_lane_map_done_), {job});
    ctx.yield_terminate();
  }
}

void PollThread::p_poll(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  const JobId job_id = static_cast<JobId>(ctx.op(0));
  Library::Job& j = lib.jobs_.at(job_id);
  // Gather-barrier flush BEFORE the counter reads, in the same event: any
  // tuple still buffered on this lane is counted in emitted but cannot have
  // been received, so after this flush the sums can only agree once every
  // buffer in the set was empty at its poll — and each round flushes, which
  // guarantees progress. This is also the only flush point for lanes with no
  // WorkerThread (kDirect map binding, emits from UDWeave subtasks).
  lib.flush_lane(ctx, job_id);
  ctx.charge(3);  // two scratchpad counter loads + reply setup
  ctx.sync_acquire(emitted_slot(job_id));
  ctx.sync_acquire(received_slot(job_id));
  ctx.send_reply({j.emitted_by_lane.at(ctx.nwid()), j.received_by_lane.at(ctx.nwid())});
  ctx.yield_terminate();
}

void PacketThread::kv_packet(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  const JobId job_id = static_cast<JobId>(ctx.op(0));
  const std::uint32_t ntuples = static_cast<std::uint32_t>(ctx.op(1));
  const std::uint32_t nvals = static_cast<std::uint32_t>(ctx.op(2));
  Library::Job& j = lib.jobs_.at(job_id);
  const Word reduce_evw = evw::make_new(ctx.nwid(), j.spec.kv_reduce);
  std::uint32_t w = 0;
  for (std::uint32_t t = 0; t < ntuples; ++t) {
    ctx.charge(1);  // per-tuple unpack: operand copy + dispatch
    Word ops[kMaxOperands];
    ops[0] = ctx.bulk_op(w++);                                    // key
    for (std::uint32_t v = 0; v < nvals; ++v) ops[1 + v] = ctx.bulk_op(w++);
    ops[1 + nvals] = job_id;
    // Inline delivery: the reduce handler runs synchronously on this lane
    // with the exact operand layout of an un-coalesced tuple message, and
    // its charged cycles (plus the per-task Thread Yield) accrue to this
    // packet event — per-tuple cost parity with the uncoalesced shuffle.
    ctx.deliver_inline(reduce_evw, ops, 2 + nvals);
  }
  ctx.yield_terminate();
}

// ---------------------------------------------------------------------------

JobId do_all(Library& lib, EventLabel kv_map, LaneSet lanes, MapBinding binding) {
  JobSpec spec;
  spec.kv_map = kv_map;
  spec.kv_reduce = 0;
  spec.lanes = lanes;
  spec.map_binding = binding;
  spec.name = "do_all";
  return lib.add_job(std::move(spec));
}

}  // namespace updown::kvmsr
