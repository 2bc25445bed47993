// udcheck: dynamic analysis of the *simulated* UpDown machine.
//
// Because every DRAM word, scratchpad slot, allocation, thread context and
// message already flows through Machine/Ctx/GlobalMemory, the checker sees
// the complete message graph and the complete access stream — a TSan-style
// detector with total visibility on mediated state. Three analyses run
// together (see DESIGN.md "udcheck internals"):
//
//   1. Happens-before race detector. Each thread-context lifetime carries a
//      FastTrack-style clock: a single (lifetime, epoch) pair covers the
//      common same-lifetime chain, and a small sorted epoch vector is kept
//      only for the cross-lifetime knowledge a task actually acquires.
//      Lifetime ids come from a compact recycling allocator, so the id space
//      — and with it every clock entry and shadow stamp — stays dense.
//      Send->receive edges (messages, DRAM round trips, thread creation)
//      join clocks; each accessed DRAM word keeps a shadow cell (last writer
//      + readers since) in page-granular flat shadow arrays materialized on
//      first touch. Scratchpad accesses are lane-serialized by construction
//      and only race-checked under UD_CHECK_SP_STRICT.
//
//   2. Memory-lifetime sanitizer. dram_malloc/dram_free lifecycles come in
//      through the MemoryObserver interface; every DRAM request is validated
//      word-by-word against the live descriptor table, classifying misses as
//      use-after-free (freed-region hit) or out-of-bounds.
//
//   3. Event-protocol linter. Sends to dead or recycled thread contexts,
//      invalid event words, operand-count overflow, continuation words that
//      are never fired, and non-quiescent drains (leaked threads, leaked
//      allocations, undelivered messages).
//
// The checker is opt-in (UD_CHECK=1 or MachineConfig::check); when off, the
// simulator pays one null-pointer test per hook site. When on, clean runs
// keep golden determinism counts bit-identical: the checker never alters
// timing, routing, or statistics unless a violation is found (violating
// accesses/deliveries are suppressed so the simulation can continue and
// report instead of corrupting host memory or crashing).
//
// The engine calls one hook per site and never learns which of two modes
// the checker runs in; the mode is decided here, from the shard count. A
// serial engine is analyzed online, hook by hook. A sharded engine
// (UD_SHARDS > 1) is analyzed by *deferred window replay*: during the exec
// phase each hook appends a compact record to its shard's log, and at every
// window boundary shard 0 merges the completed window's records in the
// engine's own deterministic (tick, sending entity, sender seq) order and
// replays them through the same analysis core. Diagnostics are identical
// for any shard count (tests/check/test_checker.cpp, UdCheckModeParity),
// check-clean runs stay bit-identical, and cross-shard races are reported
// with both shards' stamps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/global_memory.hpp"
#include "sim/message.hpp"
#include "sim/stats.hpp"

namespace updown {

class Machine;
struct EngineShard;

enum class CheckKind : std::uint8_t {
  kDataRace,           ///< unordered DRAM write-write / read-write pair
  kSpRace,             ///< strict mode: HB-concurrent scratchpad conflict
  kOutOfBounds,        ///< access to a VA no descriptor covers
  kUseAfterFree,       ///< access to a retired (freed) region
  kBadFree,            ///< double free / free of a non-region address
  kSendToDeadThread,   ///< event addressed a dead thread context
  kStaleDelivery,      ///< thread context recycled between send and delivery
  kBadEventWord,       ///< invalid label / lane, or thread-class mismatch
  kOperandOverflow,    ///< >6 operands on a non-DRAM-reply message
  kLeakedThread,       ///< thread context still live at drain
  kUndeliveredMessages,///< queue not quiescent at report time
  kLeakedAllocation,   ///< live DRAM region at drain (warning)
  kUnfiredContinuation ///< delivered continuation word never sent (warning)
};

const char* check_kind_name(CheckKind k);

/// One structured violation record: enough context to locate the bug in the
/// event graph (tick, lane, event label, thread, address, allocation site).
struct CheckDiagnostic {
  CheckKind kind{};
  bool error = true;  ///< false: warning (does not affect CheckSummary::clean)
  Tick tick = 0;
  NetworkId lane = 0;
  ThreadId tid = 0;
  EventLabel label = 0;     ///< event executing (or sending) at detection
  Addr va = 0;              ///< faulting address (DRAM VA or scratchpad offset)
  std::uint64_t alloc_seq = 0;  ///< allocation site, when one is known
  std::string message;          ///< fully formatted human-readable report
};

/// One deferred-mode hook record. The hooks append these to the executing
/// shard's log during the exec phase (56B each, no heap traffic); shard 0
/// merges and replays them at the next window boundary. Group-begin kinds
/// carry the (t, ent, seq) queue key of the event being executed; all other
/// kinds are nested inside the most recent group of their shard's log.
struct CheckRec {
  enum Kind : std::uint8_t {
    kHostSend,        ///< group: a host injection (key = (now, host ent, seq))
    kBeginMsg,        ///< group: a message delivery popped from the queue
    kBeginDram,       ///< group: a DRAM request being serviced
    kRouteMsg,        ///< nested: a message was routed (same- or cross-shard)
    kRouteDram,       ///< nested: a DRAM request was routed
    kBadRoute,        ///< nested: event word addressed a lane beyond the machine
    kPreDeliverFail,  ///< nested: the open delivery was suppressed online
    kClassMismatch,   ///< nested: the open delivery hit a thread of another class
    kTaskBegin,       ///< nested: handler entered
    kTaskEnd,         ///< nested: handler returned
    kDramExec,        ///< nested: request serviced (b = online sanitize verdict)
    kDramFault,       ///< nested: sanitize fault details (follows kDramExec b=0)
    kDramReplyBegin,  ///< nested: reply message about to be routed
    kDramDone,        ///< nested: DRAM service complete
    kSpAccess,        ///< nested: scratchpad access (strict mode / OOB)
    kSyncRelease,     ///< nested: lane-local sync cell release
    kSyncAcquire,     ///< nested: lane-local sync cell acquire
    kInlineBegin,     ///< nested: deliver_inline opened a frame
    kInlineEnd        ///< nested: the inline frame closed (done or suppressed)
  };
  std::uint8_t kind = 0;
  std::uint8_t b = 0;
  std::uint16_t c = 0;
  std::uint32_t d = 0;
  std::uint64_t w[6] = {0, 0, 0, 0, 0, 0};
};

class Checker final : public MemoryObserver {
 public:
  Checker(Machine& m, bool sp_strict, std::uint32_t nshards);
  ~Checker() override;

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  bool sp_strict() const { return sp_strict_; }

  /// Payload-pool index of a send that has none: a cross-shard send travels
  /// by value through a mailbox (only sharded engines make those).
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // ---- Engine hooks ---------------------------------------------------------
  // One hook per engine site. Each takes what either mode needs: the
  // executing shard, the queue key (t, ent, seq) and payload of the event,
  // and its pool slot. A serial checker analyzes online and keeps per-slot
  // metadata; a sharded one appends a record to the shard's log and answers
  // the engine from engine-owned state only (lane liveness, the program
  // table, the shard's descriptor snapshot), so a check-clean sharded run
  // behaves exactly like an unchecked one. Suppressed deliveries and
  // accesses return false in both modes.

  /// The host (TOP core) is about to inject a message keyed (now, ent, seq).
  void on_host_send(Tick now, std::uint32_t ent, std::uint32_t seq);
  /// A message was routed (pooled in `slot`, or kNoSlot when cross-shard):
  /// stamp it with the sender's clock and lint the send (target liveness,
  /// operand count, continuation obligations).
  void on_route_message(EngineShard& sh, std::uint32_t ent, std::uint32_t seq,
                        const Message& m, std::uint32_t slot, Tick depart);
  /// A DRAM request was routed. `addr_mapped` is false when its base address
  /// has no live translation (checked mode routes it to node 0 instead of
  /// throwing, and the fault is classified at service time).
  void on_route_dram(EngineShard& sh, std::uint32_t ent, std::uint32_t seq,
                     const DramRequest& r, std::uint32_t slot, bool addr_mapped,
                     Tick depart);
  /// Event word addressed a lane beyond the machine; returns true when the
  /// send was reported and should be dropped.
  bool on_bad_route(EngineShard& sh, Word evw, Tick depart);

  /// Queue entry (t, ent, seq), pooled message `m` in `slot`, is about to be
  /// delivered at `start`; false => suppress (bad label, dead or recycled
  /// target; the violation is reported and the payload dropped).
  bool on_pre_deliver(EngineShard& sh, Tick t, std::uint32_t ent, std::uint32_t seq,
                      const Message& m, std::uint32_t slot, Tick start);
  /// Inline delivery (Machine::deliver_inline) of `m` inside the running
  /// task: routes and validates it like a sent message and opens a frame the
  /// checker owns; false => suppressed (the frame is already closed).
  bool on_inline_begin(EngineShard& sh, const Message& m, Tick start);
  /// The inline delivery opened by the matching on_inline_begin is done:
  /// close its frame and restore the caller's origin, so the caller's later
  /// sends stamp with the caller's clock again.
  void on_inline_end(EngineShard& sh);
  /// The delivery just validated (queued or inline) found a thread of another
  /// class; it is reported and suppressed.
  void on_class_mismatch(EngineShard& sh, NetworkId lane, ThreadId tid, Tick start);
  /// The validated delivery's handler is about to run: join the receiver's
  /// clock with the message stamp, register continuation obligations, open
  /// the task scope.
  void on_task_begin(EngineShard& sh, NetworkId lane, ThreadId tid, EventLabel label,
                     Tick start, bool new_thread);
  /// The handler returned; closes the task scope and retires the lifetime
  /// when the thread yielded-terminate.
  void on_task_end(EngineShard& sh, NetworkId lane, ThreadId tid, bool terminated);

  /// Queue entry (t, ent, seq), DRAM request `r` in `slot`, is being
  /// serviced: sanitize the address range and race-check each word at the
  /// requester's send-time clock. Returns false when the physical access must
  /// be suppressed (reads are zero-filled).
  bool on_dram_exec(EngineShard& sh, Tick t, std::uint32_t ent, std::uint32_t seq,
                    const DramRequest& r, std::uint32_t slot, Tick now);
  /// The serviced request is about to emit its reply message.
  void on_dram_reply(EngineShard& sh, std::uint32_t slot);
  /// Service complete (reply routed, if any); releases the in-flight stamp.
  void on_dram_done(EngineShard& sh, std::uint32_t slot);

  /// Scratchpad access from a running handler. Returns false when the access
  /// is out of bounds and must be suppressed (reads return 0).
  bool on_sp_access(EngineShard& sh, NetworkId lane, std::uint64_t offset,
                    std::size_t bytes, bool is_write, Tick now);

  /// Lane-local synchronization cells (Ctx::sync_release / sync_acquire):
  /// an atomic scratchpad counter or flag is a real happens-before edge the
  /// message graph cannot see — e.g. the KVMSR termination gather, where a
  /// reduce task bumps its lane's received counter and terminates without
  /// sending, and a later poll task on the same lane reads the counter and
  /// reports to the master. Release merges the running task's clock into the
  /// cell; acquire merges the cell into the running task.
  void on_sync_release(EngineShard& sh, NetworkId lane, std::uint64_t slot);
  void on_sync_acquire(EngineShard& sh, NetworkId lane, std::uint64_t slot);

  /// Shard 0, at a window boundary (between inbox merge and barrier A): merge
  /// all shards' completed-window records in (t, ent, seq) order and replay
  /// them through the serial analysis core. Also called once at run() exit as
  /// a drain safety net. A no-op when no records are pending (always, for a
  /// serial checker).
  void replay_pending();
  /// A run aborted: drop half-replayed window logs and stashed in-flight
  /// clock state so the next run starts clean.
  void reset_deferred();

  // ---- MemoryObserver (allocation lifecycle) ------------------------------
  void on_alloc(const SwizzleDescriptor& d) override;
  void on_free(const SwizzleDescriptor& d, std::uint64_t free_seq) override;
  void on_bad_free(Addr base, bool double_free, const std::string& detail) override;

  // ---- Reporting -----------------------------------------------------------
  /// Called by Machine::run() at quiescence: computes drain-state checks
  /// (leaked threads/allocations, unfired continuations), folds all counters
  /// into MachineStats::check, prints newly found diagnostics, and opens a
  /// new era (everything before a full drain happens-before everything
  /// after, so cross-phase host driving cannot produce false races).
  void report();

  /// Multi-tenant leak attribution: a host scheduler may install a callback
  /// mapping a lane to the name of the job whose partition owns it (empty =
  /// unowned). Leaked-thread diagnostics append the owner, so a leak in a
  /// concurrent-job run names the offending job instead of just a lane
  /// number. Host-side only (set while the engine is paused); purely a
  /// diagnostic decoration — counters and eras are unaffected.
  void set_lane_annotator(std::function<std::string(NetworkId)> fn) {
    lane_annotator_ = std::move(fn);
  }

  const std::vector<CheckDiagnostic>& diagnostics() const { return diags_; }

 private:
  /// Sharded engines are checked by deferred window replay: hooks log
  /// records online and shard 0 replays them at window boundaries.
  bool deferred() const { return nshards_ > 1; }

  // ---- Vector clocks -------------------------------------------------------
  // Lifetime ids are recycled through a free list, so the live id space stays
  // compact at any machine scale. Correctness of recycling rests on two
  // rules: (1) anything that must keep a lifetime's *identity* (shadow
  // stamps, in-flight message/DRAM metadata) holds a refcount, and an id is
  // only recycled once dead and unreferenced; (2) epoch counters continue
  // across occupancies and `base_epoch` records the boundary, so an un-
  // refcounted clock entry from an earlier occupancy is recognizably stale
  // (its epoch is below base_epoch) and can never falsely order against the
  // current occupant.
  using LifetimeId = std::uint32_t;
  static constexpr LifetimeId kHostLifetime = 0;
  static constexpr LifetimeId kNoLifetime = 0xFFFFFFFFu;

  struct VCEntry {
    LifetimeId lt;
    std::uint32_t epoch;
  };
  using VC = std::vector<VCEntry>;  ///< sorted by lt
  static constexpr VCEntry kNoEntry{kNoLifetime, 0};

  /// The inline portion of an effective clock: the two most recently acquired
  /// entries, held outside the pool. Two slots because the dominant delivery
  /// shape (a task spawned by a task that was itself just spawned) hands the
  /// receiver its parent's stamp plus the parent's own inline knowledge — the
  /// grandparent. One slot would spill to the pooled clock on roughly every
  /// other hop of a spawn chain, and a single spill is contagious: every
  /// descendant then inherits a non-empty snapshot and pays the merge scan.
  /// e0 is older than e1; spills evict e0.
  struct InlineVC {
    VCEntry e0 = kNoEntry;
    VCEntry e1 = kNoEntry;
  };

  // ---- Snapshot pool -------------------------------------------------------
  // Clocks are immutable, refcounted VCs held in a pooled slab and addressed
  // by index. A lifetime's clock, the snapshots pinned to in-flight messages
  // and DRAM requests, and the replay's origin state all share slots, so a
  // send is a refcount bump (no copy) and a join builds its result in a
  // recycled buffer — the message hot path allocates nothing in steady state.
  // kNoSnap denotes the empty clock.
  using SnapId = std::uint32_t;
  static constexpr SnapId kNoSnap = 0xFFFFFFFFu;
  struct SnapSlot {
    VC vc;
    std::uint32_t refs = 0;
  };

  /// One thread-context lifetime (allocate_thread .. deallocate_thread).
  /// Same-lifetime events are serialized by the lane, so a lifetime is one
  /// chain in the happens-before chain decomposition; its own position is the
  /// implicit (id, epoch) FastTrack pair and `clock` holds only acquired
  /// cross-lifetime knowledge.
  struct Lifetime {
    SnapId clock = kNoSnap;  ///< knowledge of *other* lifetimes (self implicit)
    /// FastTrack fast path: the most recently acquired stamps, held inline.
    /// The dominant deliveries (fresh thread, repeat sender, spawn chain)
    /// absorb the sender's knowledge here without touching the pool; only
    /// genuine fan-in (a third concurrent edge) spills into the pooled clock.
    /// The effective clock is snap_vc(clock) ∪ last ∪ {(host, host_ep)}.
    InlineVC last;
    /// Knowledge of the host chain, hoisted out of the VCs. The host lifetime
    /// never dies, so a (host, e) entry would never prune — one immortal
    /// entry in every clock would force the slow merge path on every hop.
    std::uint32_t host_ep = 0;
    std::uint32_t epoch = 1;       ///< bumped after every send (release)
    std::uint32_t base_epoch = 0;  ///< first epoch of the current occupancy
    std::uint32_t refs = 0;        ///< shadow stamps + in-flight metadata
    bool alive = true;
    bool retired = false;  ///< id parked on the free list
    NetworkId nwid = 0;
    ThreadId tid = 0;
    EventLabel create_label = 0;
    Tick created_at = 0;
    std::uint64_t create_seq = 0;  ///< global thread-creation order (1-based)
  };

  /// A clock reading attached to a message / DRAM request / shadow cell.
  struct Stamp {
    LifetimeId lt = kNoLifetime;
    std::uint32_t epoch = 0;
    std::uint32_t era = 0;
    EventLabel label = 0;      ///< event that produced the stamp (diagnostics)
    std::uint16_t shard = 0;   ///< engine shard that executed it (diagnostics)
    Tick tick = 0;
  };

  struct MsgMeta {
    Stamp stamp;
    SnapId snap = kNoSnap;  ///< sender's pooled clock at send time (one pool ref)
    InlineVC ext;           ///< sender's inline `last` entries (un-refcounted)
    std::uint32_t host_ep = 0;  ///< sender's host-chain knowledge
    LifetimeId target = kNoLifetime;  ///< expected lifetime of an existing target
    bool from_dram = false;
    bool cont_pending = false;  ///< cont word is a live obligation in transit
    bool suppress = false;      ///< reported at send; drop silently on arrival
    bool holds_refs = false;    ///< stamp.lt / target are refcount-pinned
  };

  struct DramMeta {
    Stamp stamp;
    SnapId snap = kNoSnap;  ///< requester's pooled clock at issue (one pool ref)
    InlineVC ext;           ///< requester's inline `last` entries (un-refcounted)
    std::uint32_t host_ep = 0;  ///< requester's host-chain knowledge
    bool addr_mapped = true;
    bool cont_pending = false;
    bool holds_ref = false;  ///< we incref'd stamp.lt for the flight
  };

  // ---- Shadow memory -------------------------------------------------------
  // Flat page-granular shadow arrays, materialized on first touch (the same
  // discipline LaneTable uses for lane cores): a DRAM word's cell is two
  // array indexations instead of a hash probe, and a multi-word request
  // resolves its page once per crossing instead of hashing per word. The
  // common cell holds its readers inline (one slot); genuinely contended
  // cells promote to a pooled overflow list.
  struct ShadowCell {
    Stamp write;
    Stamp read0;  ///< inline reader slot (lt == kNoLifetime => empty)
    std::uint32_t overflow = 0xFFFFFFFFu;  ///< reader_pool_ index, or none
  };
  static constexpr std::uint32_t kNoOverflow = 0xFFFFFFFFu;
  static constexpr unsigned kShadowPageShift = 9;  ///< 512 words (4 KiB VA) per page
  static constexpr std::size_t kShadowPageWords = 1u << kShadowPageShift;
  struct ShadowPage {
    ShadowCell cells[kShadowPageWords];
  };
  static constexpr std::size_t kMaxReaders = 8;

  struct PendingCont {
    std::uint32_t count = 0;
    Tick first_tick = 0;
    NetworkId lane = 0;  ///< lane that received the obligation first
    EventLabel label = 0;
  };

  // Clock algebra.
  static std::uint32_t vc_get(const VC& vc, LifetimeId lt);
  bool prunable(LifetimeId lt) const;
  /// A clock entry that can never order anything again: its lifetime is dead
  /// and unreferenced, or the entry predates the id's current occupancy.
  bool dead_entry(const VCEntry& e) const;
  /// Would a pointwise-max merge of `src` into `dst` (skipping `self`,
  /// pruning dead/stale entries) change `dst`? Scan-only, allocates nothing.
  bool merge_would_change(const VC& dst, const VC& src, LifetimeId self) const;
  /// Append the merged (pointwise max, `self` skipped, dead entries pruned)
  /// clock of `dst` and `src` to `out`. `out` must not alias either input.
  void merge_build(VC& out, const VC& dst, const VC& src, LifetimeId self) const;
  /// Sorted merge of `src` into `dst` via the scratch buffer; returns whether
  /// `dst` changed. Used for the mutable sync-cell clocks only — lifetime
  /// clocks are immutable pool snapshots rebuilt by clock_join.
  bool merge_vc(VC& dst, const VC& src, LifetimeId self);
  /// Raise `vc[lt]` to at least `epoch`; returns whether `vc` changed.
  static bool vc_upsert(VC& vc, LifetimeId lt, std::uint32_t epoch);

  // Snapshot pool plumbing. snap_ref/snap_unref accept kNoSnap (no-ops); a
  // slot whose refcount hits zero parks on the free list with its buffer
  // intact, so steady-state joins recycle capacity instead of calling malloc.
  const VC& snap_vc(SnapId id) const;
  void snap_ref(SnapId id);
  void snap_unref(SnapId id);
  SnapId snap_new();  ///< fresh slot, refs = 1, empty (capacity-retaining) vc
  void snap_clear(SnapId& slot);                ///< unref + reset to kNoSnap
  void snap_assign(SnapId& slot, SnapId v);     ///< ref-maintaining overwrite
  /// Rebuild `lt`'s immutable pooled clock as clock ∪ src (∪ {stamp} if
  /// non-null), if that changes it; the old clock is released to the pool.
  void clock_join(LifetimeId lt, const VC& src, const Stamp* stamp);
  /// Absorb one clock entry into `dst`'s effective clock, preferring the
  /// inline `last` slots (no pool op); genuine fan-in beyond two live edges
  /// spills the oldest slot into the pooled clock.
  void absorb(LifetimeId dst, VCEntry e);
  /// Drop dead/stale entries from `vc` in place (exclusive slots only).
  void prune_dead(VC& vc) const;
  /// Join a message's clock view into `dst`. `snap` is OWNED: the caller's
  /// pool ref transfers in (adopted by a fresh receiver, or released).
  void join_into(LifetimeId dst, SnapId snap, const InlineVC& ext,
                 std::uint32_t host_ep, const Stamp& src);
  /// The sender's current pooled clock as a pool reference (caller owns one
  /// ref); the inline remainder of the effective clock is its `last` pair.
  SnapId clock_snapshot(LifetimeId lt);
  /// A borrowed view of an effective clock: pooled VC ∪ ext ∪ {(host,
  /// host_ep)}. Built on the stack from a lifetime or in-flight metadata.
  struct ClockView {
    const VC* vc;
    InlineVC ext;
    std::uint32_t host_ep;
  };

  /// Is stamp `a` ordered before an observer whose effective clock is
  /// (`lt`, `view`)?
  bool ordered(const Stamp& a, LifetimeId lt, const ClockView& view) const;

  void stamp_ref(LifetimeId lt);
  void stamp_unref(LifetimeId lt);
  void set_stamp(Stamp& slot, const Stamp& s);   ///< ref-maintaining overwrite
  void add_reader(ShadowCell& cell, const Stamp& s, const ClockView& view);
  void clear_readers(ShadowCell& cell);

  LifetimeId new_lifetime(NetworkId nwid, ThreadId tid, EventLabel label, Tick t);
  /// Park a dead, unreferenced lifetime's id on the free list; records the
  /// occupancy boundary (base_epoch) and releases the thread-slot mapping.
  void retire(LifetimeId lt);
  void maybe_retire(LifetimeId lt);
  LifetimeId& slot_lifetime(NetworkId nwid, ThreadId tid);
  bool slot_alive(NetworkId nwid, ThreadId tid) const;

  // Shadow cell addressing (first-touch materialization).
  ShadowPage& dram_page(std::uint64_t page);
  ShadowCell& sp_cell(NetworkId lane, std::uint64_t word);
  void note_shadow_bytes(std::uint64_t bytes);

  /// Race-check + update one shadow cell; `cur`'s effective clock is
  /// (`cur.lt`, `view`).
  void check_access(ShadowCell& cell, const Stamp& cur, const ClockView& view,
                    bool is_write, bool is_sp, Addr va);
  /// Race-check a word run of a DRAM request (shared by the serial hook and
  /// the deferred replay).
  void dram_race_words(DramMeta& meta, Addr addr, unsigned nwords, bool is_write,
                       Tick now);
  /// Lifetime sanitize: every word of `r` must fall in a live region (a
  /// request may span adjacent regions only if all are live). False sets
  /// `bad_va` to the first word no live descriptor covers.
  bool dram_mapped(EngineShard& sh, const DramRequest& r, Addr& bad_va) const;
  /// UAF/OOB diagnostic for a sanitize fault (freed == nullptr => OOB).
  void dram_fault_diag(const Stamp& s, unsigned nwords, bool is_write, Addr va,
                       const FreedRegion* freed, Tick now);
  /// Serial scratchpad access path (bounds + optional strict race check).
  bool sp_access_check(NetworkId lane, std::uint64_t offset, std::size_t bytes,
                       bool is_write, Tick now);
  void sync_release_check(NetworkId lane, std::uint64_t slot);
  void sync_acquire_check(NetworkId lane, std::uint64_t slot);

  // Analysis core, metadata-addressed: the hooks (online, with per-slot
  // metadata and the payload the engine passes in) and the deferred replay
  // (with metadata from the (ent, seq) stash and payloads rebuilt from log
  // records) both drive these. Neither reads the engine's payload pools.
  void route_message_m(MsgMeta& meta, const Message& m, Tick depart);
  void route_dram_m(DramMeta& meta, const DramRequest& r, bool addr_mapped, Tick depart);
  bool pre_deliver_m(MsgMeta& meta, const Message& m, Tick start);
  void class_mismatch_m(MsgMeta& meta, const Message& m, NetworkId lane, ThreadId tid,
                        Tick start);
  void task_begin_m(MsgMeta& meta, const Message& m, NetworkId lane, ThreadId tid,
                    EventLabel label, Tick start, bool new_thread);
  void task_end(NetworkId lane, ThreadId tid, bool terminated);
  void begin_dram_reply_m(DramMeta& meta);
  void dram_done_m(DramMeta& meta);
  void bad_route_diag(Word evw, Tick depart);
  /// Open an inline delivery's frame: save the caller's origin beneath it,
  /// route and validate the message. Returns the pre-deliver verdict; the
  /// frame stays open either way until close_inline.
  bool open_inline(const Message& m, Tick start);
  /// Close the innermost inline frame and restore the caller's origin.
  void close_inline();
  /// Drop every open inline frame and the routing origin (group end, abort).
  void clear_origin();

  // Meta lifecycle. Message metadata pins both the sender's lifetime (so
  // diagnostics after delivery still name the true sender) and the expected
  // target lifetime (so an id recycled while the message is in flight cannot
  // alias the staleness check). Release is idempotent.
  void acquire_msg_refs(MsgMeta& meta);
  void release_msg_meta(MsgMeta& meta);

  // Continuation obligations.
  void register_cont(Word cont, NetworkId lane, Tick t);
  bool discharge_cont(Word w);

  // Diagnostics.
  void diag(CheckDiagnostic d);
  std::string ev_name(EventLabel label) const;
  std::string where(const Stamp& s) const;

  MsgMeta& msg_meta(std::uint32_t idx);
  DramMeta& dram_meta(std::uint32_t idx);

  // Deferred-mode internals.
  std::vector<CheckRec>& log_of(EngineShard& sh);
  /// The engine's suppression verdict for a delivery, from engine-owned
  /// state only (program table, lane liveness): a sharded checker's online
  /// answer, since its own analysis trails execution by a window.
  bool deliverable(const Message& m) const;
  void replay_group(std::uint32_t shard, const std::vector<CheckRec>& log,
                    std::size_t begin, std::size_t end);
  void drain_bad_frees();

  Machine& m_;
  const bool sp_strict_;
  const std::uint32_t nshards_;

  std::vector<Lifetime> lifetimes_;  ///< index = LifetimeId; [0] is the host
  std::vector<LifetimeId> free_ids_; ///< retired ids awaiting reuse
  std::uint64_t create_seq_ = 0;     ///< thread-creation counter (leak diags)
  std::vector<std::vector<LifetimeId>> slot_lt_;  ///< per lane, per tid (lazy rows)
  std::uint32_t era_ = 1;  ///< bumped at every full drain (report)

  // Origin of the message/request currently being routed. The analysis core
  // is single-threaded (serial engine, or the replay on shard 0), so one
  // scoped origin per Machine suffices.
  enum class Origin : std::uint8_t { kNone, kHost, kTask, kDramReply };
  Origin origin_ = Origin::kNone;
  Stamp origin_stamp_;       ///< valid for kTask (current task's lifetime)
  SnapId origin_snap_ = kNoSnap;  ///< valid for kDramReply (one pool ref)
  InlineVC origin_ext_;      ///< valid for kDramReply (inline entries)
  std::uint32_t origin_host_ep_ = 0;  ///< valid for kDramReply
  bool origin_cont_pending_ = false;  ///< valid for kDramReply

  /// One open inline delivery (Machine::deliver_inline), in either mode:
  /// the synthetic message, its in-flight metadata, and the caller's origin
  /// to restore when the frame closes. The saved stamp carries no refcount;
  /// the saved snap slot's pool ref moves with the save. Nesting depth
  /// follows the inline call depth.
  struct Frame {
    Message m;
    MsgMeta meta;
    Origin origin = Origin::kNone;
    Stamp stamp;
    SnapId snap = kNoSnap;
    InlineVC ext;
    std::uint32_t host_ep = 0;
    bool cont_pending = false;
  };
  std::vector<Frame> frames_;

  /// The delivery validated last (a pooled message's slot metadata, an
  /// inline frame, or a replayed group's message), consumed by the class-
  /// mismatch / task-begin hook that follows it. Nothing routes in between,
  /// so the pointers stay valid.
  MsgMeta* dlv_meta_ = nullptr;
  const Message* dlv_msg_ = nullptr;

  std::vector<MsgMeta> msg_meta_;
  std::vector<DramMeta> dram_meta_;

  // Snapshot pool (see SnapSlot above) and the shared merge scratch buffer.
  std::vector<SnapSlot> snap_pool_;
  std::vector<SnapId> snap_free_;
  VC scratch_vc_;
  VC sync_scratch_vc_;  ///< host-stripped sync-cell clock (acquire slow path)

  // Flat shadow directories (first-touch pages; see ShadowPage above).
  std::vector<std::unique_ptr<ShadowPage>> dram_shadow_;  ///< [va >> 3 >> 9]
  std::vector<std::unique_ptr<std::vector<ShadowCell>>> sp_shadow_;  ///< per lane
  std::vector<std::vector<Stamp>> reader_pool_;  ///< overflow reader lists
  std::vector<std::uint32_t> reader_pool_free_;
  std::uint64_t shadow_bytes_ = 0;       ///< resident shadow bytes right now
  std::uint64_t shadow_peak_bytes_ = 0;  ///< high-water mark across the run

  std::unordered_map<std::uint64_t, VC> sync_clocks_;  ///< (lane<<32)|slot

  std::unordered_map<Word, PendingCont> pending_conts_;

  // Deferred (sharded) mode: per-shard hook logs, in-flight clock state keyed
  // by the sender's (entity, seq) identity, and the shard currently being
  // replayed (stamped into clocks for cross-shard race attribution).
  std::vector<std::vector<CheckRec>> logs_;
  std::unordered_map<std::uint64_t, MsgMeta> msg_stash_;
  struct DramStash {
    DramMeta meta;
    Addr addr = 0;
    std::uint8_t nwords = 0;
    bool is_write = false;
  };
  std::unordered_map<std::uint64_t, DramStash> dram_stash_;
  std::uint16_t replay_shard_ = 0;

  /// Bad-free reports can arrive from any shard thread (a task calling
  /// dram_free); they are queued under a mutex and folded in at report time.
  struct BadFree {
    Addr base;
    bool double_free;
    std::string head;
    Tick tick;
  };
  std::mutex bad_free_mu_;
  std::vector<BadFree> bad_free_pending_;

  CheckSummary counts_;
  std::vector<CheckDiagnostic> diags_;
  std::function<std::string(NetworkId)> lane_annotator_;  ///< lane -> owning job
  std::vector<LifetimeId> leak_reported_;  ///< leaked threads already flagged
  std::vector<Word> cont_reported_;        ///< unfired conts already flagged
  static constexpr std::size_t kMaxStoredDiags = 256;
  std::uint64_t dropped_diags_ = 0;
};

}  // namespace updown
