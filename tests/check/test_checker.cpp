// Seeded-violation tests for udcheck (src/check/): each test injects one
// bug class into a tiny program and asserts the checker catches it with the
// right kind and enough context (tick, lane, label, address) to locate it.
#include "check/checker.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "udweave/context.hpp"

namespace updown {
namespace {

/// Pin an environment variable for one test (see tests/sim/test_determinism.cpp):
/// the cross-shard race test must run at UD_SHARDS=4 regardless of ambience.
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

MachineConfig checked_config() {
  MachineConfig cfg = MachineConfig::scaled(1);
  cfg.check = true;
  return cfg;
}

const CheckDiagnostic* find_kind(Machine& m, CheckKind kind) {
  for (const CheckDiagnostic& d : m.checker()->diagnostics())
    if (d.kind == kind) return &d;
  return nullptr;
}

// ---------------------------------------------------------------------------
// 1. Data race: two threads, launched with no ordering between them, write
//    the same DRAM word.
// ---------------------------------------------------------------------------

struct RaceApp {
  EventLabel writer = 0;
  Addr va = 0;
};

struct TRaceWriter : ThreadState {
  void w(Ctx& ctx) {
    ctx.send_dram_write(ctx.machine().user<RaceApp>().va, {ctx.op(0)});
    ctx.yield_terminate();
  }
};

TEST(UdCheck, DetectsDramDataRace) {
  Machine m(checked_config());
  RaceApp& app = m.emplace_user<RaceApp>();
  app.writer = m.program().event("seed::race_w", &TRaceWriter::w);
  app.va = m.memory().dram_malloc_spread(256);
  // Two independent host launches on different lanes: neither write is
  // ordered before the other.
  m.send_from_host(evw::make_new(0, app.writer), {1});
  m.send_from_host(evw::make_new(1, app.writer), {2});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_TRUE(c.enabled);
  EXPECT_GE(c.data_races, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kDataRace);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->error);
  EXPECT_EQ(d->va, app.va);
  EXPECT_GT(d->tick, 0u);
  EXPECT_NE(d->message.find("seed::race_w"), std::string::npos);
}

// The same seeded race across engine shards: a 4-node machine at UD_SHARDS=4
// puts each writer's node on its own shard, so the conflicting accesses are
// recorded in different shard logs and only meet in the window-boundary
// replay. The race must still be caught, and the diagnostic must attribute
// both sides to their shards.
TEST(UdCheck, DetectsCrossShardDramDataRace) {
  EnvGuard g("UD_SHARDS", "4");
  MachineConfig cfg = MachineConfig::scaled(4);
  cfg.check = true;
  Machine m(cfg);
  RaceApp& app = m.emplace_user<RaceApp>();
  app.writer = m.program().event("seed::race_w", &TRaceWriter::w);
  app.va = m.memory().dram_malloc_spread(256);
  // Lane 0 lives on node 0 (shard 0); the first lane of the last node lives
  // on shard 3 under the round-robin node->shard partition.
  const std::uint32_t far_lane = 3 * cfg.lanes_per_node();
  m.send_from_host(evw::make_new(0, app.writer), {1});
  m.send_from_host(evw::make_new(far_lane, app.writer), {2});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_TRUE(c.enabled);
  EXPECT_GE(c.data_races, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kDataRace);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->va, app.va);
  // Both shards' stamps: the diagnostic names the executing shard of each
  // side of the race.
  EXPECT_NE(d->message.find("[shard 0]"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("[shard 3]"), std::string::npos) << d->message;
}

// ---------------------------------------------------------------------------
// 2. Use-after-free: a task reads a region the host already dram_free'd.
// ---------------------------------------------------------------------------

struct UafApp {
  EventLabel read = 0, got = 0;
};

struct TUafReader : ThreadState {
  void read(Ctx& ctx) {
    ctx.send_dram_read(static_cast<Addr>(ctx.op(0)), 1,
                       ctx.machine().user<UafApp>().got);
  }
  void got(Ctx& ctx) { ctx.yield_terminate(); }
};

TEST(UdCheck, DetectsUseAfterFree) {
  Machine m(checked_config());
  UafApp& app = m.emplace_user<UafApp>();
  app.read = m.program().event("seed::uaf_read", &TUafReader::read);
  app.got = m.program().event("seed::uaf_got", &TUafReader::got);
  const Addr va = m.memory().dram_malloc_spread(256);
  m.memory().dram_free(va);
  m.send_from_host(evw::make_new(0, app.read), {va});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_GE(c.use_after_free, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kUseAfterFree);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->va, va);
  EXPECT_GT(d->alloc_seq, 0u);  // points at the retired allocation site
  EXPECT_NE(d->message.find("freed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 3. Send to a dead thread: a victim hands out its event word, terminates,
//    and a peer then addresses the dead context.
// ---------------------------------------------------------------------------

struct DeadSendApp {
  EventLabel spawn = 0, victim = 0, got = 0, nop = 0;
};

struct TDeadSpawner : ThreadState {
  void spawn(Ctx& ctx) {
    DeadSendApp& app = ctx.machine().user<DeadSendApp>();
    ctx.send_event(ctx.evw_new(ctx.nwid(), app.victim), {},
                   ctx.evw_update_event(ctx.cevnt(), app.got));
  }
  void got(Ctx& ctx) {
    // op(0) is the victim's event word; the victim terminated after replying.
    DeadSendApp& app = ctx.machine().user<DeadSendApp>();
    ctx.send_event(evw::update_event(static_cast<Word>(ctx.op(0)), app.nop), {});
    ctx.yield_terminate();
  }
  void nop(Ctx& ctx) { ctx.yield_terminate(); }
};

struct TDeadVictim : ThreadState {
  void v(Ctx& ctx) {
    ctx.send_reply({ctx.cevnt()});
    ctx.yield_terminate();
  }
};

TEST(UdCheck, DetectsSendToDeadThread) {
  Machine m(checked_config());
  DeadSendApp& app = m.emplace_user<DeadSendApp>();
  app.spawn = m.program().event("seed::dead_spawn", &TDeadSpawner::spawn);
  app.got = m.program().event("seed::dead_got", &TDeadSpawner::got);
  app.nop = m.program().event("seed::dead_nop", &TDeadSpawner::nop);
  app.victim = m.program().event("seed::dead_victim", &TDeadVictim::v);
  m.send_from_host(evw::make_new(0, app.spawn), {});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_GE(c.dead_thread_sends, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kSendToDeadThread);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("seed::dead_nop"), std::string::npos);
  EXPECT_NE(d->message.find("seed::dead_got"), std::string::npos);  // the sender
}

// ---------------------------------------------------------------------------
// 4. Leaked thread: a handler returns (implicit yield) and nothing ever
//    addresses the context again — surfaced at drain.
// ---------------------------------------------------------------------------

struct LeakApp {
  EventLabel leak = 0;
};

struct TLeaker : ThreadState {
  void leak(Ctx&) {}  // returns without yield_terminate: context stays live
};

TEST(UdCheck, DetectsLeakedThreadAtDrain) {
  Machine m(checked_config());
  LeakApp& app = m.emplace_user<LeakApp>();
  app.leak = m.program().event("seed::leak", &TLeaker::leak);
  m.send_from_host(evw::make_new(0, app.leak), {});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_EQ(c.leaked_threads, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kLeakedThread);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->lane, 0u);
  // Thread lifetimes carry an alloc-site sequence number (creation #N), the
  // same idea as dram_malloc's alloc #N, so the leak points at its spawn.
  EXPECT_GT(d->alloc_seq, 0u);
  EXPECT_NE(d->message.find("creation #"), std::string::npos);
  EXPECT_NE(d->message.find("seed::leak"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Supporting classes: out-of-bounds, bad free, unfired continuation.
// ---------------------------------------------------------------------------

TEST(UdCheck, DetectsOutOfBoundsDramAccess) {
  Machine m(checked_config());
  UafApp& app = m.emplace_user<UafApp>();
  app.read = m.program().event("seed::oob_read", &TUafReader::read);
  app.got = m.program().event("seed::oob_got", &TUafReader::got);
  m.send_from_host(evw::make_new(0, app.read), {0x100});  // below the VA brk
  m.run();

  EXPECT_GE(m.stats().check.out_of_bounds, 1u);
  const CheckDiagnostic* d = find_kind(m, CheckKind::kOutOfBounds);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->va, 0x100u);
}

TEST(UdCheck, RecordsDoubleFree) {
  Machine m(checked_config());
  const Addr va = m.memory().dram_malloc_spread(256);
  m.memory().dram_free(va);
  EXPECT_THROW(m.memory().dram_free(va), BadFreeError);
  m.run();  // empty queue: report immediately
  EXPECT_GE(m.stats().check.bad_frees, 1u);
  EXPECT_NE(find_kind(m, CheckKind::kBadFree), nullptr);
}

struct TDropCont : ThreadState {
  void drop(Ctx& ctx) { ctx.yield_terminate(); }  // never fires ccont()
};

TEST(UdCheck, WarnsOnUnfiredContinuation) {
  Machine m(checked_config());
  LeakApp& app = m.emplace_user<LeakApp>();
  app.leak = m.program().event("seed::drop_cont", &TDropCont::drop);
  const EventLabel sink = m.program().event("seed::cont_sink", &TDropCont::drop);
  m.send_from_host(evw::make_new(0, app.leak), {}, evw::make_new(0, sink));
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_GE(c.unfired_continuations, 1u);
  EXPECT_EQ(c.errors(), 0u);  // a warning: clean() still holds
  EXPECT_TRUE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kUnfiredContinuation);
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->error);
  EXPECT_NE(d->message.find("seed::cont_sink"), std::string::npos);
}


// ---------------------------------------------------------------------------
// Mode parity: the serial checker (online analysis) and the sharded checker
// (per-shard logs replayed at window boundaries) must report the same
// diagnostics for the same program. Each scenario runs on a 4-node machine
// at UD_SHARDS=1 and at UD_SHARDS=4 (one shard per node) with its threads
// spread over several nodes, so sends and DRAM traffic cross shards. The
// formatted message is left out of the comparison: sharded race reports
// carry "[shard N]" tags.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kParityNodes = 4;

/// First lane of `node` on the parity machine.
NetworkId node_lane(std::uint32_t node) {
  return node * MachineConfig::scaled(kParityNodes).lanes_per_node();
}

std::vector<std::string> diag_rows(Machine& m) {
  std::vector<std::string> rows;
  for (const CheckDiagnostic& d : m.checker()->diagnostics())
    rows.push_back(strfmt("%s error=%d tick=%llu lane=%u tid=%u label=%u va=0x%llx "
                          "alloc_seq=%llu",
                          check_kind_name(d.kind), d.error ? 1 : 0,
                          static_cast<unsigned long long>(d.tick), d.lane, d.tid,
                          d.label, static_cast<unsigned long long>(d.va),
                          static_cast<unsigned long long>(d.alloc_seq)));
  return rows;
}

std::vector<std::string> run_parity(const char* shards, std::uint32_t expect_shards,
                                    const std::function<void(Machine&)>& seed) {
  EnvGuard g("UD_SHARDS", shards);
  MachineConfig cfg = MachineConfig::scaled(kParityNodes);
  cfg.check = true;
  Machine m(cfg);
  EXPECT_EQ(m.shards(), expect_shards);
  seed(m);
  m.run();
  return diag_rows(m);
}

/// Run `seed` in both checker modes; the serial run must report `expected`
/// and the sharded run must report exactly the same rows in the same order.
void expect_mode_parity(CheckKind expected, const std::function<void(Machine&)>& seed) {
  const std::vector<std::string> serial = run_parity("1", 1, seed);
  const std::vector<std::string> sharded = run_parity("4", kParityNodes, seed);
  const std::string kind = check_kind_name(expected);
  bool found = false;
  for (const std::string& r : serial) found = found || r.rfind(kind + " ", 0) == 0;
  EXPECT_TRUE(found) << "serial run did not report " << kind;
  EXPECT_EQ(serial, sharded);
}

TEST(UdCheckModeParity, DataRace) {
  expect_mode_parity(CheckKind::kDataRace, [](Machine& m) {
    RaceApp& app = m.emplace_user<RaceApp>();
    app.writer = m.program().event("seed::race_w", &TRaceWriter::w);
    app.va = m.memory().dram_malloc_spread(256);
    m.send_from_host(evw::make_new(node_lane(0), app.writer), {1});
    m.send_from_host(evw::make_new(node_lane(3), app.writer), {2});
  });
}

TEST(UdCheckModeParity, UseAfterFree) {
  expect_mode_parity(CheckKind::kUseAfterFree, [](Machine& m) {
    UafApp& app = m.emplace_user<UafApp>();
    app.read = m.program().event("seed::uaf_read", &TUafReader::read);
    app.got = m.program().event("seed::uaf_got", &TUafReader::got);
    const Addr va = m.memory().dram_malloc_spread(256);
    m.memory().dram_free(va);
    m.send_from_host(evw::make_new(node_lane(2), app.read), {va});
  });
}

TEST(UdCheckModeParity, OutOfBoundsDram) {
  expect_mode_parity(CheckKind::kOutOfBounds, [](Machine& m) {
    UafApp& app = m.emplace_user<UafApp>();
    app.read = m.program().event("seed::oob_read", &TUafReader::read);
    app.got = m.program().event("seed::oob_got", &TUafReader::got);
    m.send_from_host(evw::make_new(node_lane(1), app.read), {0x100});
  });
}

TEST(UdCheckModeParity, DoubleFree) {
  expect_mode_parity(CheckKind::kBadFree, [](Machine& m) {
    const Addr va = m.memory().dram_malloc_spread(256);
    m.memory().dram_free(va);
    EXPECT_THROW(m.memory().dram_free(va), BadFreeError);
  });
}

// The dead-thread scenario with the victim on another node than its
// spawner, so the reply and the send to the dead context cross shards.
struct FarDeadApp {
  EventLabel spawn = 0, victim = 0, got = 0, nop = 0;
};

struct TFarSpawner : ThreadState {
  void spawn(Ctx& ctx) {
    FarDeadApp& app = ctx.machine().user<FarDeadApp>();
    ctx.send_event(ctx.evw_new(node_lane(2), app.victim), {},
                   ctx.evw_update_event(ctx.cevnt(), app.got));
  }
  void got(Ctx& ctx) {
    FarDeadApp& app = ctx.machine().user<FarDeadApp>();
    ctx.send_event(evw::update_event(static_cast<Word>(ctx.op(0)), app.nop), {});
    ctx.yield_terminate();
  }
};

TEST(UdCheckModeParity, SendToDeadThread) {
  expect_mode_parity(CheckKind::kSendToDeadThread, [](Machine& m) {
    FarDeadApp& app = m.emplace_user<FarDeadApp>();
    app.spawn = m.program().event("seed::far_spawn", &TFarSpawner::spawn);
    app.got = m.program().event("seed::far_got", &TFarSpawner::got);
    app.nop = m.program().event("seed::dead_nop", &TDeadSpawner::nop);
    app.victim = m.program().event("seed::dead_victim", &TDeadVictim::v);
    m.send_from_host(evw::make_new(node_lane(1), app.spawn), {});
  });
}

TEST(UdCheckModeParity, LeakedThread) {
  expect_mode_parity(CheckKind::kLeakedThread, [](Machine& m) {
    LeakApp& app = m.emplace_user<LeakApp>();
    app.leak = m.program().event("seed::leak", &TLeaker::leak);
    m.send_from_host(evw::make_new(node_lane(3), app.leak), {});
    m.send_from_host(evw::make_new(node_lane(1) + 5, app.leak), {});
  });
}

TEST(UdCheckModeParity, UnfiredContinuation) {
  expect_mode_parity(CheckKind::kUnfiredContinuation, [](Machine& m) {
    LeakApp& app = m.emplace_user<LeakApp>();
    app.leak = m.program().event("seed::drop_cont", &TDropCont::drop);
    const EventLabel sink = m.program().event("seed::cont_sink", &TDropCont::drop);
    m.send_from_host(evw::make_new(node_lane(2), app.leak), {},
                     evw::make_new(node_lane(1), sink));
  });
}

// A task sends to a label the program does not define (suppressed at
// delivery on another node) and to a lane beyond the machine (dropped at
// routing).
struct BadWordApp {
  EventLabel send = 0;
};

struct TBadWordSender : ThreadState {
  void send(Ctx& ctx) {
    const auto labels = static_cast<EventLabel>(ctx.machine().program().size());
    ctx.send_event(evw::make_new(node_lane(2), labels + 7), {1});
    ctx.send_event(evw::make_new(100000, ctx.machine().user<BadWordApp>().send), {2});
    ctx.yield_terminate();
  }
};

TEST(UdCheckModeParity, BadEventWord) {
  expect_mode_parity(CheckKind::kBadEventWord, [](Machine& m) {
    BadWordApp& app = m.emplace_user<BadWordApp>();
    app.send = m.program().event("seed::bad_word", &TBadWordSender::send);
    m.send_from_host(evw::make_new(node_lane(1), app.send), {});
  });
}

struct TSpOob : ThreadState {
  void touch(Ctx& ctx) {
    const std::uint64_t end = ctx.machine().config().scratchpad_bytes;
    ctx.sp_write(end, 1);
    ctx.sp_write(0, ctx.sp_read(end + 64));
    ctx.yield_terminate();
  }
};

TEST(UdCheckModeParity, ScratchpadOutOfBounds) {
  expect_mode_parity(CheckKind::kOutOfBounds, [](Machine& m) {
    const EventLabel touch = m.program().event("seed::sp_oob", &TSpOob::touch);
    m.send_from_host(evw::make_new(node_lane(2), touch), {});
    m.send_from_host(evw::make_new(node_lane(3), touch), {});
  });
}

// Inline deliveries (Ctx::deliver_inline, the KVMSR packet unpacker's path)
// that the checker must suppress: one to a thread context that is not live
// on the lane, one to the running thread under another class's label. A
// well-formed inline child runs between them and writes the word a task on
// another node writes too, so the inline frame's clock stamp reaches a race
// report in both modes.
struct InlineApp {
  EventLabel parent = 0, child = 0, foreign = 0;
  Addr va = 0;
};

struct TInlineChild : ThreadState {
  void child(Ctx& ctx) {
    ctx.send_dram_write(ctx.machine().user<InlineApp>().va, {ctx.op(0)});
    ctx.yield_terminate();
  }
};

struct TInlineParent : ThreadState {
  void parent(Ctx& ctx) {
    const InlineApp& app = ctx.machine().user<InlineApp>();
    const Word ops[1] = {7};
    // Not live: this lane has allocated only the running thread.
    ctx.deliver_inline(evw::make_existing(ctx.nwid(), ctx.tid() + 9, app.child), ops, 1);
    ctx.deliver_inline(evw::make_new(ctx.nwid(), app.child), ops, 1);
    // The running thread is a TInlineParent; `foreign` belongs to TSpOob.
    ctx.deliver_inline(evw::update_event(ctx.cevnt(), app.foreign), ops, 1);
    ctx.yield_terminate();
  }
};

TEST(UdCheckModeParity, InlineDeliveries) {
  expect_mode_parity(CheckKind::kBadEventWord, [](Machine& m) {
    InlineApp& app = m.emplace_user<InlineApp>();
    app.parent = m.program().event("seed::inline_parent", &TInlineParent::parent);
    app.child = m.program().event("seed::inline_child", &TInlineChild::child);
    app.foreign = m.program().event("seed::inline_foreign", &TSpOob::touch);
    app.va = m.memory().dram_malloc_spread(256);
    m.send_from_host(evw::make_new(node_lane(1), app.parent), {});
    m.send_from_host(evw::make_new(node_lane(3), app.child), {3});
  });
}

}  // namespace
}  // namespace updown
