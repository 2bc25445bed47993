// Unit tests for the discrete-event engine's data structures: the two-level
// calendar queue (exact (tick, src, seq) total order, epoch crossing,
// far-heap overflow) and the recycling slab pool (stable addresses, index
// reuse).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace updown {
namespace {

std::vector<QEntry> drain(CalendarEventQueue& q) {
  std::vector<QEntry> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

TEST(CalendarEventQueue, SameTickPopsInSeqOrder) {
  CalendarEventQueue q;
  // Push in scrambled seq order at one tick; FIFO (seq) order must come out.
  for (std::uint32_t seq : {5u, 1u, 4u, 0u, 3u, 2u})
    q.push(QEntry{100, 0, seq, seq, 0});
  const auto out = drain(q);
  ASSERT_EQ(out.size(), 6u);
  for (std::uint32_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].seq, i);
}

TEST(CalendarEventQueue, SameTickOrdersBySrcThenSeq) {
  CalendarEventQueue q;
  // Entity ids break ties first, each entity's own counter second — the key
  // property the sharded engine's determinism rests on.
  q.push(QEntry{7, /*src=*/2, /*seq=*/0, 0, 0});
  q.push(QEntry{7, /*src=*/0, /*seq=*/9, 1, 0});
  q.push(QEntry{7, /*src=*/1, /*seq=*/4, 2, 0});
  q.push(QEntry{7, /*src=*/0, /*seq=*/3, 3, 0});
  q.push(QEntry{7, /*src=*/1, /*seq=*/5, 4, 0});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  for (const QEntry& e : drain(q)) got.emplace_back(e.src, e.seq);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {0, 3}, {0, 9}, {1, 4}, {1, 5}, {2, 0}};
  EXPECT_EQ(got, want);
}

TEST(CalendarEventQueue, PeekTickMatchesPop) {
  CalendarEventQueue q(/*bucket_width_log2=*/2, /*nbuckets_log2=*/3);
  std::uint32_t seq = 0;
  for (Tick t : {44u, 9u, 9u, 300u, 12u}) q.push(QEntry{t, 0, seq++, 0, 0});
  while (!q.empty()) {
    const Tick peeked = q.peek_tick();
    EXPECT_EQ(q.pop().t, peeked);
  }
}

TEST(CalendarEventQueue, PeekNextMatchesPop) {
  // peek_next() is the engine's prefetch hint: whenever it is non-null and
  // no push comes first, it names exactly the entry pop() returns next, and
  // it is null once the bucket under the cursor is empty. A shadow model
  // tracks every live entry's bucket (past-due pushes clamp to the cursor's
  // bucket) and the cursor, which sits on the bucket of the last pop.
  constexpr unsigned kWidthLog2 = 2, kBucketsLog2 = 3;
  constexpr std::uint64_t kBuckets = 1u << kBucketsLog2;
  CalendarEventQueue q(kWidthLog2, kBucketsLog2);
  struct Shadow {
    QEntry e;
    std::uint64_t vidx;
  };
  std::vector<Shadow> live;
  std::uint64_t cursor = 0;
  Tick now = 0;
  std::uint32_t seq = 0;
  int hits = 0, splices = 0, jumps = 0;
  Xoshiro256 rng(1234);

  const auto push = [&](Tick t) {
    const QEntry e{t, static_cast<std::uint32_t>(rng() % 4), seq, seq, 0};
    ++seq;
    const std::uint64_t vidx = std::max<std::uint64_t>(t >> kWidthLog2, cursor);
    if (vidx == cursor && q.peek_next()) ++splices;  // into the sorted active bucket
    q.push(e);
    live.push_back({e, vidx});
  };
  const auto before = [](const Shadow& a, const Shadow& b) {
    return std::tie(a.e.t, a.e.src, a.e.seq) < std::tie(b.e.t, b.e.src, b.e.seq);
  };

  for (int step = 0; step < 50000; ++step) {
    if (live.empty() || rng() % 100 < 45) {
      const std::uint64_t kind = rng() % 20;
      if (kind == 0) push(now + (kBuckets << kWidthLog2) + rng() % 500);  // far heap
      else if (kind == 1) push(now - std::min<Tick>(now, rng() % 8));     // past due
      else push(now + rng() % 12);  // near future, often the active bucket
      continue;
    }
    const QEntry* hint = q.peek_next();
    const bool hinted = hint != nullptr;
    const QEntry h = hinted ? *hint : QEntry{};
    const QEntry got = q.pop();

    const auto min_it = std::min_element(live.begin(), live.end(), before);
    ASSERT_EQ(got.seq, min_it->e.seq) << "step " << step;
    if (hinted) {
      ++hits;
      ASSERT_EQ(h.seq, got.seq) << "step " << step;
      ASSERT_EQ(h.t, got.t) << "step " << step;
    }
    if (min_it->vidx - cursor >= kBuckets) ++jumps;  // only an empty ring jumps
    cursor = min_it->vidx;
    now = std::max(now, got.t);
    live.erase(min_it);

    const bool active_empty = std::none_of(
        live.begin(), live.end(), [&](const Shadow& s) { return s.vidx == cursor; });
    if (active_empty) {
      ASSERT_EQ(q.peek_next(), nullptr) << "step " << step;
    }
  }
  // The walk must have exercised every path the hint has to survive.
  EXPECT_GT(hits, 1000);
  EXPECT_GT(splices, 100);
  EXPECT_GT(jumps, 10);
  EXPECT_GT(q.stats().far_events, 100u);
}

TEST(CalendarEventQueue, MixedTicksTotalOrder) {
  CalendarEventQueue q;
  q.push(QEntry{30, 0, 0, 0, 0});
  q.push(QEntry{10, 0, 1, 1, 0});
  q.push(QEntry{30, 0, 2, 2, 1});
  q.push(QEntry{20, 0, 3, 3, 0});
  q.push(QEntry{10, 0, 4, 4, 1});
  std::vector<std::pair<Tick, std::uint32_t>> got;
  for (const QEntry& e : drain(q)) got.emplace_back(e.t, e.seq);
  const std::vector<std::pair<Tick, std::uint32_t>> want = {
      {10, 1}, {10, 4}, {20, 3}, {30, 0}, {30, 2}};
  EXPECT_EQ(got, want);
}

TEST(CalendarEventQueue, PushIntoActiveBucketDuringDrain) {
  // The engine's common pattern: executing the event at tick t enqueues a new
  // event whose arrival lands in the bucket currently being drained.
  CalendarEventQueue q(/*bucket_width_log2=*/4, /*nbuckets_log2=*/4);
  std::uint32_t seq = 0;
  q.push(QEntry{16, 0, seq++, 0, 0});
  q.push(QEntry{18, 0, seq++, 0, 0});
  EXPECT_EQ(q.pop().t, 16u);
  q.push(QEntry{17, 0, seq++, 0, 0});  // same 16-tick bucket, mid-drain
  EXPECT_EQ(q.pop().t, 17u);
  EXPECT_EQ(q.pop().t, 18u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarEventQueue, FarFutureOverflowsAndReturnsInOrder) {
  // 4 buckets x 2 ticks = an 8-tick window; anything further goes to the far
  // heap and must still pop in global order once the cursor advances.
  CalendarEventQueue q(/*bucket_width_log2=*/1, /*nbuckets_log2=*/2);
  std::uint32_t seq = 0;
  q.push(QEntry{2, 0, seq++, 0, 0});
  q.push(QEntry{1000, 0, seq++, 0, 0});  // far
  q.push(QEntry{5, 0, seq++, 0, 0});
  q.push(QEntry{500, 0, seq++, 0, 0});   // far
  q.push(QEntry{1000, 0, seq++, 0, 0});  // far, same tick: seq tie-break
  EXPECT_GE(q.stats().far_events, 3u);

  std::vector<Tick> ticks;
  std::vector<std::uint32_t> seqs;
  for (const QEntry& e : drain(q)) {
    ticks.push_back(e.t);
    seqs.push_back(e.seq);
  }
  EXPECT_EQ(ticks, (std::vector<Tick>{2, 5, 500, 1000, 1000}));
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 2, 3, 1, 4}));
}

TEST(CalendarEventQueue, EpochCrossingInterleavedWithReference) {
  // Differential test against a plain binary heap with the engine's access
  // pattern: pop one, push a few at random offsets (near-future mostly, an
  // occasional far-future burst), across many calendar epochs. A tiny ring
  // forces constant window wraps and far-heap traffic.
  CalendarEventQueue q(/*bucket_width_log2=*/2, /*nbuckets_log2=*/3);
  auto cmp = [](const QEntry& a, const QEntry& b) {
    if (a.t != b.t) return a.t > b.t;
    if (a.src != b.src) return a.src > b.src;
    return a.seq > b.seq;
  };
  std::priority_queue<QEntry, std::vector<QEntry>, decltype(cmp)> ref(cmp);

  Xoshiro256 rng(99);
  std::uint32_t seq = 0;
  auto push_both = [&](Tick t) {
    // Spread pushes over a few source entities to exercise the src tie-break.
    QEntry e{t, static_cast<std::uint32_t>(rng() % 5), seq++, 0, 0};
    q.push(e);
    ref.push(e);
  };
  for (int i = 0; i < 64; ++i) push_both(rng() % 40);

  Tick now = 0;
  for (int step = 0; step < 20000; ++step) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.peek_tick(), ref.top().t);
    const QEntry got = q.pop();
    const QEntry want = ref.top();
    ref.pop();
    ASSERT_EQ(got.t, want.t) << "step " << step;
    ASSERT_EQ(got.src, want.src) << "step " << step;
    ASSERT_EQ(got.seq, want.seq) << "step " << step;
    now = got.t;
    if (ref.size() < 64) {
      const Tick ahead = (rng() % 16 == 0) ? 200 + rng() % 4000 : 1 + rng() % 24;
      push_both(now + ahead);
    }
  }
  while (!q.empty()) {
    const QEntry got = q.pop();
    EXPECT_EQ(got.t, ref.top().t);
    EXPECT_EQ(got.seq, ref.top().seq);
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarEventQueue, PastDueEntriesFireImmediately) {
  CalendarEventQueue q(/*bucket_width_log2=*/2, /*nbuckets_log2=*/3);
  std::uint32_t seq = 0;
  q.push(QEntry{100, 0, seq++, 0, 0});
  EXPECT_EQ(q.pop().t, 100u);  // cursor is now at tick-100's bucket
  q.push(QEntry{40, 0, seq++, 0, 0});  // in the past: clamped, pops next
  q.push(QEntry{101, 0, seq++, 0, 0});
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().t, 101u);
}

TEST(SlabPool, StableAddressesAcrossGrowth) {
  SlabPool<int> pool;
  const std::uint32_t first = pool.acquire();
  int* p = &pool[first];
  *p = 42;
  // Force several slab growths; the first slot must not move.
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 5000; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(&pool[first], p);
  EXPECT_EQ(pool[first], 42);
  EXPECT_EQ(pool.live(), 5001u);
  EXPECT_GE(pool.capacity(), 5001u);
  for (std::uint32_t h : held) pool.release(h);
  pool.release(first);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabPool, RecyclesIndicesUnderChurn) {
  SlabPool<int> pool;
  // Steady-state churn (acquire one, release one) must not grow the pool.
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 64; ++i) held.push_back(pool.acquire());
  const std::uint32_t cap = pool.capacity();
  Xoshiro256 rng(3);
  for (int i = 0; i < 100000; ++i) {
    const std::size_t victim = rng() % held.size();
    pool.release(held[victim]);
    held[victim] = pool.acquire();
  }
  EXPECT_EQ(pool.capacity(), cap);
  EXPECT_EQ(pool.live(), 64u);
  // All held indices are distinct (no double handout).
  std::sort(held.begin(), held.end());
  EXPECT_EQ(std::adjacent_find(held.begin(), held.end()), held.end());
}

TEST(SlabPool, LifoRecyclingKeepsWorkingSetSmall) {
  SlabPool<int> pool;
  const std::uint32_t a = pool.acquire();
  pool.release(a);
  // LIFO: the slot just released is the next one handed out.
  EXPECT_EQ(pool.acquire(), a);
  pool.release(a);
}

// A double or out-of-range release plants a duplicate/bogus index in the
// free list; the corruption surfaces much later as two live payloads sharing
// a slot. Debug builds keep a freed-bitmap so the bad release itself asserts
// (release builds stay zero-overhead and execute the statement unchecked).
TEST(SlabPoolDeathTest, DoubleReleaseAssertsInDebug) {
  SlabPool<int> pool;
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();  // keep live_ > 0 past the release
  (void)b;
  pool.release(a);
  EXPECT_DEBUG_DEATH(pool.release(a), "double release");
}

TEST(SlabPoolDeathTest, OutOfRangeReleaseAssertsInDebug) {
  SlabPool<int> pool;
  (void)pool.acquire();
  EXPECT_DEBUG_DEATH(pool.release(pool.capacity() + 5), "index out of range");
}

TEST(SlabPool, ReleasedSlotCanBeReacquiredCleanly) {
  // The freed-bitmap must clear on acquire: release-then-reacquire of the
  // same index is the normal recycling path, not a double release.
  SlabPool<int> pool;
  const std::uint32_t a = pool.acquire();
  pool.release(a);
  ASSERT_EQ(pool.acquire(), a);
  pool.release(a);  // must not trip the debug bitmap
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace updown
