// Direct unit coverage for the lock-manager building blocks: the
// transaction lock cache, the hot tracker, the request pool, and the agent
// inheritance list.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/lock/agent_sli.h"
#include "src/lock/lock_cache.h"
#include "src/lock/lock_client.h"
#include "src/lock/lock_head.h"
#include "src/lock/lock_table.h"
#include "src/stats/counters.h"
#include "src/util/time_util.h"

namespace slidb {
namespace {

TEST(LockCacheTest, InsertFindRoundTrip) {
  LockCache cache;
  LockRequest r1, r2;
  cache.Insert(LockId::Table(0, 1), &r1);
  cache.Insert(LockId::Row(0, 1, 2, 3), &r2);
  EXPECT_EQ(cache.Find(LockId::Table(0, 1)), &r1);
  EXPECT_EQ(cache.Find(LockId::Row(0, 1, 2, 3)), &r2);
  EXPECT_EQ(cache.Find(LockId::Table(0, 2)), nullptr);
}

TEST(LockCacheTest, InsertOverwritesSameId) {
  LockCache cache;
  LockRequest r1, r2;
  cache.Insert(LockId::Table(0, 1), &r1);
  cache.Insert(LockId::Table(0, 1), &r2);
  EXPECT_EQ(cache.Find(LockId::Table(0, 1)), &r2);
}

TEST(LockCacheTest, EraseRemovesWithoutBreakingProbes) {
  LockCache cache;
  // Force a probe chain by inserting many ids (some will collide).
  LockRequest reqs[300];
  for (uint32_t i = 0; i < 300; ++i) {
    cache.Insert(LockId::Page(0, 1, i), &reqs[i]);
  }
  cache.Erase(LockId::Page(0, 1, 150));
  EXPECT_EQ(cache.Find(LockId::Page(0, 1, 150)), nullptr);
  // Every other entry is still reachable despite the tombstone.
  for (uint32_t i = 0; i < 300; ++i) {
    if (i == 150) continue;
    EXPECT_EQ(cache.Find(LockId::Page(0, 1, i)), &reqs[i]) << i;
  }
}

TEST(LockCacheTest, ClearEmptiesEverything) {
  // Shrinking back to kSlots at Clear() must not resurrect entries from
  // the grown generation, nor lose the next generation's entries.
  LockCache cache;
  LockRequest reqs[400];  // more than half of kSlots: the table grows
  for (uint32_t i = 0; i < 400; ++i) {
    cache.Insert(LockId::Row(0, 9, i, 0), &reqs[i]);
  }
  EXPECT_GT(cache.Capacity(), LockCache::kSlots);
  const uint64_t gen = cache.generation();
  cache.Clear();
  EXPECT_EQ(cache.generation(), gen + 1);
  EXPECT_EQ(cache.Capacity(), LockCache::kSlots);
  EXPECT_EQ(cache.LiveSlots(), 0u);
  for (uint32_t i = 0; i < 400; ++i) {
    EXPECT_EQ(cache.Find(LockId::Row(0, 9, i, 0)), nullptr);
  }
  // Growing again in the new generation starts from a clean table.
  for (uint32_t i = 0; i < 400; ++i) {
    cache.Insert(LockId::Row(0, 9, i, 1), &reqs[i]);
  }
  EXPECT_EQ(cache.LiveSlots(), 400u);
  for (uint32_t i = 0; i < 400; ++i) {
    EXPECT_EQ(cache.Find(LockId::Row(0, 9, i, 0)), nullptr);
    EXPECT_EQ(cache.Find(LockId::Row(0, 9, i, 1)), &reqs[i]);
  }
}

TEST(LockCacheTest, InsertReusesTombstonedSlots) {
  // Erase/Insert cycles of the same id must not grow the probe chain: the
  // tombstone left by Erase is reclaimed by the next Insert. Before the
  // fix, each cycle leaked one tombstone and probe chains grew
  // monotonically in long-lived agents.
  LockCache cache;
  LockRequest r;
  const LockId id = LockId::Page(0, 7, 11);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    cache.Insert(id, &r);
    ASSERT_EQ(cache.Find(id), &r);
    cache.Erase(id);
    ASSERT_EQ(cache.Find(id), nullptr);
  }
  EXPECT_EQ(cache.LiveSlots(), 0u);
  EXPECT_LE(cache.TombstoneSlots(), 1u);
  EXPECT_EQ(cache.Capacity(), LockCache::kSlots);
}

TEST(LockCacheTest, TombstoneReuseKeepsCollidingChainsIntact) {
  // Reusing a tombstone mid-chain must not orphan colliding entries that
  // probe past it, and must not duplicate a key that lives further along.
  LockCache cache;
  LockRequest reqs[64];
  // Build a dense cluster so several ids share probe paths.
  for (uint32_t i = 0; i < 64; ++i) {
    cache.Insert(LockId::Page(0, 3, i), &reqs[i]);
  }
  // Punch holes, then insert fresh ids that land in the same cluster.
  for (uint32_t i = 0; i < 64; i += 4) {
    cache.Erase(LockId::Page(0, 3, i));
  }
  LockRequest fresh[16];
  for (uint32_t i = 0; i < 16; ++i) {
    cache.Insert(LockId::Page(0, 99, i), &fresh[i]);
  }
  for (uint32_t i = 0; i < 64; ++i) {
    if (i % 4 == 0) {
      EXPECT_EQ(cache.Find(LockId::Page(0, 3, i)), nullptr) << i;
    } else {
      EXPECT_EQ(cache.Find(LockId::Page(0, 3, i)), &reqs[i]) << i;
    }
  }
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(cache.Find(LockId::Page(0, 99, i)), &fresh[i]) << i;
  }
  // Updating a key that sits beyond a tombstone must update in place, not
  // clone into the tombstone.
  LockRequest updated;
  cache.Insert(LockId::Page(0, 3, 63), &updated);
  EXPECT_EQ(cache.Find(LockId::Page(0, 3, 63)), &updated);
}

TEST(LockCacheTest, GenerationClearInvalidatesWithoutWiping) {
  // Clear() is O(1): it bumps the generation instead of touching kSlots
  // entries. Stale-generation slots must read as empty for Find, Insert
  // (reusable), and the introspection counters alike.
  LockCache cache;
  LockRequest r1, r2, r3;
  cache.Insert(LockId::Table(0, 1), &r1);
  cache.Insert(LockId::Page(0, 1, 5), &r2);
  cache.Erase(LockId::Page(0, 1, 5));  // current-generation tombstone
  EXPECT_EQ(cache.TombstoneSlots(), 1u);

  const uint64_t gen_before = cache.generation();
  cache.Clear();
  EXPECT_EQ(cache.generation(), gen_before + 1);
  EXPECT_EQ(cache.Find(LockId::Table(0, 1)), nullptr);
  EXPECT_EQ(cache.LiveSlots(), 0u);
  EXPECT_EQ(cache.TombstoneSlots(), 0u);  // stale tombstones died with gen

  // Stale slots are immediately reusable in the new generation.
  cache.Insert(LockId::Table(0, 1), &r3);
  EXPECT_EQ(cache.Find(LockId::Table(0, 1)), &r3);
  EXPECT_EQ(cache.LiveSlots(), 1u);
}

TEST(LockCacheTest, ManyGenerationsStayIndependent) {
  LockCache cache;
  LockRequest reqs[8];
  for (int gen = 0; gen < 100; ++gen) {
    // Each "transaction" inserts a few ids, finds them, then clears.
    for (uint32_t i = 0; i < 8; ++i) {
      cache.Insert(LockId::Page(0, 2, i), &reqs[i]);
    }
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_EQ(cache.Find(LockId::Page(0, 2, i)), &reqs[i]);
    }
    // An id from a previous generation that this one never wrote stays
    // invisible.
    ASSERT_EQ(cache.Find(LockId::Table(0, 77)), nullptr);
    if (gen == 0) {
      LockRequest extra;
      cache.Insert(LockId::Table(0, 77), &extra);
    }
    cache.Clear();
    ASSERT_EQ(cache.LiveSlots(), 0u);
  }
}

TEST(LockCacheTest, DatabaseZeroIdIsNotConfusedWithEmptySlots) {
  // Regression guard: LockId::Database(0) is all-zero fields; lookups for
  // it must not match empty or tombstoned slots.
  LockCache cache;
  EXPECT_EQ(cache.Find(LockId::Database(0)), nullptr);
  LockRequest r;
  cache.Insert(LockId::Database(0), &r);
  EXPECT_EQ(cache.Find(LockId::Database(0)), &r);
  cache.Erase(LockId::Database(0));
  EXPECT_EQ(cache.Find(LockId::Database(0)), nullptr);
}

TEST(LockCacheTest, GrowsToHoldLargeTransactions) {
  // A loader or an audit holds tens of thousands of row locks; every one
  // must stay reachable as the table doubles past kSlots.
  constexpr uint32_t kN = 20'000;
  LockCache cache;
  std::vector<LockRequest> reqs(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    cache.Insert(LockId::Row(0, 4, i / 50, i % 50), &reqs[i]);
  }
  EXPECT_GE(cache.Capacity(), 2 * kN);
  EXPECT_EQ(cache.LiveSlots(), kN);
  for (uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(cache.Find(LockId::Row(0, 4, i / 50, i % 50)), &reqs[i]) << i;
  }
  EXPECT_EQ(cache.Find(LockId::Row(0, 4, kN, 0)), nullptr);
}

TEST(LockCacheTest, EraseAndReinsertAcrossADoubling) {
  // Tombstones left by Erase must not hide ids placed after them, and a
  // doubling must carry every live entry (and no erased one) over.
  constexpr uint32_t kBefore = 119;  // 7 * 17, just under half of kSlots
  constexpr uint32_t kAfter = 602;   // 7 * 86, forces two doublings
  LockCache cache;
  std::vector<LockRequest> reqs(kAfter);
  std::vector<LockRequest> again(kAfter);
  auto id = [](uint32_t i) { return LockId::Page(0, 6, i); };
  auto check = [&](uint32_t n, bool reinserted) {
    for (uint32_t i = 0; i < n; ++i) {
      LockRequest* want = &reqs[i];
      if (i % 7 == 0) want = reinserted ? &again[i] : nullptr;
      ASSERT_EQ(cache.Find(id(i)), want) << i;
    }
  };
  for (uint32_t i = 0; i < kBefore; ++i) cache.Insert(id(i), &reqs[i]);
  for (uint32_t i = 0; i < kBefore; i += 7) cache.Erase(id(i));
  check(kBefore, false);
  ASSERT_EQ(cache.Capacity(), LockCache::kSlots);

  for (uint32_t i = kBefore; i < kAfter; ++i) cache.Insert(id(i), &reqs[i]);
  for (uint32_t i = kBefore; i < kAfter; i += 7) cache.Erase(id(i));
  EXPECT_GT(cache.Capacity(), LockCache::kSlots);
  check(kAfter, false);

  for (uint32_t i = 0; i < kAfter; i += 7) cache.Insert(id(i), &again[i]);
  check(kAfter, true);
  EXPECT_EQ(cache.LiveSlots(), kAfter);
}

TEST(LockCacheTest, TombstoneChurnStillEndsInAMiss) {
  // Insert/erase more distinct ids than the table has slots: every slot a
  // probe passes could end up a tombstone. Tombstones count toward the
  // half-full bound, so the table rehashes them away and a probe for an
  // absent id still reaches an empty slot instead of cycling forever.
  LockCache cache;
  LockRequest r;
  constexpr uint32_t kIds = 4 * LockCache::kSlots;
  for (uint32_t i = 0; i < kIds; ++i) {
    cache.Insert(LockId::Page(0, 5, i), &r);
    cache.Erase(LockId::Page(0, 5, i));
  }
  EXPECT_EQ(cache.LiveSlots(), 0u);
  EXPECT_GT(cache.TombstoneSlots(), 0u);
  EXPECT_LE(2 * cache.TombstoneSlots(), cache.Capacity());
  EXPECT_GT(cache.Capacity(), LockCache::kSlots);
  for (uint32_t i = 0; i < kIds; ++i) {
    ASSERT_EQ(cache.Find(LockId::Page(0, 5, i)), nullptr) << i;
  }
  EXPECT_EQ(cache.Find(LockId::Page(0, 5, kIds)), nullptr);
}

TEST(HotTrackerTest, WindowedThreshold) {
  HotTracker hot;
  EXPECT_FALSE(hot.IsHot(1));
  hot.Record(true);
  EXPECT_TRUE(hot.IsHot(1));
  EXPECT_FALSE(hot.IsHot(2));
  for (int i = 0; i < 3; ++i) hot.Record(true);
  EXPECT_TRUE(hot.IsHot(4));
}

TEST(HotTrackerTest, WindowSlidesContentionOut) {
  HotTracker hot;
  hot.Record(true);
  // 16 uncontended acquisitions push the hit out of the window.
  for (int i = 0; i < 16; ++i) hot.Record(false);
  EXPECT_FALSE(hot.IsHot(1));
  // Cumulative stats survive the window.
  EXPECT_EQ(hot.total_acquires(), 17u);
  EXPECT_EQ(hot.total_contended(), 1u);
}

TEST(HotTrackerTest, ForceHotAndClear) {
  HotTracker hot;
  hot.ForceHot();
  EXPECT_TRUE(hot.IsHot(16));
  hot.Clear();
  EXPECT_FALSE(hot.IsHot(1));
}

TEST(RequestPoolTest, ReusesFreedRequests) {
  RequestPool pool;
  LockRequest* a = pool.Alloc();
  a->mode = LockMode::kX;
  pool.Free(a);
  LockRequest* b = pool.Alloc();
  EXPECT_EQ(b, a);  // LIFO reuse
  // Reset() must have scrubbed the previous life.
  EXPECT_EQ(b->mode, LockMode::kNL);
  EXPECT_EQ(b->status.load(), RequestStatus::kWaiting);
  pool.Free(b);
}

TEST(RequestPoolTest, LiveAccounting) {
  RequestPool pool;
  LockRequest* a = pool.Alloc();
  LockRequest* b = pool.Alloc();
  EXPECT_EQ(pool.live(), 2u);
  pool.Free(a);
  EXPECT_EQ(pool.live(), 1u);
  pool.Free(b);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(AgentSliStateTest, PushAndTakeInherited) {
  AgentSliState sli(7);
  EXPECT_EQ(sli.agent_id(), 7u);
  LockRequest r1, r2;
  sli.PushInherited(&r1);
  sli.PushInherited(&r2);
  EXPECT_EQ(sli.inherited_count(), 2u);
  // Newest first.
  LockRequest* head = sli.TakeInherited();
  EXPECT_EQ(head, &r2);
  EXPECT_EQ(head->agent_next, &r1);
  EXPECT_EQ(sli.inherited_count(), 0u);
  EXPECT_EQ(sli.inherited_head(), nullptr);
}

TEST(LockHeadTest, QueueAppendUnlinkMaintainsLinks) {
  LockHead head;
  LockRequest a, b, c;
  head.Append(&a);
  head.Append(&b);
  head.Append(&c);
  EXPECT_EQ(head.q_head, &a);
  EXPECT_EQ(head.q_tail, &c);
  head.Unlink(&b);  // middle
  EXPECT_EQ(a.q_next, &c);
  EXPECT_EQ(c.q_prev, &a);
  head.Unlink(&a);  // head
  EXPECT_EQ(head.q_head, &c);
  head.Unlink(&c);  // last
  EXPECT_TRUE(head.QueueEmpty());
  EXPECT_EQ(head.q_tail, nullptr);
}

TEST(LockHeadTest, WaiterHintTracksFirstWaitingRequest) {
  LockHead head;
  LockRequest g1, g2, w1, w2;
  g1.mode = LockMode::kS;
  g1.status.store(RequestStatus::kGranted);
  g2.mode = LockMode::kS;
  g2.status.store(RequestStatus::kGranted);
  w1.mode = LockMode::kX;
  w1.status.store(RequestStatus::kWaiting);
  w2.mode = LockMode::kX;
  w2.status.store(RequestStatus::kWaiting);
  head.Append(&g1);
  head.Append(&g2);
  head.Append(&w1);
  head.Append(&w2);
  head.RecomputeSummaryFromQueue();
  EXPECT_EQ(head.waiter_hint, &w1);
  EXPECT_TRUE(head.SummaryMatchesQueue());

  // Unlinking the boundary node advances the hint to its successor.
  head.Unlink(&w1);
  EXPECT_EQ(head.waiter_hint, &w2);
  EXPECT_TRUE(head.SummaryMatchesQueue());
  head.Unlink(&w2);
  EXPECT_EQ(head.waiter_hint, nullptr);
  EXPECT_TRUE(head.SummaryMatchesQueue());
}

TEST(LockHeadTest, SummaryCheckerDetectsWaiterHintDrift) {
  LockHead head;
  LockRequest g, w;
  g.mode = LockMode::kS;
  g.status.store(RequestStatus::kGranted);
  w.mode = LockMode::kX;
  w.status.store(RequestStatus::kWaiting);
  head.Append(&g);
  head.SummaryAdd(g.mode);
  head.Append(&w);
  // Forgot to set the waiter boundary: the checker must notice a kWaiting
  // request sitting before (here: without) the hint.
  EXPECT_FALSE(head.SummaryMatchesQueue());
  head.RecomputeSummaryFromQueue();
  EXPECT_EQ(head.waiter_hint, &w);
  EXPECT_TRUE(head.SummaryMatchesQueue());
}

TEST(LockHeadTest, IncrementalSummaryAggregates) {
  LockHead head;
  LockRequest a, b;
  a.mode = LockMode::kIS;
  a.status.store(RequestStatus::kGranted);
  b.mode = LockMode::kIX;
  b.status.store(RequestStatus::kInherited);
  head.Append(&a);
  head.SummaryAdd(a.mode);
  head.Append(&b);
  head.SummaryAdd(b.mode);
  EXPECT_EQ(head.GrantedMode(), LockMode::kIX);  // sup(IS, IX)
  EXPECT_EQ(head.granted_mask, ModeBit(LockMode::kIS) | ModeBit(LockMode::kIX));
  EXPECT_EQ(head.queue_len, 2u);
  EXPECT_TRUE(head.SummaryMatchesQueue());

  head.Unlink(&b);
  head.SummaryRemove(b.mode);
  EXPECT_EQ(head.GrantedMode(), LockMode::kIS);
  EXPECT_TRUE(head.SummaryMatchesQueue());

  // Upgrade in place: IS → S.
  head.SummaryUpgrade(a.mode, LockMode::kS);
  a.mode = LockMode::kS;
  EXPECT_EQ(head.GrantedMode(), LockMode::kS);
  EXPECT_TRUE(head.SummaryMatchesQueue());
}

TEST(LockHeadTest, SummaryCheckerDetectsDrift) {
  LockHead head;
  LockRequest a;
  a.mode = LockMode::kS;
  a.status.store(RequestStatus::kGranted);
  head.Append(&a);
  // Forgot the SummaryAdd: the checker must notice.
  EXPECT_FALSE(head.SummaryMatchesQueue());
  head.RecomputeSummaryFromQueue();
  EXPECT_TRUE(head.SummaryMatchesQueue());
  EXPECT_EQ(head.GrantedMode(), LockMode::kS);
}

TEST(LockHeadTest, MaskExcludingRemovesSoleContribution) {
  LockHead head;
  LockRequest a, b;
  a.mode = LockMode::kS;
  a.status.store(RequestStatus::kGranted);
  b.mode = LockMode::kIX;
  b.status.store(RequestStatus::kGranted);
  head.Append(&a);
  head.SummaryAdd(a.mode);
  head.Append(&b);
  head.SummaryAdd(b.mode);
  // Excluding `a` leaves only IX; excluding nothing keeps both.
  EXPECT_EQ(head.MaskExcluding(&a), ModeBit(LockMode::kIX));
  EXPECT_EQ(head.MaskExcluding(nullptr),
            ModeBit(LockMode::kS) | ModeBit(LockMode::kIX));
  // With two S holders, excluding one keeps the S bit set.
  LockRequest c;
  c.mode = LockMode::kS;
  c.status.store(RequestStatus::kGranted);
  head.Append(&c);
  head.SummaryAdd(c.mode);
  EXPECT_EQ(head.MaskExcluding(&a),
            ModeBit(LockMode::kS) | ModeBit(LockMode::kIX));
}

TEST(LockClientWakeTest, WakeSkipsSyscallUnlessParked) {
  CounterSet counters;
  ScopedCounterSet routed(&counters);
  LockClient c;
  // Nobody parked: the wake costs no syscall.
  c.Wake();
  EXPECT_EQ(counters.Get(Counter::kLockWakeFast), 1u);
  // A parked owner is woken through the futex word, long before its
  // deadline.
  std::atomic<bool> resolved{false};
  const uint64_t start = NowNanos();
  std::thread owner([&] {
    const auto done = [&] { return resolved.load(); };
    while (!done()) c.Park(done, start + 30'000'000'000ull);
  });
  while (!c.parked()) std::this_thread::yield();
  resolved.store(true);
  c.Wake();
  owner.join();
  EXPECT_LT(NowNanos() - start, 10'000'000'000ull);
  EXPECT_EQ(counters.Get(Counter::kLockWakeFast), 1u);
  EXPECT_FALSE(c.parked());
  c.Wake();
  EXPECT_EQ(counters.Get(Counter::kLockWakeFast), 2u);
}

TEST(LockTableTest, WaiterAwareIterationSkipsIdleBuckets) {
  LockTable table(16);
  LockHead* h = table.FindOrCreate(LockId::Table(0, 1));
  ASSERT_NE(h->bucket_waiters, nullptr);

  int visited = 0;
  table.ForEachHead([&](LockHead*) { ++visited; });
  EXPECT_EQ(visited, 1);  // full iteration still sees the head

  visited = 0;
  table.ForEachHeadWithWaiters([&](LockHead*) { ++visited; });
  EXPECT_EQ(visited, 0);  // no waiters anywhere: every bucket skipped

  h->AddWaiter();
  visited = 0;
  table.ForEachHeadWithWaiters([&](LockHead*) { ++visited; });
  EXPECT_EQ(visited, 1);

  h->RemoveWaiter();
  visited = 0;
  table.ForEachHeadWithWaiters([&](LockHead*) { ++visited; });
  EXPECT_EQ(visited, 0);

  table.Unpin(h);
}

}  // namespace
}  // namespace slidb
