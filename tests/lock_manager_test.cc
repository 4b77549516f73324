// Lock manager semantics: grants, conflicts, upgrades, FIFO fairness,
// hierarchy handling, deadlock detection, and multi-threaded invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/stats/counters.h"

namespace slidb {
namespace {

LockManagerOptions FastOptions() {
  LockManagerOptions o;
  o.enable_deadlock_detector = true;
  o.deadlock_interval_us = 200;
  o.lock_timeout_us = 2'000'000;
  return o;
}

/// Deterministic replacement for "sleep and hope the waiter enqueued":
/// poll the client's waiting_on pointer, which is set exactly while it is
/// blocked inside a lock wait. Bounded so a broken wake path still fails
/// the test instead of hanging it (ROADMAP test-hygiene item: timing
/// windows on loaded single-CPU hosts are not a synchronization primitive).
void WaitUntilBlocked(LockClient& c) {
  for (int i = 0; i < 20'000; ++i) {
    if (c.waiting_on().load(std::memory_order_acquire) != nullptr) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "client never entered a lock wait";
}

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : lm_(FastOptions()) {}

  LockManager lm_;
};

TEST_F(LockManagerTest, GrantAndReleaseSingleLock) {
  LockClient c;
  c.StartTxn(1, 0);
  ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kS).ok());
  EXPECT_GT(lm_.table().CountHeads(), 0u);
  lm_.ReleaseAll(&c, nullptr, false);
  // High-level heads persist (hot-lock history) but their queues are empty.
  lm_.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST_F(LockManagerTest, AcquiringRowTakesIntentionAncestors) {
  LockClient c;
  c.StartTxn(1, 0);
  ASSERT_TRUE(lm_.Lock(&c, LockId::Row(0, 1, 7, 3), LockMode::kX).ok());
  // Database, table, page intention locks + the row lock itself.
  EXPECT_NE(c.cache().Find(LockId::Database(0)), nullptr);
  EXPECT_NE(c.cache().Find(LockId::Table(0, 1)), nullptr);
  EXPECT_NE(c.cache().Find(LockId::Page(0, 1, 7)), nullptr);
  EXPECT_NE(c.cache().Find(LockId::Row(0, 1, 7, 3)), nullptr);
  EXPECT_EQ(c.cache().Find(LockId::Table(0, 1))->mode, LockMode::kIX);
  lm_.ReleaseAll(&c, nullptr, false);
}

TEST_F(LockManagerTest, RepeatAcquireHitsCache) {
  LockClient c;
  c.StartTxn(1, 0);
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kS).ok());
    ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kS).ok());
    ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kIS).ok());
  }
  EXPECT_EQ(counters.Get(Counter::kLockRequests), 2u);  // db + table
  EXPECT_GE(counters.Get(Counter::kLockCacheHits), 2u);
  lm_.ReleaseAll(&c, nullptr, false);
}

TEST_F(LockManagerTest, CompatibleSharersProceedTogether) {
  LockClient c1, c2;
  c1.StartTxn(1, 0);
  c2.StartTxn(2, 1);
  ASSERT_TRUE(lm_.Lock(&c1, LockId::Table(0, 1), LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(&c2, LockId::Table(0, 1), LockMode::kS).ok());
  lm_.ReleaseAll(&c1, nullptr, false);
  lm_.ReleaseAll(&c2, nullptr, false);
}

TEST_F(LockManagerTest, ConflictBlocksUntilRelease) {
  LockClient c1, c2;
  c1.StartTxn(1, 0);
  c2.StartTxn(2, 1);
  ASSERT_TRUE(lm_.Lock(&c1, LockId::Table(0, 1), LockMode::kX).ok());

  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm_.Lock(&c2, LockId::Table(0, 1), LockMode::kS).ok());
    got.store(true);
    lm_.ReleaseAll(&c2, nullptr, false);
  });

  WaitUntilBlocked(c2);
  EXPECT_FALSE(got.load());
  lm_.ReleaseAll(&c1, nullptr, false);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST_F(LockManagerTest, WaiterBehindDeepGrantedPrefixIsWoken) {
  // A deep granted prefix (many IS holders) with an X waiter behind it:
  // the waiter-boundary hint means releases scan from the waiter, not the
  // prefix, and the waiter must still be granted exactly when the last
  // holder leaves.
  constexpr int kHolders = 32;
  std::vector<std::unique_ptr<LockClient>> holders;
  for (int i = 0; i < kHolders; ++i) {
    holders.push_back(std::make_unique<LockClient>());
    holders.back()->StartTxn(1 + i, i);
    ASSERT_TRUE(
        lm_.Lock(holders.back().get(), LockId::Table(0, 5), LockMode::kIS)
            .ok());
  }

  LockClient writer;
  writer.StartTxn(1000, 99);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm_.Lock(&writer, LockId::Table(0, 5), LockMode::kX).ok());
    got.store(true);
    lm_.ReleaseAll(&writer, nullptr, false);
  });

  // FIFO: a later IS request must queue behind the X waiter, not sneak in.
  // The X waiter must provably be IN the queue before the IS request
  // starts, or the ordering under test is not established.
  WaitUntilBlocked(writer);
  LockClient late;
  late.StartTxn(2000, 98);
  std::atomic<bool> late_got{false};
  std::thread late_waiter([&] {
    EXPECT_TRUE(lm_.Lock(&late, LockId::Table(0, 5), LockMode::kIS).ok());
    late_got.store(true);
    lm_.ReleaseAll(&late, nullptr, false);
  });

  WaitUntilBlocked(late);
  EXPECT_FALSE(got.load());
  EXPECT_FALSE(late_got.load());
  for (auto& h : holders) lm_.ReleaseAll(h.get(), nullptr, false);
  waiter.join();
  late_waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_TRUE(late_got.load());
}

TEST_F(LockManagerTest, UpgradeSToXWhenAlone) {
  LockClient c;
  c.StartTxn(1, 0);
  ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kX).ok());
  LockRequest* r = c.cache().Find(LockId::Table(0, 1));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mode, LockMode::kX);
  lm_.ReleaseAll(&c, nullptr, false);
}

TEST_F(LockManagerTest, UpgradeWaitsForConcurrentReader) {
  LockClient c1, c2;
  c1.StartTxn(1, 0);
  c2.StartTxn(2, 1);
  ASSERT_TRUE(lm_.Lock(&c1, LockId::Table(0, 1), LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(&c2, LockId::Table(0, 1), LockMode::kS).ok());

  std::atomic<bool> upgraded{false};
  std::thread upgrader([&] {
    EXPECT_TRUE(lm_.Lock(&c1, LockId::Table(0, 1), LockMode::kX).ok());
    upgraded.store(true);
  });
  WaitUntilBlocked(c1);
  EXPECT_FALSE(upgraded.load());
  lm_.ReleaseAll(&c2, nullptr, false);
  upgrader.join();
  EXPECT_TRUE(upgraded.load());
  lm_.ReleaseAll(&c1, nullptr, false);
}

TEST_F(LockManagerTest, IntentSharersDoNotConflict) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<LockClient>> clients;
  for (int i = 0; i < kThreads; ++i) {
    clients.push_back(std::make_unique<LockClient>());
  }
  std::atomic<int> successes{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      LockClient* c = clients[i].get();
      for (int iter = 0; iter < 200; ++iter) {
        c->StartTxn(static_cast<uint64_t>(i) * 1000 + iter, i);
        ASSERT_TRUE(
            lm_.Lock(c, LockId::Row(0, 1, 1, static_cast<uint32_t>(i)),
                     LockMode::kS)
                .ok());
        successes.fetch_add(1);
        lm_.ReleaseAll(c, nullptr, false);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), kThreads * 200);
  lm_.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST_F(LockManagerTest, ExclusiveCounterNoLostUpdates) {
  // The canonical mutual-exclusion check: X row locks serialize increments.
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  int64_t shared_value = 0;
  std::vector<std::unique_ptr<LockClient>> clients;
  for (int i = 0; i < kThreads; ++i) {
    clients.push_back(std::make_unique<LockClient>());
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      LockClient* c = clients[i].get();
      for (int iter = 0; iter < kIters; ++iter) {
        c->StartTxn(static_cast<uint64_t>(i) * 100000 + iter + 1, i);
        Status st = lm_.Lock(c, LockId::Row(0, 1, 1, 1), LockMode::kX);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ++shared_value;
        lm_.ReleaseAll(c, nullptr, false);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared_value, static_cast<int64_t>(kThreads) * kIters);
}

TEST_F(LockManagerTest, DeadlockDetectedAndVictimChosen) {
  LockClient c1, c2;
  c1.StartTxn(1, 0);
  c2.StartTxn(2, 1);
  ASSERT_TRUE(lm_.Lock(&c1, LockId::Row(0, 1, 1, 1), LockMode::kX).ok());
  ASSERT_TRUE(lm_.Lock(&c2, LockId::Row(0, 1, 1, 2), LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    const Status st = lm_.Lock(&c1, LockId::Row(0, 1, 1, 2), LockMode::kX);
    if (st.IsDeadlock()) deadlocks.fetch_add(1);
    lm_.ReleaseAll(&c1, nullptr, false);
  });
  std::thread t2([&] {
    const Status st = lm_.Lock(&c2, LockId::Row(0, 1, 1, 1), LockMode::kX);
    if (st.IsDeadlock()) deadlocks.fetch_add(1);
    lm_.ReleaseAll(&c2, nullptr, false);
  });
  t1.join();
  t2.join();
  // Exactly one of the two should have been victimized.
  EXPECT_EQ(deadlocks.load(), 1);
  lm_.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST_F(LockManagerTest, UpgradeDeadlockDetected) {
  // Two IS holders both upgrading to IX on the same lock cannot deadlock
  // (IX compatible with IS) — but two S holders upgrading to X do.
  LockClient c1, c2;
  c1.StartTxn(1, 0);
  c2.StartTxn(2, 1);
  ASSERT_TRUE(lm_.Lock(&c1, LockId::Table(0, 5), LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(&c2, LockId::Table(0, 5), LockMode::kS).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    const Status st = lm_.Lock(&c1, LockId::Table(0, 5), LockMode::kX);
    if (st.IsDeadlock()) deadlocks.fetch_add(1);
    lm_.ReleaseAll(&c1, nullptr, false);
  });
  std::thread t2([&] {
    const Status st = lm_.Lock(&c2, LockId::Table(0, 5), LockMode::kX);
    if (st.IsDeadlock()) deadlocks.fetch_add(1);
    lm_.ReleaseAll(&c2, nullptr, false);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(deadlocks.load(), 1);
}

TEST_F(LockManagerTest, FifoPreventsWriterStarvation) {
  // Reader holds S; writer queues for X; a later reader must queue behind
  // the writer rather than overtaking it.
  LockClient reader1, writer, reader2;
  reader1.StartTxn(1, 0);
  writer.StartTxn(2, 1);
  reader2.StartTxn(3, 2);
  ASSERT_TRUE(lm_.Lock(&reader1, LockId::Table(0, 1), LockMode::kS).ok());

  std::atomic<bool> writer_done{false};
  std::atomic<bool> reader2_done{false};
  std::thread tw([&] {
    EXPECT_TRUE(lm_.Lock(&writer, LockId::Table(0, 1), LockMode::kX).ok());
    writer_done.store(true);
    lm_.ReleaseAll(&writer, nullptr, false);
  });
  // The writer must provably be queued before the reader arrives, or the
  // FIFO ordering under test is not established.
  WaitUntilBlocked(writer);
  std::thread tr([&] {
    EXPECT_TRUE(lm_.Lock(&reader2, LockId::Table(0, 1), LockMode::kS).ok());
    // FIFO: by the time we get S, the writer must have been served.
    EXPECT_TRUE(writer_done.load());
    reader2_done.store(true);
    lm_.ReleaseAll(&reader2, nullptr, false);
  });
  WaitUntilBlocked(reader2);
  EXPECT_FALSE(writer_done.load());
  EXPECT_FALSE(reader2_done.load());
  lm_.ReleaseAll(&reader1, nullptr, false);
  tw.join();
  tr.join();
  EXPECT_TRUE(reader2_done.load());
}

TEST_F(LockManagerTest, TimeoutReturnsTimedOut) {
  LockManagerOptions o = FastOptions();
  o.lock_timeout_us = 50'000;  // 50 ms
  o.enable_deadlock_detector = false;
  LockManager lm(o);

  LockClient c1, c2;
  c1.StartTxn(1, 0);
  c2.StartTxn(2, 1);
  ASSERT_TRUE(lm.Lock(&c1, LockId::Table(0, 1), LockMode::kX).ok());
  const Status st = lm.Lock(&c2, LockId::Table(0, 1), LockMode::kX);
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  lm.ReleaseAll(&c1, nullptr, false);
  lm.ReleaseAll(&c2, nullptr, false);
}

TEST_F(LockManagerTest, ParentCoverageSkipsChildLocks) {
  LockClient c;
  c.StartTxn(1, 0);
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    ASSERT_TRUE(lm_.Lock(&c, LockId::Table(0, 1), LockMode::kS).ok());
    // Rows under a table-S are implicitly share-locked: no new requests.
    ASSERT_TRUE(lm_.Lock(&c, LockId::Row(0, 1, 3, 9), LockMode::kS).ok());
  }
  EXPECT_EQ(c.cache().Find(LockId::Row(0, 1, 3, 9)), nullptr);
  lm_.ReleaseAll(&c, nullptr, false);
}

TEST_F(LockManagerTest, HotTrackerMarksContendedHeads) {
  // Hammer one table lock from many threads; its head must become hot.
  // Simulated queue work stretches the latched window so holders get
  // preempted mid-hold even on a single-CPU host — without it the critical
  // section is a few nanoseconds and contention can organically be zero.
  //
  // Even so, contention is a scheduling artifact: on a single-CPU host two
  // threads are never *simultaneously* in the latched window, and a run
  // where every preemption lands outside it legitimately observes zero.
  // The assertion is only meaningful with real parallelism (ROADMAP test
  // hygiene note), so gate it instead of being flaky by design.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >= 2 hardware threads for latch contention to be "
                    "deterministic";
  }
  LockManagerOptions o = FastOptions();
  o.sim_queue_work_ns = 2'000;
  LockManager lm(o);
  constexpr int kThreads = 8;
  // Even with parallelism, one hammer round can legitimately observe zero
  // contention when the scheduler (or a sanitizer runtime, or a saturated
  // host) serializes the latched windows. Contention is a statistic, so
  // treat it like one: hammer in bounded rounds until some is observed —
  // on real parallel hardware the first round all but always suffices.
  constexpr int kMaxRounds = 5;
  uint64_t acquires = 0;
  uint64_t contended = 0;
  for (int round = 0; round < kMaxRounds && contended == 0; ++round) {
    std::vector<std::unique_ptr<LockClient>> clients;
    for (int i = 0; i < kThreads; ++i)
      clients.push_back(std::make_unique<LockClient>());
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, round, i] {
        LockClient* c = clients[i].get();
        for (int iter = 0; iter < 500; ++iter) {
          c->StartTxn(static_cast<uint64_t>(round) * 100000 +
                          static_cast<uint64_t>(i) * 10000 + iter + 1,
                      i);
          ASSERT_TRUE(lm.Lock(c, LockId::Table(0, 42), LockMode::kIS).ok());
          lm.ReleaseAll(c, nullptr, false);
        }
      });
    }
    for (auto& t : threads) t.join();

    // Re-acquire once and inspect the head's tracker.
    LockClient c;
    c.StartTxn(999999u + static_cast<uint64_t>(round), 0);
    ASSERT_TRUE(lm.Lock(&c, LockId::Table(0, 42), LockMode::kIS).ok());
    LockRequest* r = c.cache().Find(LockId::Table(0, 42));
    ASSERT_NE(r, nullptr);
    acquires = r->head->hot.total_acquires();
    contended = r->head->hot.total_contended();
    lm.ReleaseAll(&c, nullptr, false);
  }
  // The head persisted across every hammer transaction…
  EXPECT_GE(acquires, 8u * 500u);
  // …and with 8 hammering threads, contention across kMaxRounds rounds is
  // certain on genuinely parallel hardware.
  EXPECT_GT(contended, 0u);
}

TEST_F(LockManagerTest, ReleaseAllOnEmptyClientIsNoOp) {
  LockClient c;
  c.StartTxn(1, 0);
  lm_.ReleaseAll(&c, nullptr, false);
  lm_.ReleaseAll(&c, nullptr, true);
}

TEST_F(LockManagerTest, ManyDistinctLocksStressHashTable) {
  LockClient c;
  c.StartTxn(1, 0);
  for (uint32_t t = 1; t <= 50; ++t) {
    for (uint64_t p = 0; p < 20; ++p) {
      ASSERT_TRUE(lm_.Lock(&c, LockId::Page(0, t, p), LockMode::kIS).ok());
    }
  }
  EXPECT_GE(lm_.table().CountHeads(), 1000u);
  const size_t high_level_heads = lm_.table().CountHeads();

  // Row level: 20,000 X locks in the same transaction, far more than the
  // lock cache's initial kSlots. Each page and table upgrades IS -> IX.
  constexpr uint32_t kRowsPerPage = 20;
  constexpr uint64_t kRows = 50 * 20 * kRowsPerPage;
  auto lock_rows = [&] {
    for (uint32_t t = 1; t <= 50; ++t) {
      for (uint64_t p = 0; p < 20; ++p) {
        for (uint32_t r = 0; r < kRowsPerPage; ++r) {
          ASSERT_TRUE(
              lm_.Lock(&c, LockId::Row(0, t, p, r), LockMode::kX).ok());
        }
      }
    }
  };
  lock_rows();
  EXPECT_EQ(lm_.table().CountHeads(), high_level_heads + kRows);
  EXPECT_GT(c.cache().Capacity(), LockCache::kSlots);

  // Re-acquiring every row is answered by the cache alone.
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    lock_rows();
  }
  EXPECT_EQ(counters.Get(Counter::kLockRequests), 0u);
  EXPECT_EQ(counters.Get(Counter::kLockCacheHits), kRows);

  lm_.ReleaseAll(&c, nullptr, false);
  // Row heads are reclaimed; db/table/page heads persist for hot tracking.
  EXPECT_EQ(lm_.table().CountHeads(), high_level_heads);
  lm_.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST_F(LockManagerTest, RowHeadsReclaimedHighLevelHeadsRetained) {
  LockClient c;
  c.StartTxn(1, 0);
  ASSERT_TRUE(lm_.Lock(&c, LockId::Row(0, 1, 5, 9), LockMode::kX).ok());
  const size_t with_row = lm_.table().CountHeads();
  EXPECT_EQ(with_row, 4u);  // db + table + page + row
  lm_.ReleaseAll(&c, nullptr, false);
  // Row head goes away; db/table/page heads persist for hot tracking.
  EXPECT_EQ(lm_.table().CountHeads(), 3u);
  // A fresh acquisition reuses the persistent heads.
  c.StartTxn(2, 0);
  ASSERT_TRUE(lm_.Lock(&c, LockId::Row(0, 1, 5, 9), LockMode::kS).ok());
  EXPECT_EQ(lm_.table().CountHeads(), 4u);
  lm_.ReleaseAll(&c, nullptr, false);
}

}  // namespace
}  // namespace slidb
