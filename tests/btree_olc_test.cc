// Optimistic-lock-coupling coverage: OptLatch protocol unit tests, epoch
// manager semantics, empty-leaf reclamation, a scripted scan/reclaim
// interleaving that forces an optimistic restart, and the concurrent B-tree
// stress test (readers + inserters + removers over duplicate keys and
// split-heavy ranges) asserting no lost or phantom entries. Runs under
// TSan in CI next to the lock/log TSan jobs; thread counts are fixed, and
// nothing here asserts on how often threads happen to overlap, so the
// suite behaves the same on one CPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "src/stats/counters.h"
#include "src/storage/btree.h"
#include "src/util/epoch.h"
#include "src/util/latch.h"
#include "src/util/rng.h"

namespace slidb {
namespace {

// ---- OptLatch protocol ----

TEST(OptLatchTest, ReadValidateRoundTrip) {
  OptLatch l;
  bool restart = false;
  const uint64_t v = l.ReadLockOrRestart(&restart);
  EXPECT_FALSE(restart);
  l.CheckOrRestart(v, &restart);
  EXPECT_FALSE(restart);
}

TEST(OptLatchTest, WriteUnlockBumpsVersionAndInvalidatesReaders) {
  OptLatch l;
  bool restart = false;
  const uint64_t v = l.ReadLockOrRestart(&restart);
  ASSERT_FALSE(restart);

  l.UpgradeToWriteLockOrRestart(v, &restart);
  ASSERT_FALSE(restart);
  EXPECT_TRUE(l.IsLocked());
  l.WriteUnlock();
  EXPECT_FALSE(l.IsLocked());

  // The pre-write snapshot no longer validates.
  l.CheckOrRestart(v, &restart);
  EXPECT_TRUE(restart);

  // A fresh snapshot does.
  restart = false;
  const uint64_t v2 = l.ReadLockOrRestart(&restart);
  ASSERT_FALSE(restart);
  EXPECT_NE(v2, v);
  l.CheckOrRestart(v2, &restart);
  EXPECT_FALSE(restart);
}

TEST(OptLatchTest, UpgradeFailsOnStaleSnapshot) {
  OptLatch l;
  bool restart = false;
  const uint64_t v = l.ReadLockOrRestart(&restart);

  // Another writer gets in first.
  l.WriteLockOrRestart(&restart);
  ASSERT_FALSE(restart);
  l.WriteUnlock();

  l.UpgradeToWriteLockOrRestart(v, &restart);
  EXPECT_TRUE(restart);
  EXPECT_FALSE(l.IsLocked());  // failed upgrade must not leave it locked
}

TEST(OptLatchTest, ObsoleteRestartsAllComers) {
  OptLatch l;
  bool restart = false;
  l.WriteLockOrRestart(&restart);
  ASSERT_FALSE(restart);
  l.WriteUnlockObsolete();
  EXPECT_TRUE(l.IsObsolete());
  EXPECT_FALSE(l.IsLocked());

  restart = false;
  (void)l.ReadLockOrRestart(&restart);
  EXPECT_TRUE(restart);

  restart = false;
  l.WriteLockOrRestart(&restart);
  EXPECT_TRUE(restart);
}

TEST(OptLatchTest, WriteLockWaitsForWriter) {
  OptLatch l;
  bool restart = false;
  l.WriteLockOrRestart(&restart);
  ASSERT_FALSE(restart);

  std::atomic<bool> acquired{false};
  std::thread t([&] {
    bool rs = false;
    l.WriteLockOrRestart(&rs);
    ASSERT_FALSE(rs);
    acquired.store(true);
    l.WriteUnlock();
  });
  EXPECT_FALSE(acquired.load());
  l.WriteUnlock();
  t.join();
  EXPECT_TRUE(acquired.load());
}

// ---- epoch manager ----

void SetFlagDeleter(void* p) { *static_cast<bool*>(p) = true; }

TEST(EpochManagerTest, RetireDefersWhileOverlappingGuardActive) {
  EpochManager mgr;
  bool freed = false;
  {
    EpochManager::Guard g(mgr);  // entered before the retire: could hold
                                 // a path to the object
    mgr.Retire(&freed, SetFlagDeleter);
    mgr.ReclaimSome();
    EXPECT_FALSE(freed);
    EXPECT_EQ(mgr.pending(), 1u);
  }
  mgr.ReclaimSome();
  EXPECT_TRUE(freed);
  EXPECT_EQ(mgr.pending(), 0u);
  EXPECT_EQ(mgr.total_freed(), 1u);
}

TEST(EpochManagerTest, GuardEnteredAfterRetireDoesNotBlockReclaim) {
  EpochManager mgr;
  bool freed = false;
  mgr.Retire(&freed, SetFlagDeleter);
  EpochManager::Guard g(mgr);  // entered after: cannot reach the object
  mgr.ReclaimSome();
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, NestedGuardsKeepOutermostEpochPinned) {
  EpochManager mgr;
  bool freed = false;
  {
    EpochManager::Guard outer(mgr);
    mgr.Retire(&freed, SetFlagDeleter);
    {
      EpochManager::Guard inner(mgr);  // nesting must not re-announce
      mgr.ReclaimSome();
      EXPECT_FALSE(freed);
    }
    mgr.ReclaimSome();
    EXPECT_FALSE(freed);  // outer still pinned
  }
  mgr.ReclaimSome();
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, BatchThresholdTriggersInlineReclaim) {
  EpochManager mgr;
  std::array<bool, EpochManager::kReclaimBatch + 1> freed{};
  // No guard is active, so crossing the batch threshold frees inline —
  // without an explicit ReclaimSome() call. The retiree that lands after
  // the trigger stays pending until the next batch.
  for (bool& f : freed) mgr.Retire(&f, SetFlagDeleter);
  const auto freed_inline = static_cast<size_t>(
      std::count(freed.begin(), freed.end(), true));
  EXPECT_GE(freed_inline, EpochManager::kReclaimBatch);
  mgr.ReclaimSome();
  EXPECT_TRUE(std::all_of(freed.begin(), freed.end(),
                          [](bool f) { return f; }));
}

TEST(EpochManagerTest, DestructorDrainsPending) {
  bool freed = false;
  {
    EpochManager mgr;
    mgr.Retire(&freed, SetFlagDeleter);
  }
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, ConcurrentGuardsAndRetires) {
  EpochManager mgr;
  constexpr int kObjects = 512;
  std::atomic<int> freed{0};
  // Retire heap ints from one thread while others cycle guards.
  std::atomic<bool> stop{false};
  std::vector<std::thread> guards;
  constexpr int nguards = 3;
  for (int t = 0; t < nguards; ++t) {
    guards.emplace_back([&] {
      while (!stop.load()) {
        EpochManager::Guard g(mgr);
      }
    });
  }
  struct Obj {
    std::atomic<int>* counter;
  };
  for (int i = 0; i < kObjects; ++i) {
    auto* o = new Obj{&freed};
    mgr.Retire(o, [](void* p) {
      auto* obj = static_cast<Obj*>(p);
      obj->counter->fetch_add(1);
      delete obj;
    });
  }
  stop.store(true);
  for (auto& t : guards) t.join();
  mgr.ReclaimSome();
  mgr.ReclaimSome();  // second pass: epoch advanced past all stragglers
  EXPECT_EQ(freed.load() + static_cast<int>(mgr.pending()), kObjects);
}

// ---- empty-leaf reclamation through the epoch manager ----

TEST(BTreeOlcTest, DrainedLeavesAreUnlinkedAndRetired) {
  CounterSet counters;
  ScopedCounterSet routed(&counters);
  BTree tree;
  constexpr uint64_t kN = 4000;  // dozens of leaves at fanout 64
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Remove(i, i).ok());
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_GT(counters.Get(Counter::kBtreeLeafReclaims), 0u);
  EXPECT_GT(counters.Get(Counter::kEpochRetired), 0u);

  // The tree stays fully usable: lookups miss, reinserts land.
  uint64_t v;
  EXPECT_TRUE(tree.Lookup(17, &v).IsNotFound());
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(i, i + 1).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants());
  ASSERT_TRUE(tree.Lookup(17, &v).ok());
  EXPECT_EQ(v, 18u);
}

// ---- scripted interleaving: a scan steps onto a retired leaf ----

// A forward scan copies a leaf's batch and its `next` pointer, validates,
// and only then runs the callbacks, with nothing latched. If `next` is
// unlinked and retired meanwhile, the step onto it must see the obsolete
// version and restart from the cursor instead of walking the dead chain.
// The reader parks in its callback on key 0 while this thread drains every
// later key, so the interleaving happens on any number of CPUs.
TEST(BTreeOlcTest, ScanStepsOntoRetiredLeafAndRestarts) {
  BTree tree;
  for (uint64_t i = 0; i < 200; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());

  std::atomic<int> phase{0};  // 1: reader parked on key 0; 2: resume
  CounterSet reader_counters;
  std::vector<std::pair<uint64_t, uint64_t>> delivered;
  std::thread reader([&] {
    ScopedCounterSet routed(&reader_counters);
    tree.Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
      delivered.emplace_back(k, v);
      if (k == 0) {
        phase.store(1);
        phase.notify_all();
        for (int p = phase.load(); p != 2; p = phase.load()) phase.wait(p);
      }
      return true;
    });
  });
  for (int p = phase.load(); p != 1; p = phase.load()) phase.wait(p);

  CounterSet remover_counters;
  {
    ScopedCounterSet routed(&remover_counters);
    // Sequential inserts left leaves of 32 keys; keys 32..63 fill the
    // second leaf, the reader's saved `next`. Draining it unlinks, marks
    // obsolete and retires it while the reader still points at it.
    for (uint64_t i = 1; i < 200; ++i) EXPECT_TRUE(tree.Remove(i, i).ok());
  }
  phase.store(2);
  phase.notify_all();
  reader.join();

  EXPECT_GE(reader_counters.Get(Counter::kBtreeRestarts), 1u);
  EXPECT_GE(remover_counters.Get(Counter::kBtreeLeafReclaims), 1u);
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.front(), std::make_pair(uint64_t{0}, uint64_t{0}));
  for (size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_LT(delivered[i - 1], delivered[i]) << "at " << i;
  }
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
}

// ---- concurrent stress: no lost or phantom entries ----

// Writer t inserts pairs (key, value) with value = t << 24 | seq, so every
// pair is globally unique while keys collide heavily (duplicate-key and
// split-heavy coverage). Each writer removes a deterministic subset of its
// own entries; the final tree must equal exactly the union of what every
// writer kept.
TEST(BTreeOlcStressTest, ReadersInsertersRemoversConverge) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  const int kOpsPerWriter = 6000;
  const uint64_t kKeySpace = 512;  // narrow: constant splits + duplicates

  BTree tree;
  std::atomic<int> writers_done{0};
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kept(kWriters);

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<std::pair<uint64_t, uint64_t>> mine;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const uint64_t key = rng.Uniform(0, kKeySpace - 1);
        const uint64_t value =
            (static_cast<uint64_t>(t) << 24) | static_cast<uint64_t>(i);
        ASSERT_TRUE(tree.Insert(key, value).ok());
        mine.emplace_back(key, value);
        // Remove an older own entry every third insert: leaves drain and
        // split-merge churn overlaps the readers.
        if (i % 3 == 2) {
          const auto victim = mine[mine.size() - 2];
          ASSERT_TRUE(tree.Remove(victim.first, victim.second).ok());
          mine.erase(mine.end() - 2);
        }
      }
      kept[t] = std::move(mine);
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(77 + r);
      // Minimum iteration count guarantees coverage even when all writers
      // finish before this thread is first scheduled (single-CPU hosts).
      for (int i = 0; i < 300 || writers_done.load() < kWriters; ++i) {
        const uint64_t lo = rng.Uniform(0, kKeySpace - 1);
        const uint64_t hi = std::min<uint64_t>(lo + 32, kKeySpace - 1);
        uint64_t pk = 0, pv = 0;
        bool first = true;
        tree.Scan(lo, hi, [&](uint64_t k, uint64_t v) {
          // Delivered stream must be ordered by (key, value) with bounds
          // respected — a torn read or duplicated resume would break this.
          EXPECT_GE(k, lo);
          EXPECT_LE(k, hi);
          if (!first) {
            EXPECT_TRUE(k > pk || (k == pk && v > pv));
          }
          first = false;
          pk = k;
          pv = v;
          return true;
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  // Exact content check: everything kept is present (no lost entries),
  // nothing else is (no phantoms).
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (auto& v : kept) {
    expected.insert(expected.end(), v.begin(), v.end());
  }
  std::sort(expected.begin(), expected.end());
  std::vector<std::pair<uint64_t, uint64_t>> actual;
  tree.Scan(0, kKeySpace, [&](uint64_t k, uint64_t v) {
    actual.emplace_back(k, v);
    return true;
  });
  EXPECT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(tree.size(), expected.size());
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace slidb
