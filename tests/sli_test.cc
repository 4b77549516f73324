// Speculative Lock Inheritance protocol tests (paper Section 4): the five
// eligibility criteria and criterion 2's heat threshold, inherit/reclaim/
// invalidate/discard outcomes, the CAS arbitration, orphan handling, and
// concurrency invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/stats/counters.h"
#include "src/util/rng.h"

namespace slidb {
namespace {

constexpr uint32_t kDefaultHotMin = LockManagerOptions{}.hot_min_contended;

/// SLI on. Heat threshold 0 (the default here) makes every head hot, so
/// criterion 2 passes without real contention; tests of criterion 2 itself
/// pass kDefaultHotMin.
LockManagerOptions SliOptions(uint32_t hot_min_contended = 0) {
  LockManagerOptions o;
  o.sli_mode = SliMode::kOn;
  o.hot_min_contended = hot_min_contended;
  o.lock_timeout_us = 2'000'000;
  return o;
}

/// Drives one agent's transaction loop the way the transaction manager does.
struct Agent {
  explicit Agent(LockManager* lm, uint32_t id) : lm(lm), sli(id) {
    client.SetPool(&sli.pool());
  }

  void Begin(uint64_t txn_id) {
    client.StartTxn(txn_id, sli.agent_id());
    lm->AdoptInherited(&client, &sli);
  }

  void Commit() { lm->ReleaseAll(&client, &sli, /*allow_inherit=*/true); }
  void Abort() { lm->ReleaseAll(&client, &sli, /*allow_inherit=*/false); }

  LockManager* lm;
  AgentSliState sli;
  LockClient client;
};

/// Saturate the heat window of `id`'s head, for tests that need one head
/// hot and another cold at the default threshold.
void ForceHot(LockClient& c, const LockId& id) {
  LockRequest* r = c.cache().Find(id);
  ASSERT_NE(r, nullptr) << id.ToString();
  r->head->hot.ForceHot();
}

/// Poll until the client is provably parked in a lock wait — deterministic
/// replacement for sleep-sized enqueue windows (ROADMAP test hygiene);
/// bounded so a broken enqueue path fails rather than hangs.
void WaitUntilBlocked(LockClient& c) {
  for (int i = 0; i < 20'000; ++i) {
    if (c.waiting_on().load(std::memory_order_acquire) != nullptr) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "client never entered a lock wait";
}

TEST(SliTest, HotSharedTableLockIsInherited) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);

  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());

  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  EXPECT_EQ(counters.Get(Counter::kSliInherited), 2u);  // db IS + table S
  EXPECT_EQ(a.sli.inherited_count(), 2u);
  // The inherited requests are still in their queues, status kInherited.
  for (LockRequest* r = a.sli.inherited_head(); r != nullptr;
       r = r->agent_next) {
    EXPECT_EQ(r->status.load(), RequestStatus::kInherited);
  }
}

TEST(SliTest, NextTransactionReclaimsWithoutLockManagerCall) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);

  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  LockRequest* original = a.client.cache().Find(LockId::Table(0, 1));
  a.Commit();

  CounterSet counters;
  a.Begin(2);
  {
    ScopedCounterSet routed(&counters);
    ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  }
  // Same request object, reclaimed via CAS, no slow-path lock request.
  EXPECT_EQ(a.client.cache().Find(LockId::Table(0, 1)), original);
  EXPECT_EQ(counters.Get(Counter::kSliReclaimed), 2u);  // db + table
  EXPECT_EQ(counters.Get(Counter::kLockRequests), 0u);
  EXPECT_EQ(original->status.load(), RequestStatus::kGranted);
  a.Commit();
}

TEST(SliTest, UnusedInheritedLockDiscardedAtNextCommit) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);

  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  a.Commit();
  ASSERT_EQ(a.sli.inherited_count(), 2u);

  // Transaction 2 never touches table 1.
  CounterSet counters;
  a.Begin(2);
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  EXPECT_EQ(counters.Get(Counter::kSliDiscarded), 2u);
  EXPECT_EQ(a.sli.inherited_count(), 0u);
  // Queues drained: nothing is left granted.
  lm.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST(SliTest, ConflictingRequestInvalidatesInheritedLock) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);

  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  a.Commit();

  // A competing client requests X: must invalidate the inherited S and
  // proceed without blocking (the inheritance was speculative only).
  LockClient other;
  other.StartTxn(50, 1);
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    ASSERT_TRUE(lm.Lock(&other, LockId::Table(0, 1), LockMode::kX).ok());
  }
  EXPECT_EQ(counters.Get(Counter::kSliInvalidated), 1u);
  lm.ReleaseAll(&other, nullptr, false);

  // The agent's next transaction cannot reclaim; it takes the slow path.
  a.Begin(2);
  CounterSet counters2;
  {
    ScopedCounterSet routed(&counters2);
    ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  }
  EXPECT_EQ(counters2.Get(Counter::kSliReclaimed), 1u);  // db IS survived
  EXPECT_GE(counters2.Get(Counter::kLockRequests), 1u);  // table S re-acquired
  a.Commit();
}

TEST(SliTest, InvalidRequestsGarbageCollectedAtCommit) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);

  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  a.Commit();

  LockClient other;
  other.StartTxn(50, 1);
  ASSERT_TRUE(lm.Lock(&other, LockId::Table(0, 1), LockMode::kX).ok());
  lm.ReleaseAll(&other, nullptr, false);

  const size_t live_before = a.sli.pool().live();
  a.Begin(2);
  a.Commit();  // GC pass frees the invalidated request
  EXPECT_LT(a.sli.pool().live(), live_before);
}

// ---- The five criteria (paper §4.2) ----

TEST(SliTest, Criterion1RowLocksNotInherited) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);
  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Row(0, 1, 2, 3), LockMode::kS).ok());
  // Every head is hot, so only the level criterion can reject.
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  // db IS, table IS, page IS inherited; row S not.
  EXPECT_EQ(counters.Get(Counter::kSliInherited), 3u);
  for (LockRequest* r = a.sli.inherited_head(); r != nullptr;
       r = r->agent_next) {
    EXPECT_NE(r->head->id.level, LockLevel::kRow);
  }
}

TEST(SliTest, Criterion2ColdLocksNotInherited) {
  LockManager lm(SliOptions(kDefaultHotMin));
  Agent a(&lm, 0);
  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  // No contention at the default threshold: the head is cold.
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  EXPECT_EQ(counters.Get(Counter::kSliInherited), 0u);
}

TEST(SliTest, Criterion3ExclusiveModesNotInherited) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);
  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kX).ok());
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  // The db IX is heritable; the table X is not.
  EXPECT_EQ(counters.Get(Counter::kSliInherited), 1u);
  ASSERT_EQ(a.sli.inherited_count(), 1u);
  EXPECT_EQ(a.sli.inherited_head()->head->id, LockId::Database(0));
}

TEST(SliTest, Criterion4WaiterBlocksInheritance) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);
  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());

  // A conflicting writer queues up and waits.
  LockClient writer;
  writer.StartTxn(99, 1);
  std::thread t([&] {
    EXPECT_TRUE(lm.Lock(&writer, LockId::Table(0, 1), LockMode::kX).ok());
    lm.ReleaseAll(&writer, nullptr, false);
  });
  // The waiter must provably be enqueued before the commit, or the
  // released-vs-inherited decision under test is not the one exercised.
  WaitUntilBlocked(writer);

  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  t.join();
  // The table lock had a waiter → released, not inherited. The db lock has
  // no waiter (writer takes IX there, compatible) → inherited.
  EXPECT_EQ(counters.Get(Counter::kSliDiscarded), 0u);
  for (LockRequest* r = a.sli.inherited_head(); r != nullptr;
       r = r->agent_next) {
    EXPECT_EQ(r->head->id, LockId::Database(0));
  }
}

TEST(SliTest, Criterion5ParentIneligibleBlocksChild) {
  LockManager lm(SliOptions(kDefaultHotMin));
  Agent a(&lm, 0);
  a.Begin(1);
  // Page lock hot, table lock cold → page may not be inherited (parent
  // fails criterion 2) even though the page itself qualifies.
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Page(0, 1, 7), LockMode::kIS).ok());
  ForceHot(a.client, LockId::Page(0, 1, 7));
  ForceHot(a.client, LockId::Database(0));
  // Table stays cold.
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  for (LockRequest* r = a.sli.inherited_head(); r != nullptr;
       r = r->agent_next) {
    EXPECT_EQ(r->head->id, LockId::Database(0));
  }
}

TEST(SliTest, AbortDoesNotInherit) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);
  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  a.Abort();
  EXPECT_EQ(a.sli.inherited_count(), 0u);
  lm.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST(SliTest, SliInducedDeadlockAvoidedByInvalidation) {
  // Paper Figure 4: agent A inherits L1; agent B acquires L1 in X mode
  // before A's next transaction reclaims it. Without invalidation A would
  // hold L1 "out of order". With it, B's request simply kills the
  // speculation and no deadlock arises.
  LockManager lm(SliOptions());
  Agent a(&lm, 0);

  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 7), LockMode::kS).ok());
  a.Commit();

  LockClient b;
  b.StartTxn(100, 1);
  // B must acquire X immediately — the inherited S is speculative and gets
  // invalidated rather than blocking B.
  ASSERT_TRUE(lm.Lock(&b, LockId::Table(0, 7), LockMode::kX).ok());

  // Meanwhile A's next transaction tries to use its inheritance: the
  // reclaim fails and A blocks behind B like any normal requester.
  std::atomic<bool> a_done{false};
  std::thread ta([&] {
    a.Begin(2);
    EXPECT_TRUE(lm.Lock(&a.client, LockId::Table(0, 7), LockMode::kS).ok());
    a_done.store(true);
    a.Commit();
  });
  WaitUntilBlocked(a.client);
  EXPECT_FALSE(a_done.load());
  lm.ReleaseAll(&b, nullptr, false);
  ta.join();
  EXPECT_TRUE(a_done.load());
}

TEST(SliTest, ReclaimThenUpgradeWorks) {
  LockManager lm(SliOptions());
  Agent a(&lm, 0);
  a.Begin(1);
  ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kIS).ok());
  a.Commit();

  a.Begin(2);
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    // Needs IX: reclaims the IS then upgrades.
    ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kIX).ok());
  }
  // Both the table IS and its inherited db IS parent upgrade to IX.
  EXPECT_EQ(counters.Get(Counter::kSliUpgradeAfterReclaim), 2u);
  LockRequest* r = a.client.cache().Find(LockId::Table(0, 1));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mode, LockMode::kIX);
  LockRequest* dbr = a.client.cache().Find(LockId::Database(0));
  ASSERT_NE(dbr, nullptr);
  EXPECT_EQ(dbr->mode, LockMode::kIX);
  a.Commit();
}

TEST(SliTest, OutcomeAccountingBalances) {
  // Every inherited lock ends as exactly one of reclaimed / invalidated /
  // discarded (or still pending in the agent list).
  LockManager lm(SliOptions());
  Agent a(&lm, 0);
  LockClient intruder;
  Rng rng(7);

  CounterSet counters;
  ScopedCounterSet routed(&counters);
  for (uint64_t txn = 1; txn <= 200; ++txn) {
    a.Begin(txn);
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(1, 3));
    ASSERT_TRUE(lm.Lock(&a.client, LockId::Table(0, t), LockMode::kS).ok());
    a.Commit();

    if (rng.Bernoulli(0.3)) {
      intruder.StartTxn(100000 + txn, 1);
      const uint32_t it = static_cast<uint32_t>(rng.Uniform(1, 3));
      ASSERT_TRUE(lm.Lock(&intruder, LockId::Table(0, it), LockMode::kX).ok());
      lm.ReleaseAll(&intruder, nullptr, false);
    }
  }
  // Flush: run two empty transactions so stragglers get discarded/GCed.
  a.Begin(10001);
  a.Commit();
  a.Begin(10002);
  a.Commit();

  const uint64_t inherited = counters.Get(Counter::kSliInherited);
  const uint64_t reclaimed = counters.Get(Counter::kSliReclaimed);
  const uint64_t invalidated = counters.Get(Counter::kSliInvalidated);
  const uint64_t discarded = counters.Get(Counter::kSliDiscarded);
  EXPECT_GT(inherited, 0u);
  // Reclaimed locks can be re-inherited, so: inherited == reclaimed +
  // invalidated + discarded + still-pending(0 after the flush).
  EXPECT_EQ(inherited, reclaimed + invalidated + discarded)
      << "inh=" << inherited << " rec=" << reclaimed << " inv=" << invalidated
      << " disc=" << discarded;
}

TEST(SliTest, ConcurrentAgentsMutualExclusionPreserved) {
  // The serializability smoke test with SLI on and every head hot: X row
  // updates are never lost while table and database intent locks flow
  // between transactions.
  LockManager lm(SliOptions());

  constexpr int kAgents = 4;
  constexpr int kIters = 400;
  int64_t value = 0;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < kAgents; ++i) {
    agents.push_back(std::make_unique<Agent>(&lm, i));
  }
  std::vector<CounterSet> per_thread(kAgents);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> next_txn{1};
  for (int i = 0; i < kAgents; ++i) {
    threads.emplace_back([&, i] {
      ScopedCounterSet routed(&per_thread[i]);
      Agent* ag = agents[i].get();
      for (int iter = 0; iter < kIters; ++iter) {
        ag->Begin(next_txn.fetch_add(1));
        Status st = lm.Lock(&ag->client, LockId::Row(0, 1, 1, 1), LockMode::kX);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ++value;
        ag->Commit();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(value, static_cast<int64_t>(kAgents) * kIters);
  // The X row is never heritable (criteria 1 and 3); its intent-lock
  // parents are.
  uint64_t inherits = 0;
  for (const CounterSet& c : per_thread) {
    inherits += c.Get(Counter::kSliInherited);
  }
  EXPECT_GT(inherits, 0u);
}

// ---- criterion 2's threshold ----

/// Commits one table-S transaction and returns how many locks it
/// inherited; `hot` saturates the table and database windows first.
uint64_t InheritedByOneCommit(const LockManagerOptions& o, bool hot) {
  LockManager lm(o);
  Agent a(&lm, 0);
  a.Begin(1);
  EXPECT_TRUE(lm.Lock(&a.client, LockId::Table(0, 1), LockMode::kS).ok());
  if (hot) {
    ForceHot(a.client, LockId::Table(0, 1));
    ForceHot(a.client, LockId::Database(0));
  }
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    a.Commit();
  }
  EXPECT_EQ(a.sli.inherited_count(), counters.Get(Counter::kSliInherited));
  return counters.Get(Counter::kSliInherited);
}

TEST(SliTest, OnModeInheritsAtBothThresholds) {
  // A cold window: the default threshold rejects the db IS and the table S;
  // threshold 0 counts every head as hot and inherits both.
  EXPECT_EQ(InheritedByOneCommit(SliOptions(kDefaultHotMin), false), 0u);
  EXPECT_EQ(InheritedByOneCommit(SliOptions(0), false), 2u);
  // A hot window passes the default threshold.
  EXPECT_EQ(InheritedByOneCommit(SliOptions(kDefaultHotMin), true), 2u);
  // SLI off inherits nothing, even with every head hot.
  LockManagerOptions off = SliOptions(0);
  off.sli_mode = SliMode::kOff;
  EXPECT_EQ(InheritedByOneCommit(off, true), 0u);
  EXPECT_STREQ(SliModeName(SliMode::kOff), "sli_off");
  EXPECT_STREQ(SliModeName(SliMode::kOn), "sli_on");
}

}  // namespace
}  // namespace slidb
