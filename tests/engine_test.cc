// Engine facade integration tests: transactional CRUD with hierarchical
// locking, undo on abort, index maintenance, SLI end-to-end through the
// transaction manager, and concurrent correctness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/database.h"

namespace slidb {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

DatabaseOptions TestOptions() {
  DatabaseOptions o;
  o.buffer.num_frames = 1024;
  o.lock.lock_timeout_us = 2'000'000;
  o.log.flush_interval_us = 50;
  return o;
}

TEST(EngineTest, InsertReadUpdateDelete) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("hello!"), &rid).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  char buf[6];
  ASSERT_TRUE(db.Read(agent.get(), t, rid, buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "hello!", 6), 0);
  ASSERT_TRUE(db.Update(agent.get(), t, rid, Bytes("HELLO!")).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  ASSERT_TRUE(db.Delete(agent.get(), t, rid).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  EXPECT_TRUE(db.Read(agent.get(), t, rid, buf, 6).IsNotFound());
  ASSERT_TRUE(db.Commit(agent.get()).ok());
}

TEST(EngineTest, AbortUndoesInsert) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("ghost!"), &rid).ok());
  db.Abort(agent.get());

  db.Begin(agent.get());
  char buf[6];
  EXPECT_TRUE(db.Read(agent.get(), t, rid, buf, 6).IsNotFound());
  ASSERT_TRUE(db.Commit(agent.get()).ok());
}

TEST(EngineTest, AbortUndoesUpdate) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("before"), &rid).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  ASSERT_TRUE(db.Update(agent.get(), t, rid, Bytes("after!")).ok());
  db.Abort(agent.get());

  db.Begin(agent.get());
  char buf[6];
  ASSERT_TRUE(db.Read(agent.get(), t, rid, buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "before", 6), 0);
  ASSERT_TRUE(db.Commit(agent.get()).ok());
}

TEST(EngineTest, AbortUndoesDeletePreservingRid) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("keeper"), &rid).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  ASSERT_TRUE(db.Delete(agent.get(), t, rid).ok());
  db.Abort(agent.get());

  // The record must be back under its ORIGINAL rid.
  db.Begin(agent.get());
  char buf[6];
  ASSERT_TRUE(db.Read(agent.get(), t, rid, buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "keeper", 6), 0);
  ASSERT_TRUE(db.Commit(agent.get()).ok());
}

TEST(EngineTest, IndexMaintenanceWithUndo) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  const IndexId idx = db.CreateIndex(t, "pk", IndexKind::kBTree, true);
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("indexed"), &rid).ok());
  ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 42, rid.ToU64()).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  uint64_t v;
  ASSERT_TRUE(db.IndexLookup(idx, 42, &v).ok());
  EXPECT_EQ(v, rid.ToU64());

  // Abort rolls the index entry back out.
  db.Begin(agent.get());
  Rid rid2;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("aborted"), &rid2).ok());
  ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 43, rid2.ToU64()).ok());
  db.Abort(agent.get());
  EXPECT_TRUE(db.IndexLookup(idx, 43, &v).IsNotFound());

  // Unique index rejects duplicates.
  db.Begin(agent.get());
  EXPECT_TRUE(db.IndexInsert(agent.get(), idx, 42, 999).IsKeyExists());
  db.Abort(agent.get());
  ASSERT_TRUE(db.IndexLookup(idx, 42, &v).ok());
  EXPECT_EQ(v, rid.ToU64());
}

TEST(EngineTest, IndexRemoveUndoneOnAbort) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  const IndexId idx = db.CreateIndex(t, "sk", IndexKind::kHash, false);
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 1, 100).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  ASSERT_TRUE(db.IndexRemove(agent.get(), idx, 1, 100).ok());
  db.Abort(agent.get());

  uint64_t v;
  ASSERT_TRUE(db.IndexLookup(idx, 1, &v).ok());
  EXPECT_EQ(v, 100u);
}

TEST(EngineTest, AbortUndoesNewestFirst) {
  // An abort walks its own log records newest first. Rolled back oldest
  // first, the first row would keep its intermediate value, and the
  // deleted row and its index entry would come back.
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  const IndexId idx = db.CreateIndex(t, "pk", IndexKind::kBTree, true);
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid kept;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("origin"), &kept).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  ASSERT_TRUE(db.Update(agent.get(), t, kept, Bytes("first!")).ok());
  ASSERT_TRUE(db.Update(agent.get(), t, kept, Bytes("second")).ok());
  Rid doomed;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("doomed"), &doomed).ok());
  ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 7, doomed.ToU64()).ok());
  ASSERT_TRUE(db.IndexRemove(agent.get(), idx, 7, doomed.ToU64()).ok());
  ASSERT_TRUE(db.Delete(agent.get(), t, doomed).ok());
  db.Abort(agent.get());

  db.Begin(agent.get());
  char buf[6];
  ASSERT_TRUE(db.Read(agent.get(), t, kept, buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "origin", 6), 0);
  EXPECT_TRUE(db.Read(agent.get(), t, doomed, buf, 6).IsNotFound());
  ASSERT_TRUE(db.Commit(agent.get()).ok());
  uint64_t v;
  EXPECT_TRUE(db.IndexLookup(idx, 7, &v).IsNotFound());
}

TEST(EngineTest, AbortAfterPartialPublishRestoresEveryRow) {
  // The staging watermark publishes a long transaction's records before
  // it ends. The buffer keeps them, so an abort still undoes every write,
  // not only the ones staged since the last publish.
  DatabaseOptions o = TestOptions();
  o.txn.staging_flush_bytes = 64;
  Database db(o);
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();
  constexpr int kRows = 8;
  std::vector<Rid> rids(kRows);
  db.Begin(agent.get());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("old-" + std::to_string(i)),
                          &rids[i])
                    .ok());
  }
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  db.Begin(agent.get());
  const uint64_t records_before = db.log_manager().Stats().records;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        db.Update(agent.get(), t, rids[i], Bytes("new-" + std::to_string(i)))
            .ok());
  }
  EXPECT_GT(db.log_manager().Stats().records, records_before)
      << "the watermark should have published a partial batch";
  db.Abort(agent.get());

  db.Begin(agent.get());
  for (int i = 0; i < kRows; ++i) {
    std::string row;
    ASSERT_TRUE(db.ReadString(agent.get(), t, rids[i], &row).ok());
    EXPECT_EQ(row, "old-" + std::to_string(i)) << "row " << i;
  }
  ASSERT_TRUE(db.Commit(agent.get()).ok());
}

TEST(EngineTest, WriteConflictSerializes) {
  Database db(TestOptions());
  const TableId t = db.CreateTable("t");
  auto a1 = db.CreateAgent();
  auto a2 = db.CreateAgent();

  db.Begin(a1.get());
  Rid rid;
  uint64_t zero = 0;
  ASSERT_TRUE(db.Insert(a1.get(), t,
                        {reinterpret_cast<const uint8_t*>(&zero), 8}, &rid)
                  .ok());
  ASSERT_TRUE(db.Commit(a1.get()).ok());

  // Concurrent read-modify-write increments: must not lose updates.
  constexpr int kIters = 200;
  auto worker = [&](AgentContext* agent) {
    for (int i = 0; i < kIters; ++i) {
      for (;;) {
        db.Begin(agent);
        uint64_t v;
        // Lock X up front (SELECT FOR UPDATE) to avoid upgrade deadlocks.
        Status st = db.LockRowExclusive(agent, t, rid);
        if (st.ok()) st = db.Read(agent, t, rid, &v, 8);
        if (st.ok()) {
          ++v;
          st = db.Update(agent, t, rid,
                         {reinterpret_cast<const uint8_t*>(&v), 8});
        }
        if (st.ok()) {
          ASSERT_TRUE(db.Commit(agent).ok());
          break;
        }
        db.Abort(agent);
        ASSERT_TRUE(st.retryable()) << st.ToString();
      }
    }
  };
  std::thread t1(worker, a1.get());
  std::thread t2(worker, a2.get());
  t1.join();
  t2.join();

  db.Begin(a1.get());
  uint64_t final_v;
  ASSERT_TRUE(db.Read(a1.get(), t, rid, &final_v, 8).ok());
  ASSERT_TRUE(db.Commit(a1.get()).ok());
  EXPECT_EQ(final_v, 2u * kIters);
}

TEST(EngineTest, SliEndToEndThroughTransactionManager) {
  DatabaseOptions o = TestOptions();
  o.lock.sli_mode = SliMode::kOn;
  o.lock.hot_min_contended = 0;  // every head hot: deterministic inheritance
  Database db(o);
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();

  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("sli-row!"), &rid).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    // Consecutive read transactions on the same agent: the table IS and
    // database IS locks must flow through SLI instead of the lock manager.
    for (int i = 0; i < 10; ++i) {
      db.Begin(agent.get());
      char buf[8];
      ASSERT_TRUE(db.Read(agent.get(), t, rid, buf, 8).ok());
      ASSERT_TRUE(db.Commit(agent.get()).ok());
    }
  }
  EXPECT_GT(counters.Get(Counter::kSliInherited), 0u);
  EXPECT_GT(counters.Get(Counter::kSliReclaimed), 0u);
}

TEST(EngineTest, ConcurrentAgentsWithSliKeepBalanceInvariant) {
  // Mini TPC-B-like invariant check: total of all account balances is
  // conserved by transfer transactions, with SLI on.
  DatabaseOptions o = TestOptions();
  o.lock.sli_mode = SliMode::kOn;
  Database db(o);
  const TableId t = db.CreateTable("accounts");
  const IndexId idx = db.CreateIndex(t, "pk", IndexKind::kHash, true);

  constexpr int kAccounts = 64;
  constexpr int64_t kInitial = 1000;
  auto setup = db.CreateAgent();
  db.Begin(setup.get());
  for (int i = 0; i < kAccounts; ++i) {
    int64_t bal = kInitial;
    Rid rid;
    ASSERT_TRUE(db.Insert(setup.get(), t,
                          {reinterpret_cast<const uint8_t*>(&bal), 8}, &rid)
                    .ok());
    ASSERT_TRUE(db.IndexInsert(setup.get(), idx, i, rid.ToU64()).ok());
  }
  ASSERT_TRUE(db.Commit(setup.get()).ok());

  constexpr int kThreads = 4;
  constexpr int kTransfers = 300;
  std::vector<std::unique_ptr<AgentContext>> agents;
  for (int i = 0; i < kThreads; ++i) agents.push_back(db.CreateAgent(i));
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      AgentContext* agent = agents[ti].get();
      Rng rng(ti + 99);
      for (int i = 0; i < kTransfers; ++i) {
        const uint64_t from = rng.Uniform(0, kAccounts - 1);
        uint64_t to = rng.Uniform(0, kAccounts - 1);
        if (to == from) to = (to + 1) % kAccounts;
        // Deadlock avoidance: lock in account-id order.
        const uint64_t lo = std::min(from, to), hi = std::max(from, to);
        for (;;) {
          db.Begin(agent);
          uint64_t rid_lo, rid_hi;
          ASSERT_TRUE(db.IndexLookup(idx, lo, &rid_lo).ok());
          ASSERT_TRUE(db.IndexLookup(idx, hi, &rid_hi).ok());
          int64_t bal_lo, bal_hi;
          Status st = db.LockRowExclusive(agent, t, Rid::FromU64(rid_lo));
          if (st.ok()) st = db.LockRowExclusive(agent, t, Rid::FromU64(rid_hi));
          if (st.ok()) st = db.Read(agent, t, Rid::FromU64(rid_lo), &bal_lo, 8);
          if (st.ok()) st = db.Read(agent, t, Rid::FromU64(rid_hi), &bal_hi, 8);
          if (st.ok()) {
            const int64_t amount = static_cast<int64_t>(rng.Uniform(1, 50));
            bal_lo -= amount;
            bal_hi += amount;
            st = db.Update(agent, t, Rid::FromU64(rid_lo),
                           {reinterpret_cast<const uint8_t*>(&bal_lo), 8});
            if (st.ok()) {
              st = db.Update(agent, t, Rid::FromU64(rid_hi),
                             {reinterpret_cast<const uint8_t*>(&bal_hi), 8});
            }
          }
          if (st.ok()) {
            ASSERT_TRUE(db.Commit(agent).ok());
            break;
          }
          db.Abort(agent);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Invariant: sum of balances unchanged.
  db.Begin(setup.get());
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    uint64_t rid;
    ASSERT_TRUE(db.IndexLookup(idx, i, &rid).ok());
    int64_t bal;
    ASSERT_TRUE(db.Read(setup.get(), t, Rid::FromU64(rid), &bal, 8).ok());
    total += bal;
  }
  ASSERT_TRUE(db.Commit(setup.get()).ok());
  EXPECT_EQ(total, static_cast<int64_t>(kAccounts) * kInitial);
}

}  // namespace
}  // namespace slidb
