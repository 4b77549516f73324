// Transaction manager tests: lifecycle, durability interaction, the
// commit pipeline's early-lock-release phase split, the durability horizon
// each lock mode notes, and SLI hand-off across the Begin/Commit boundary. Undo through the logged records is covered
// end to end in engine_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <thread>
#include <vector>

#include "src/buffer/volume.h"
#include "src/engine/catalog.h"
#include "src/txn/transaction_manager.h"

namespace slidb {
namespace {

struct TxnHarness {
  TxnHarness() {
    lock_manager = std::make_unique<LockManager>();
    LogOptions logo;
    logo.flush_interval_us = 50;
    log_manager = std::make_unique<LogManager>(logo);
    txn_manager = std::make_unique<TransactionManager>(
        lock_manager.get(), log_manager.get(), &catalog);
  }
  Catalog catalog;  // no tables: these tests abort no writes
  std::unique_ptr<LockManager> lock_manager;
  std::unique_ptr<LogManager> log_manager;
  std::unique_ptr<TransactionManager> txn_manager;
};

TEST(TxnTest, BeginAssignsMonotonicIds) {
  TxnHarness h;
  AgentContext agent(0);
  Transaction* t1 = h.txn_manager->Begin(&agent);
  const uint64_t id1 = t1->id();
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  Transaction* t2 = h.txn_manager->Begin(&agent);
  EXPECT_GT(t2->id(), id1);
  h.txn_manager->Abort(&agent);
}

TEST(TxnTest, StateTransitions) {
  TxnHarness h;
  AgentContext agent(0);
  Transaction* t = h.txn_manager->Begin(&agent);
  EXPECT_EQ(t->state(), TxnState::kActive);
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  EXPECT_EQ(t->state(), TxnState::kCommitted);

  h.txn_manager->Begin(&agent);
  h.txn_manager->Abort(&agent);
  EXPECT_EQ(t->state(), TxnState::kAborted);
}

TEST(TxnTest, CommitOfInactiveTxnRejected) {
  TxnHarness h;
  AgentContext agent(0);
  h.txn_manager->Begin(&agent);
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  EXPECT_TRUE(h.txn_manager->Commit(&agent).IsInvalidArgument());
  h.txn_manager->Abort(&agent);  // no-op on inactive txn
}

TEST(TxnTest, CommitWaitsForDurability) {
  TxnHarness h;
  AgentContext agent(0);
  h.txn_manager->Begin(&agent);
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  // The commit record must be durable by the time Commit returns.
  EXPECT_GE(h.log_manager->durable_lsn(), h.log_manager->appended_lsn());
}

TEST(TxnTest, LocksReleasedOnCommitAndAbort) {
  TxnHarness h;
  AgentContext agent(0);
  h.txn_manager->Begin(&agent);
  ASSERT_TRUE(h.lock_manager
                  ->Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                         LockMode::kX)
                  .ok());
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());

  // Another client can now take the conflicting lock instantly.
  LockClient other;
  other.StartTxn(1000, 9);
  ASSERT_TRUE(h.lock_manager->Lock(&other, LockId::Table(0, 1), LockMode::kX)
                  .ok());
  h.lock_manager->ReleaseAll(&other, nullptr, false);

  h.txn_manager->Begin(&agent);
  ASSERT_TRUE(h.lock_manager
                  ->Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                         LockMode::kX)
                  .ok());
  h.txn_manager->Abort(&agent);
  other.StartTxn(1001, 9);
  ASSERT_TRUE(h.lock_manager->Lock(&other, LockId::Table(0, 1), LockMode::kX)
                  .ok());
  h.lock_manager->ReleaseAll(&other, nullptr, false);
}

TEST(TxnTest, SliFlowsThroughBeginCommitBoundary) {
  TxnHarness h;
  h.lock_manager->mutable_options().sli_mode = SliMode::kOn;
  h.lock_manager->mutable_options().hot_min_contended = 0;  // every head hot
  AgentContext agent(0);

  h.txn_manager->Begin(&agent);
  ASSERT_TRUE(h.lock_manager
                  ->Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                         LockMode::kS)
                  .ok());
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  EXPECT_GT(agent.sli().inherited_count(), 0u);

  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    h.txn_manager->Begin(&agent);
    ASSERT_TRUE(h.lock_manager
                    ->Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                           LockMode::kS)
                    .ok());
    ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  }
  EXPECT_GT(counters.Get(Counter::kSliReclaimed), 0u);
}

TEST(TxnTest, AbortPreservesAgentSpeculation) {
  // A user abort (e.g. TM1 invalid input) must not throw away the agent's
  // inherited locks — the next transaction can still reclaim them.
  TxnHarness h;
  h.lock_manager->mutable_options().sli_mode = SliMode::kOn;
  h.lock_manager->mutable_options().hot_min_contended = 0;  // every head hot
  AgentContext agent(0);

  h.txn_manager->Begin(&agent);
  ASSERT_TRUE(h.lock_manager
                  ->Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                         LockMode::kS)
                  .ok());
  ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  const size_t inherited = agent.sli().inherited_count();
  ASSERT_GT(inherited, 0u);

  // Aborting transaction that never touches the locks.
  h.txn_manager->Begin(&agent);
  h.txn_manager->Abort(&agent);
  EXPECT_EQ(agent.sli().inherited_count(), inherited);

  // And the next transaction reclaims.
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    h.txn_manager->Begin(&agent);
    ASSERT_TRUE(h.lock_manager
                    ->Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                           LockMode::kS)
                    .ok());
    ASSERT_TRUE(h.txn_manager->Commit(&agent).ok());
  }
  EXPECT_GT(counters.Get(Counter::kSliReclaimed), 0u);
}

/// Blocks every log pass's device write until the test opens the gate,
/// putting the durability point under test control.
struct FlushGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Install(LogOptions* o) {
    o->flush_sink = [this](const uint8_t*, size_t, Lsn) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [this] { return open; });
    };
  }
  void Open() {
    {
      std::lock_guard<std::mutex> g(mu);
      open = true;
    }
    cv.notify_all();
  }
};

TEST(TxnTest, EarlyLockReleaseDropsLocksBeforeDurability) {
  FlushGate gate;
  LockManager lock_manager;
  LogOptions logo;
  logo.flush_interval_us = 50;
  gate.Install(&logo);
  LogManager log_manager(logo);
  Catalog catalog;
  TransactionManager tm(&lock_manager, &log_manager, &catalog);

  AgentContext agent(0);
  tm.Begin(&agent);
  ASSERT_TRUE(lock_manager
                  .Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                        LockMode::kX)
                  .ok());
  // A logged mutation makes this a write transaction: read-only commits
  // skip the log-insert/wait-durable phases entirely.
  const uint8_t img[4] = {1, 2, 3, 4};
  tm.LogHeapOp(&agent, LogRecordType::kUpdate, 1, Rid{0, 0}, {}, img);

  std::atomic<bool> commit_done{false};
  std::thread committer([&] {
    EXPECT_TRUE(tm.Commit(&agent).ok());
    commit_done.store(true, std::memory_order_release);
  });

  // The conflicting lock must become available while the commit record is
  // still stuck behind the gated flush: phase 2 (lock release) runs before
  // phase 3 (wait-durable).
  LockClient other;
  other.StartTxn(1000, 9);
  ASSERT_TRUE(lock_manager.Lock(&other, LockId::Table(0, 1), LockMode::kX)
                  .ok());
  EXPECT_FALSE(commit_done.load(std::memory_order_acquire));
  EXPECT_LT(log_manager.durable_lsn(), log_manager.reserved_lsn());
  lock_manager.ReleaseAll(&other, nullptr, false);

  gate.Open();
  committer.join();
  EXPECT_TRUE(commit_done.load());
}

TEST(TxnTest, ReadOnlyCommitWaitsForObservedWritersDurability) {
  // ELR hazard regression: writer W drops its X lock at commit-record
  // *insertion*; reader R then takes the lock, reads W's data, and commits
  // without logging anything. R must still not RETURN before W's record is
  // durable — otherwise R's caller externalizes state a crash would
  // un-commit. The read-only fast path therefore waits on the reserved-LSN
  // horizon instead of skipping the durable wait outright.
  FlushGate gate;
  LockManager lock_manager;
  LogOptions logo;
  logo.flush_interval_us = 50;
  gate.Install(&logo);
  LogManager log_manager(logo);
  Catalog catalog;
  TransactionManager tm(&lock_manager, &log_manager, &catalog);

  AgentContext writer(0);
  tm.Begin(&writer);
  ASSERT_TRUE(lock_manager
                  .Lock(&writer.txn().lock_client(), LockId::Table(0, 1),
                        LockMode::kX)
                  .ok());
  const uint8_t img[4] = {9, 9, 9, 9};
  tm.LogHeapOp(&writer, LogRecordType::kUpdate, 1, Rid{0, 0}, {}, img);
  std::thread w_commit([&] { EXPECT_TRUE(tm.Commit(&writer).ok()); });

  // Reader acquires the lock W released early (the flush is still gated).
  AgentContext reader(1);
  tm.Begin(&reader);
  ASSERT_TRUE(lock_manager
                  .Lock(&reader.txn().lock_client(), LockId::Table(0, 1),
                        LockMode::kS)
                  .ok());
  std::atomic<bool> r_done{false};
  std::thread r_commit([&] {
    EXPECT_TRUE(tm.Commit(&reader).ok());
    r_done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(r_done.load(std::memory_order_acquire))
      << "read-only commit returned before the observed writer was durable";
  // W's begin + update + commit only; R appended nothing.
  EXPECT_EQ(log_manager.Stats().records, 3u);

  gate.Open();
  w_commit.join();
  r_commit.join();
  EXPECT_TRUE(r_done.load());
}

TEST(TxnTest, ReadOnlyCommitSkipsLogAndDurableWait) {
  // A transaction that logged nothing must commit without appending a
  // record or waiting for a pass — the sink stays gated (a durable
  // wait would hang and time the test out) and the log stays empty.
  FlushGate gate;
  LockManager lock_manager;
  LogOptions logo;
  logo.flush_interval_us = 50;
  gate.Install(&logo);
  LogManager log_manager(logo);
  Catalog catalog;
  TransactionManager tm(&lock_manager, &log_manager, &catalog);

  AgentContext agent(0);
  tm.Begin(&agent);
  ASSERT_TRUE(lock_manager
                  .Lock(&agent.txn().lock_client(), LockId::Table(0, 1),
                        LockMode::kS)
                  .ok());
  ASSERT_TRUE(tm.Commit(&agent).ok());
  EXPECT_EQ(log_manager.Stats().records, 0u);
  EXPECT_EQ(log_manager.reserved_lsn(), 0u);
  gate.Open();  // release any held pass for clean shutdown
}

/// FlushGate that also captures the device stream (bytes land only after
/// the gate opens, exactly when they become durable), so tests can ask
/// which commit records were parseable at a given instant.
struct CapturingFlushGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::vector<uint8_t> bytes;

  void Install(LogOptions* o) {
    o->flush_sink = [this](const uint8_t* d, size_t n, Lsn) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [this] { return open; });
      bytes.insert(bytes.end(), d, d + n);
    };
  }
  void Open() {
    {
      std::lock_guard<std::mutex> g(mu);
      open = true;
    }
    cv.notify_all();
  }
  /// True iff a commit record of `txn_id` is parseable from the captured
  /// durable stream.
  bool HasDurableCommit(uint64_t txn_id) {
    std::lock_guard<std::mutex> g(mu);
    bool found = false;
    size_t pos = 0;
    LogRecordHeader hdr;
    const uint8_t* payload = nullptr;
    while (DecodeLogRecord(bytes.data(), bytes.size(), pos, 0, &hdr,
                           &payload) == LogScanStatus::kOk) {
      if (hdr.type == static_cast<uint8_t>(LogRecordType::kCommit) &&
          hdr.txn_id == txn_id) {
        found = true;
      }
      pos += sizeof(LogRecordHeader) + hdr.payload_len;
    }
    return found;
  }
};

TEST(TxnTest, SpeculativeCommitsReturnEarlyAndSettleOnlyWhenDurable) {
  // The speculative extension of the PR-4 durability gate. With
  // speculative_reads on, BOTH commits below return while the flush is
  // gated — the writer's ack (its own commit record) and the reader's ack
  // (the writer's horizon it observed) park on the settlement queue. The
  // gate then proves externalization still waits for durability: no ack
  // settles before the writer's commit record is parseable from the
  // captured device stream.
  CapturingFlushGate gate;
  LockManager lock_manager;
  LogOptions logo;
  logo.flush_interval_us = 50;
  gate.Install(&logo);
  LogManager log_manager(logo);
  TxnOptions txo;
  txo.speculative_reads = true;
  Catalog catalog;
  TransactionManager tm(&lock_manager, &log_manager, &catalog, txo);

  // Writer commits on THIS thread: under speculation Commit() must return
  // with the flush still gated — no committer thread needed.
  AgentContext writer(0);
  CounterSet wc;
  uint64_t writer_id = 0;
  {
    ScopedCounterSet routed(&wc);
    tm.Begin(&writer);
    writer_id = writer.txn().id();
    ASSERT_TRUE(lock_manager
                    .Lock(&writer.txn().lock_client(), LockId::Table(0, 1),
                          LockMode::kX)
                    .ok());
    const uint8_t img[4] = {1, 2, 3, 4};
    tm.LogHeapOp(&writer, LogRecordType::kUpdate, 1, Rid{0, 0}, {}, img);
    ASSERT_TRUE(tm.Commit(&writer).ok());
  }
  EXPECT_EQ(wc.Get(Counter::kTxnDeferredAcks), 1u);
  EXPECT_EQ(writer.deferred_acks().outstanding(), 1u);

  // Speculative read: take the early-released lock, pick up the writer's
  // horizon, and commit — also returns immediately, parking the second ack.
  AgentContext reader(1);
  CounterSet rc;
  {
    ScopedCounterSet routed(&rc);
    tm.Begin(&reader);
    ASSERT_TRUE(lock_manager
                    .Lock(&reader.txn().lock_client(), LockId::Table(0, 1),
                          LockMode::kS)
                    .ok());
    EXPECT_GT(reader.txn().lock_client().dep_lsn(), 0u)
        << "the acquisition must capture the writer's durability horizon";
    ASSERT_TRUE(tm.Commit(&reader).ok());
  }
  EXPECT_GE(rc.Get(Counter::kTxnSpecReads), 1u);
  EXPECT_EQ(rc.Get(Counter::kTxnDeferredAcks), 1u);
  EXPECT_EQ(reader.deferred_acks().outstanding(), 1u);

  // THE gate: while the writer's record is stuck behind the closed sink,
  // neither ack may settle — a drain must block.
  std::atomic<bool> drained{false};
  CounterSet dc;
  std::thread drainer([&] {
    ScopedCounterSet routed(&dc);
    reader.DrainDeferredAcks();
    writer.DrainDeferredAcks();
    drained.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load(std::memory_order_acquire))
      << "deferred ack settled before its dependency was durable";
  EXPECT_FALSE(gate.HasDurableCommit(writer_id));

  gate.Open();
  drainer.join();
  // Settlement implies the writer's commit record is parseable from the
  // durable stream — the soundness invariant, restated for deferred acks.
  EXPECT_TRUE(gate.HasDurableCommit(writer_id));
  EXPECT_EQ(reader.deferred_acks().outstanding(), 0u);
  EXPECT_EQ(writer.deferred_acks().outstanding(), 0u);
  EXPECT_EQ(dc.Get(Counter::kTxnDepAbortedAcks), 0u);
  EXPECT_GT(dc.Get(Counter::kTxnDepSettleNs), 0u);
}

TEST(TxnTest, WriterAbortAfterSpeculativeReadLeavesNoDependency) {
  // An aborting writer stamps no durability horizon on the locks it drops
  // (its effects were undone — there is nothing for a reader to depend
  // on), so the speculative read path over its row must carry no
  // dependency: the reader's commit returns with the log fully gated
  // AND parks nothing.
  FlushGate gate;
  LockManager lock_manager;
  LogOptions logo;
  logo.flush_interval_us = 50;
  gate.Install(&logo);
  LogManager log_manager(logo);
  Volume volume;
  BufferPoolOptions bpo;
  bpo.num_frames = 64;
  BufferPool pool(&volume, bpo);
  Catalog catalog;
  catalog.AddTable("t0", std::make_unique<HeapFile>(&pool));
  const TableId t = catalog.AddTable("t1", std::make_unique<HeapFile>(&pool));
  HeapFile* heap = catalog.table(t).heap.get();
  const uint8_t before[4] = {1, 2, 3, 4};
  Rid rid;
  ASSERT_TRUE(heap->Insert(before, &rid).ok());
  TxnOptions txo;
  txo.speculative_reads = true;
  TransactionManager tm(&lock_manager, &log_manager, &catalog, txo);

  AgentContext writer(0);
  tm.Begin(&writer);
  ASSERT_TRUE(lock_manager
                  .Lock(&writer.txn().lock_client(), LockId::Table(0, t),
                        LockMode::kX)
                  .ok());
  const uint8_t img[4] = {7, 7, 7, 7};
  ASSERT_TRUE(heap->Update(rid, img).ok());
  tm.LogHeapOp(&writer, LogRecordType::kUpdate, t, rid, before, img);
  tm.Abort(&writer);
  // The abort restored the row from its logged before-image. Nothing of
  // the aborted writer ever reached the log (staged redo was dropped), and
  // its release stamped no commit LSN on the head.
  uint8_t now[4] = {};
  ASSERT_TRUE(heap->ReadInto(rid, now, sizeof(now)).ok());
  EXPECT_EQ(std::memcmp(now, before, sizeof(now)), 0);
  EXPECT_EQ(log_manager.Stats().records, 0u);

  AgentContext reader(1);
  CounterSet rc;
  {
    ScopedCounterSet routed(&rc);
    tm.Begin(&reader);
    ASSERT_TRUE(lock_manager
                    .Lock(&reader.txn().lock_client(), LockId::Table(0, t),
                          LockMode::kS)
                    .ok());
    EXPECT_EQ(reader.txn().lock_client().dep_lsn(), 0u);
    ASSERT_TRUE(tm.Commit(&reader).ok());
  }
  EXPECT_EQ(rc.Get(Counter::kTxnSpecReads), 0u);
  EXPECT_EQ(rc.Get(Counter::kTxnDeferredAcks), 0u);
  EXPECT_EQ(reader.deferred_acks().outstanding(), 0u);
  gate.Open();  // release any held pass for clean shutdown
}

// ---- durability horizons by lock mode ----------------------------------------
// Under early lock release a grant notes the horizon its mode depends on
// (LockHead::DepFor): an IX holder's commit delays only modes that read the
// children without child locks (S, SIX, U, X), while X, SIX and U holders'
// commits delay every later grant. Each test commits a writer behind a
// closed FlushGate, so the writer's commit record is provably not durable
// while the reader's dep_lsn is asserted.

/// A gated log behind a speculative transaction manager: Commit returns at
/// once, parking its acknowledgement, so one thread can commit a writer and
/// then take a reader's locks with the writer's flush still held back.
struct HorizonHarness {
  explicit HorizonHarness(LockManagerOptions lo = {}) : lock_manager(lo) {
    LogOptions logo;
    logo.flush_interval_us = 50;
    gate.Install(&logo);
    log_manager = std::make_unique<LogManager>(logo);
    TxnOptions txo;
    txo.speculative_reads = true;
    txn_manager = std::make_unique<TransactionManager>(
        &lock_manager, log_manager.get(), &catalog, txo);
  }

  Status Lock(AgentContext* agent, const LockId& id, LockMode mode) {
    return lock_manager.Lock(&agent->txn().lock_client(), id, mode);
  }
  static uint64_t Dep(AgentContext* agent) {
    return agent->txn().lock_client().dep_lsn();
  }

  /// Commit one transaction of `agent` that takes `id` in `mode` and logs
  /// an update. Returns its commit LSN, which no pass can harden yet.
  Lsn CommitWriter(AgentContext* agent, const LockId& id, LockMode mode) {
    txn_manager->Begin(agent);
    EXPECT_TRUE(Lock(agent, id, mode).ok());
    const uint8_t img[4] = {1, 2, 3, 4};
    txn_manager->LogHeapOp(agent, LogRecordType::kUpdate, id.table, Rid{0, 0},
                           {}, img);
    EXPECT_TRUE(txn_manager->Commit(agent).ok());
    const Lsn lsn = log_manager->reserved_lsn();
    EXPECT_LT(log_manager->durable_lsn(), lsn);
    return lsn;
  }

  /// Open the gate and settle every parked acknowledgement, so the agents
  /// can retire.
  void Settle(std::initializer_list<AgentContext*> agents) {
    gate.Open();
    for (AgentContext* agent : agents) agent->DrainDeferredAcks();
  }

  FlushGate gate;
  LockManager lock_manager;
  Catalog catalog;  // no tables: these tests abort no writes
  std::unique_ptr<LogManager> log_manager;
  std::unique_ptr<TransactionManager> txn_manager;
};

/// A row of `row`'s page whose lock lands in another bucket than `row`'s
/// at every table size (the hashes differ in bit 0). A row head retired
/// from a bucket leaves its horizon to the next head created there
/// (LockTable's retired_dep), so a "different row" must not share one.
LockId RowInAnotherBucket(const LockId& row) {
  for (uint32_t slot = row.row + 1;; ++slot) {
    const LockId other = LockId::Row(row.db, row.table, row.page, slot);
    if (((other.Hash() ^ row.Hash()) & 1) != 0) return other;
  }
}

TEST(HorizonTest, IxWriterDelaysNoIntentLockOrOtherRowReader) {
  HorizonHarness h;
  const LockId row = LockId::Row(0, 1, 0, 0);
  AgentContext writer(0);
  h.CommitWriter(&writer, row, LockMode::kX);  // IX on db, table and page

  AgentContext reader(1);
  CounterSet rc;
  {
    ScopedCounterSet routed(&rc);
    // IS on the db, table and page the writer held in IX, then S on
    // another row.
    h.txn_manager->Begin(&reader);
    ASSERT_TRUE(
        h.Lock(&reader, RowInAnotherBucket(row), LockMode::kS).ok());
    EXPECT_EQ(HorizonHarness::Dep(&reader), 0u);
    ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
    // IX on the same page (and so on its table and db).
    h.txn_manager->Begin(&reader);
    ASSERT_TRUE(h.Lock(&reader, LockId::Page(0, 1, 0), LockMode::kIX).ok());
    EXPECT_EQ(HorizonHarness::Dep(&reader), 0u);
    ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  }
  // Neither commit read the writer's data, so neither waits on its flush.
  EXPECT_EQ(rc.Get(Counter::kTxnSpecReads), 0u);
  EXPECT_EQ(reader.deferred_acks().outstanding(), 0u);
  h.Settle({&writer, &reader});
}

TEST(HorizonTest, IxWriterDelaysRowTableAndUpgradedReaders) {
  HorizonHarness h;
  const LockId row = LockId::Row(0, 1, 0, 0);
  AgentContext writer(0);
  const Lsn w_lsn = h.CommitWriter(&writer, row, LockMode::kX);

  AgentContext reader(1);
  // S on the writer's row: its release stamped the row head.
  h.txn_manager->Begin(&reader);
  ASSERT_TRUE(h.Lock(&reader, row, LockMode::kS).ok());
  EXPECT_EQ(HorizonHarness::Dep(&reader), w_lsn);
  ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  // Table S covers the rows without row locks: the IX stamp applies.
  h.txn_manager->Begin(&reader);
  ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 1), LockMode::kS).ok());
  EXPECT_EQ(HorizonHarness::Dep(&reader), w_lsn);
  ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  // So does an upgrade from IS, which noted nothing, to S.
  h.txn_manager->Begin(&reader);
  ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 1), LockMode::kIS).ok());
  EXPECT_EQ(HorizonHarness::Dep(&reader), 0u);
  ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 1), LockMode::kS).ok());
  EXPECT_EQ(HorizonHarness::Dep(&reader), w_lsn);
  ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  // Each of the three commits parked its acknowledgement on the writer.
  EXPECT_EQ(reader.deferred_acks().outstanding(), 3u);
  h.Settle({&writer, &reader});
}

TEST(HorizonTest, TableXWriterDelaysIntentLockReaders) {
  // A table-X holder writes rows without row locks, so only the table
  // head carries its horizon, and even an IS grant must note it.
  HorizonHarness h;
  AgentContext writer(0);
  const Lsn w_lsn =
      h.CommitWriter(&writer, LockId::Table(0, 2), LockMode::kX);

  AgentContext reader(1);
  h.txn_manager->Begin(&reader);
  ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 2), LockMode::kIS).ok());
  EXPECT_EQ(HorizonHarness::Dep(&reader), w_lsn);
  ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  EXPECT_EQ(reader.deferred_acks().outstanding(), 1u);
  h.Settle({&writer, &reader});
}

TEST(HorizonTest, TableSInvalidatingAnInheritedIxNotesTheInheritor) {
  // The writer's agent inherits its page, table and db IX (every head is
  // hot at threshold 0): inheritance is a logical release, so a table-S
  // request that invalidates the inherited IX depends on the writer.
  LockManagerOptions lo;
  lo.sli_mode = SliMode::kOn;
  lo.hot_min_contended = 0;
  HorizonHarness h(lo);
  AgentContext writer(0);
  const Lsn w_lsn =
      h.CommitWriter(&writer, LockId::Row(0, 1, 0, 0), LockMode::kX);
  ASSERT_GT(writer.sli().inherited_count(), 0u);

  AgentContext reader(1);
  CounterSet rc;
  {
    ScopedCounterSet routed(&rc);
    h.txn_manager->Begin(&reader);
    ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 1), LockMode::kS).ok());
    EXPECT_EQ(HorizonHarness::Dep(&reader), w_lsn);
    ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  }
  EXPECT_GE(rc.Get(Counter::kSliInvalidated), 1u);
  EXPECT_EQ(reader.deferred_acks().outstanding(), 1u);
  h.Settle({&writer, &reader});
}

TEST(HorizonTest, SliReclaimCarriesTheInheritorsHorizon) {
  // Transaction N's table S noted the writer's horizon and was inherited;
  // N+1 reclaims it on the latch-free path, which reads no head state. N+1
  // reads what N read, so it must depend on the same writer, and its
  // acknowledgement must park too.
  LockManagerOptions lo;
  lo.sli_mode = SliMode::kOn;
  lo.hot_min_contended = 0;
  HorizonHarness h(lo);
  AgentContext writer(0);
  const Lsn w_lsn =
      h.CommitWriter(&writer, LockId::Table(0, 1), LockMode::kX);

  AgentContext reader(1);
  h.txn_manager->Begin(&reader);
  ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 1), LockMode::kS).ok());
  ASSERT_EQ(HorizonHarness::Dep(&reader), w_lsn);
  ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  ASSERT_GT(reader.sli().inherited_count(), 0u);
  ASSERT_EQ(reader.deferred_acks().outstanding(), 1u);

  CounterSet rc;
  {
    ScopedCounterSet routed(&rc);
    h.txn_manager->Begin(&reader);
    ASSERT_TRUE(h.Lock(&reader, LockId::Table(0, 1), LockMode::kS).ok());
    EXPECT_EQ(HorizonHarness::Dep(&reader), w_lsn);
    ASSERT_TRUE(h.txn_manager->Commit(&reader).ok());
  }
  EXPECT_GE(rc.Get(Counter::kSliReclaimed), 1u);
  EXPECT_EQ(reader.deferred_acks().outstanding(), 2u)
      << "the reclaiming transaction was acknowledged before the writer it "
         "read was durable";
  h.Settle({&writer, &reader});
}

}  // namespace
}  // namespace slidb
