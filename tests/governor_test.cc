// Overload-governor tests: admission token accounting, queue sheds and
// deadline timeouts, lock-wait deadline propagation (a waiter past its
// response budget wakes, fails retryably, and releases its queue position),
// hot-head wait-depth cancels, the engine-level admission lifecycle
// including the commit-entry deadline gate, and a commit deadline that
// expires while another thread's pass holds the log.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/engine/database.h"
#include "src/engine/governor.h"
#include "src/lock/lock_manager.h"
#include "src/log/log_manager.h"
#include "src/txn/agent.h"
#include "src/txn/transaction_manager.h"
#include "src/util/time_util.h"
#include "tests/held_pass_script.h"

namespace slidb {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// Poll until the client is provably parked inside a lock wait; bounded so
/// a broken enqueue path fails the test instead of hanging it.
void WaitUntilBlocked(LockClient& c) {
  for (int i = 0; i < 20'000; ++i) {
    if (c.waiting_on().load(std::memory_order_acquire) != nullptr) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "client never entered a lock wait";
}

/// Poll the governor until `pred(stats)` holds, same bounded discipline.
template <typename Pred>
void WaitUntilGov(const AdmissionGovernor& gov, Pred pred) {
  for (int i = 0; i < 20'000; ++i) {
    if (pred(gov.Stats())) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "governor never reached the expected state";
}

TEST(GovernorTest, DisabledAdmitsEverything) {
  AdmissionGovernor gov;  // max_inflight == 0: the default-off contract
  EXPECT_FALSE(gov.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(gov.Admit().ok());
  const GovernorStats s = gov.Stats();
  EXPECT_EQ(s.admitted, 0u);  // free-pass admits are not token grants
  EXPECT_EQ(s.inflight, 0u);
}

TEST(GovernorTest, TokensBoundInflightAndShedWithoutQueue) {
  AdmissionGovernor gov({.max_inflight = 2, .max_queue = 0});
  ASSERT_TRUE(gov.Admit().ok());
  ASSERT_TRUE(gov.Admit().ok());
  // Tokens exhausted and no entry queue: shed at the door.
  const Status st = gov.Admit();
  EXPECT_TRUE(st.IsOverloaded());
  EXPECT_TRUE(st.retryable());

  gov.Release();
  EXPECT_TRUE(gov.Admit().ok());  // a freed token is immediately reusable

  const GovernorStats s = gov.Stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.inflight, 2u);
  gov.Release();
  gov.Release();
  EXPECT_EQ(gov.Stats().inflight, 0u);
}

TEST(GovernorTest, QueuedArrivalTimesOutAtDeadline) {
  AdmissionGovernor gov({.max_inflight = 1, .max_queue = 1});
  ASSERT_TRUE(gov.Admit().ok());
  // The queue has room, but no token frees before the deadline: the waiter
  // must wake on its own and fail retryably.
  const uint64_t start = NowNanos();
  const Status st = gov.Admit(NowNanos() + 30'000'000);  // 30 ms budget
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_TRUE(st.retryable());
  EXPECT_GE(NowNanos() - start, 25'000'000u);  // actually waited

  const GovernorStats s = gov.Stats();
  EXPECT_EQ(s.queue_timeouts, 1u);
  EXPECT_EQ(s.queue_depth, 0u);  // the timed-out waiter left the queue
  gov.Release();
}

TEST(GovernorTest, ReleaseDrainsQueueAndFullQueueSheds) {
  AdmissionGovernor gov({.max_inflight = 1, .max_queue = 1});
  ASSERT_TRUE(gov.Admit().ok());

  std::atomic<bool> queued_got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(gov.Admit().ok());  // parks until the token frees
    queued_got.store(true);
    gov.Release();
  });
  WaitUntilGov(gov, [](const GovernorStats& s) { return s.queue_depth == 1; });
  EXPECT_FALSE(queued_got.load());

  // Queue slot taken: the next arrival sheds immediately.
  EXPECT_TRUE(gov.Admit().IsOverloaded());

  gov.Release();
  waiter.join();
  EXPECT_TRUE(queued_got.load());

  const GovernorStats s = gov.Stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.queued_admits, 1u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(GovernorTest, LockWaitHonorsTxnDeadline) {
  LockManagerOptions o;
  o.lock_timeout_us = 10'000'000;  // far beyond the deadline under test
  LockManager lm(o);

  LockClient holder, waiter, successor;
  holder.StartTxn(1, 0);
  waiter.StartTxn(2, 1);
  successor.StartTxn(3, 2);
  ASSERT_TRUE(lm.Lock(&holder, LockId::Table(0, 7), LockMode::kX).ok());

  // The waiter's budget (50 ms) must cap the 10 s lock timeout: it wakes on
  // its own, fails retryably, and vacates its queue position.
  waiter.SetDeadline(NowNanos() + 50'000'000);
  const uint64_t start = NowNanos();
  const Status st = lm.Lock(&waiter, LockId::Table(0, 7), LockMode::kX);
  const uint64_t waited_ns = NowNanos() - start;
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_TRUE(st.retryable());
  EXPECT_GE(waited_ns, 40'000'000u);
  EXPECT_LT(waited_ns, 5'000'000'000u);  // nowhere near lock_timeout_us
  lm.ReleaseAll(&waiter, nullptr, false);

  // The abandoned queue slot must not wedge the head: a later waiter is
  // granted normally once the holder releases.
  std::atomic<bool> got{false};
  std::thread t([&] {
    EXPECT_TRUE(lm.Lock(&successor, LockId::Table(0, 7), LockMode::kX).ok());
    got.store(true);
    lm.ReleaseAll(&successor, nullptr, false);
  });
  WaitUntilBlocked(successor);
  lm.ReleaseAll(&holder, nullptr, false);
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(GovernorTest, HotHeadWaitDepthCancel) {
  LockManagerOptions o;
  o.lock_timeout_us = 10'000'000;
  o.hot_wait_depth = 1;
  o.hot_min_contended = 0;  // every head counts as hot: isolates the depth
                            // rule from the heat signal
  LockManager lm(o);

  LockClient holder, first, second;
  holder.StartTxn(1, 0);
  first.StartTxn(2, 1);
  second.StartTxn(3, 2);
  ASSERT_TRUE(lm.Lock(&holder, LockId::Table(0, 9), LockMode::kX).ok());

  std::atomic<bool> first_got{false};
  std::thread t([&] {
    EXPECT_TRUE(lm.Lock(&first, LockId::Table(0, 9), LockMode::kX).ok());
    first_got.store(true);
    lm.ReleaseAll(&first, nullptr, false);
  });
  WaitUntilBlocked(first);

  // Depth budget (1) is spent on `first`: the next arrival is cancelled at
  // enqueue time instead of piling onto the hot head.
  const uint64_t start = NowNanos();
  const Status st = lm.Lock(&second, LockId::Table(0, 9), LockMode::kX);
  EXPECT_TRUE(st.IsOverloaded());
  EXPECT_TRUE(st.retryable());
  EXPECT_LT(NowNanos() - start, 1'000'000'000u);  // immediate, not a wait
  lm.ReleaseAll(&second, nullptr, false);

  lm.ReleaseAll(&holder, nullptr, false);
  t.join();
  EXPECT_TRUE(first_got.load());
  lm.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

DatabaseOptions GovDbOptions() {
  DatabaseOptions o;
  o.buffer.num_frames = 256;
  o.log.flush_interval_us = 50;
  return o;
}

TEST(GovernorTest, DatabaseAdmissionLifecycle) {
  DatabaseOptions o = GovDbOptions();
  o.governor.max_inflight = 1;
  o.governor.max_queue = 0;
  Database db(o);
  const TableId t = db.CreateTable("t");
  auto a1 = db.CreateAgent();
  auto a2 = db.CreateAgent();

  ASSERT_TRUE(db.AdmitTxn(a1.get()).ok());
  // Token pool exhausted: a second admission sheds.
  EXPECT_TRUE(db.AdmitTxn(a2.get()).IsOverloaded());

  // Commit returns the token implicitly...
  db.Begin(a1.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(a1.get(), t, Bytes("payload"), &rid).ok());
  ASSERT_TRUE(db.Commit(a1.get()).ok());
  ASSERT_TRUE(db.AdmitTxn(a2.get()).ok());

  // ...and Abort does too.
  db.Begin(a2.get());
  db.Abort(a2.get());
  ASSERT_TRUE(db.AdmitTxn(a1.get()).ok());

  // FinishAdmission is idempotent: the duplicate release must not mint a
  // phantom token (a second admit still sheds until the real release).
  db.FinishAdmission(a1.get());
  db.FinishAdmission(a1.get());
  ASSERT_TRUE(db.AdmitTxn(a2.get()).ok());
  EXPECT_TRUE(db.AdmitTxn(a1.get()).IsOverloaded());
  db.FinishAdmission(a2.get());

  const GovernorStats s = db.governor().Stats();
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.shed, 2u);
}

TEST(GovernorTest, CommitEntryDeadlineAbortsAndRollsBack) {
  Database db(GovDbOptions());
  const TableId t = db.CreateTable("t");
  auto agent = db.CreateAgent();

  // Seed a row so the aborted update has visible before/after state.
  db.Begin(agent.get());
  Rid rid;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("before"), &rid).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  // A transaction whose budget expires before Commit must abort retryably
  // at the commit gate — before its commit record exists — and undo.
  agent->set_txn_deadline_ns(NowNanos() + 1);
  db.Begin(agent.get());
  ASSERT_TRUE(db.Update(agent.get(), t, rid, Bytes("after!")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const Status st = db.Commit(agent.get());
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_TRUE(st.retryable());

  // The deadline is per-arrival state: it must not leak into the next
  // transaction on this agent.
  agent->set_txn_deadline_ns(0);
  db.Begin(agent.get());
  char buf[6];
  ASSERT_TRUE(db.Read(agent.get(), t, rid, buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "before", 6), 0);
  ASSERT_TRUE(db.Commit(agent.get()).ok());
}

TEST(GovernorTest, CommitDeadlineDuringHeldPassParksTheAck) {
  // Another thread's pass is held inside the sink, so the flush role is
  // taken. A commit whose budget runs out during that hold must return
  // promptly after its deadline with its acknowledgement parked on a
  // ring-owned ack — the transaction is committed, only its
  // externalization is deferred — and that ack must settle kDurable once
  // the held pass lets the log move on.
  FirstPassGate gate;
  LogOptions logo;
  logo.flush_interval_us = 50;
  gate.Install(&logo);
  LockManager lock_manager;
  LogManager log(logo);
  Catalog catalog;
  TransactionManager tm(&lock_manager, &log, &catalog);
  std::thread holder([&] {
    const Lsn lsn = log.Append(999, LogRecordType::kCommit, nullptr, 0);
    log.WaitDurable(lsn);
  });
  gate.AwaitEntered();

  CounterSet counters;
  ScopedCounterSet routed(&counters);
  AgentContext agent(0);
  agent.set_txn_deadline_ns(NowNanos() + 20'000'000);  // 20 ms budget
  tm.Begin(&agent);
  const uint64_t deadline_ns = agent.txn().lock_client().deadline_ns();
  const uint8_t img[4] = {1, 2, 3, 4};
  tm.LogHeapOp(&agent, LogRecordType::kUpdate, 1, Rid{0, 0}, {}, img);
  ASSERT_TRUE(tm.Commit(&agent).ok());
  const uint64_t returned_ns = NowNanos();
  EXPECT_GE(returned_ns, deadline_ns);
  EXPECT_LT(returned_ns - deadline_ns, uint64_t{250'000'000})
      << "the deadline commit did not return promptly after its deadline";
  EXPECT_EQ(counters.Get(Counter::kTxnDeadlineDeferredAcks), 1u);
  EXPECT_EQ(agent.deferred_acks().outstanding(), 1u);
  const Lsn commit_lsn = log.reserved_lsn();
  EXPECT_LT(log.durable_lsn(), commit_lsn);

  gate.Open();
  holder.join();
  agent.DrainDeferredAcks();
  EXPECT_EQ(agent.deferred_acks().outstanding(), 0u);
  EXPECT_GE(log.durable_lsn(), commit_lsn);
  EXPECT_EQ(counters.Get(Counter::kTxnDepAbortedAcks), 0u)
      << "the parked ack settled kLost instead of kDurable";
  EXPECT_GT(counters.Get(Counter::kTxnDepSettleNs), 0u);
}

}  // namespace
}  // namespace slidb
