// Workload tests: loader row counts, spec failure rates (statistical),
// balance/consistency invariants under concurrent execution with SLI both
// off and on, and the driver harness itself.
#include <gtest/gtest.h>

#include <memory>

#include "src/workload/contention.h"
#include "src/workload/driver.h"
#include "src/workload/tm1.h"
#include "src/workload/tpcb.h"
#include "src/workload/tpcc.h"

namespace slidb {
namespace {

DatabaseOptions SmallDbOptions(bool sli) {
  DatabaseOptions o;
  o.lock.sli_mode = sli ? SliMode::kOn : SliMode::kOff;
  o.lock.lock_timeout_us = 3'000'000;
  o.log.flush_interval_us = 100;
  o.buffer.num_frames = 1u << 14;  // 128 MB
  return o;
}

// ---- TM1 ----

TEST(Tm1Test, LoaderPopulatesTables) {
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 500;
  Tm1Workload tm1(opts);
  tm1.Load(db);

  TableId t;
  ASSERT_TRUE(db.FindTable("subscriber", &t));
  ASSERT_TRUE(db.FindTable("access_info", &t));
  ASSERT_TRUE(db.FindTable("special_facility", &t));
  ASSERT_TRUE(db.FindTable("call_forwarding", &t));
}

TEST(Tm1Test, SingleTransactionsRun) {
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 300;
  Tm1Workload tm1(opts);
  tm1.Load(db);
  auto agent = db.CreateAgent(17);

  int commits = 0, fails = 0;
  for (int i = 0; i < 300; ++i) {
    const Status st = tm1.RunOne(db, *agent);
    if (st.ok()) {
      ++commits;
    } else {
      ASSERT_TRUE(st.IsAborted()) << st.ToString();
      ++fails;
    }
  }
  EXPECT_GT(commits, 0);
  EXPECT_GT(fails, 0);  // mix includes failing transactions by design
}

TEST(Tm1Test, FailureRatesNearSpec) {
  // The paper (§5.1) quotes: getSub 0%, getDest 76.1%, getAccess 37.5%,
  // updateSub 37.5%, updateLoc 0%, insert/delete CF 68.75%. Our loader
  // reproduces the distributions, so measured rates should land nearby.
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 2000;
  Tm1Workload tm1(opts);
  tm1.Load(db);
  auto agent = db.CreateAgent(23);

  struct Case {
    Tm1TxnType type;
    double expected_fail;
    double tolerance;
  };
  // getDest: the paper quotes 76.1%; with our generator's uniform
  // call-forwarding windows the analytic rate is ~82% (documented in
  // EXPERIMENTS.md — the 1/2-per-slot density is chosen to pin the
  // insert/delete CF rates at the spec's 68.75%).
  const Case cases[] = {
      {Tm1TxnType::kGetSubscriberData, 0.00, 0.01},
      {Tm1TxnType::kGetNewDestination, 0.82, 0.06},
      {Tm1TxnType::kGetAccessData, 0.375, 0.06},
      {Tm1TxnType::kUpdateSubscriberData, 0.375, 0.06},
      {Tm1TxnType::kUpdateLocation, 0.00, 0.01},
  };
  constexpr int kN = 2000;
  for (const Case& c : cases) {
    Tm1Workload single(opts, Tm1Workload::Mix::kSingle, c.type);
    // Reuse the loaded database: construct via the same object's tables.
    int fails = 0;
    for (int i = 0; i < kN; ++i) {
      Status st;
      switch (c.type) {
        case Tm1TxnType::kGetSubscriberData:
          st = tm1.GetSubscriberData(db, *agent);
          break;
        case Tm1TxnType::kGetNewDestination:
          st = tm1.GetNewDestination(db, *agent);
          break;
        case Tm1TxnType::kGetAccessData:
          st = tm1.GetAccessData(db, *agent);
          break;
        case Tm1TxnType::kUpdateSubscriberData:
          st = tm1.UpdateSubscriberData(db, *agent);
          break;
        case Tm1TxnType::kUpdateLocation:
          st = tm1.UpdateLocation(db, *agent);
          break;
        default:
          break;
      }
      if (!st.ok()) ++fails;
    }
    const double rate = static_cast<double>(fails) / kN;
    EXPECT_NEAR(rate, c.expected_fail, c.tolerance)
        << "txn type " << static_cast<int>(c.type);
  }
}

TEST(Tm1Test, InsertDeleteCallForwardingChurnIsStable) {
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 500;
  Tm1Workload tm1(opts);
  tm1.Load(db);
  auto agent = db.CreateAgent(31);

  int ins_fail = 0, del_fail = 0;
  constexpr int kN = 1500;
  for (int i = 0; i < kN; ++i) {
    if (!tm1.InsertCallForwarding(db, *agent).ok()) ++ins_fail;
    if (!tm1.DeleteCallForwarding(db, *agent).ok()) ++del_fail;
  }
  // Both should fail roughly at the spec's ~69% under churn equilibrium.
  EXPECT_NEAR(static_cast<double>(ins_fail) / kN, 0.6875, 0.12);
  EXPECT_NEAR(static_cast<double>(del_fail) / kN, 0.6875, 0.12);
}

// ---- TPC-B ----

TEST(TpcbTest, BalanceInvariantSingleThread) {
  Database db(SmallDbOptions(false));
  TpcbOptions opts;
  opts.branches = 4;
  opts.tellers_per_branch = 5;
  opts.accounts_per_branch = 200;
  TpcbWorkload tpcb(opts);
  tpcb.Load(db);
  auto agent = db.CreateAgent(5);

  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tpcb.RunOne(db, *agent).ok());
  }
  int64_t at, tt, bt;
  EXPECT_TRUE(tpcb.CheckBalanceInvariant(db, *agent, &at, &tt, &bt))
      << "a=" << at << " t=" << tt << " b=" << bt;
}

TEST(TpcbTest, AuditOfManyAccountsRunsInOneTransaction) {
  // 20,000 account row locks in one transaction: far past the lock cache's
  // initial kSlots, so the audit only finishes if a lock stays O(1).
  Database db(SmallDbOptions(false));
  TpcbOptions opts;
  opts.branches = 2;
  opts.tellers_per_branch = 5;
  opts.accounts_per_branch = 10'000;
  TpcbWorkload tpcb(opts);
  tpcb.Load(db);
  auto agent = db.CreateAgent(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tpcb.RunOne(db, *agent).ok());
  }

  CounterSet counters;
  int64_t at, tt, bt;
  {
    ScopedCounterSet routed(&counters);
    EXPECT_TRUE(tpcb.CheckBalanceInvariant(db, *agent, &at, &tt, &bt))
        << "a=" << at << " t=" << tt << " b=" << bt;
  }
  EXPECT_GE(counters.Get(Counter::kLockRequests), 20'000u);
}

TEST(TpcbTest, FailedAuditReleasesItsLocks) {
  // An audit that cannot find a row must abort, not leave its S locks on
  // every branch and teller behind for the next writer to time out on.
  Database db(SmallDbOptions(false));
  TpcbOptions opts;
  opts.branches = 2;
  opts.tellers_per_branch = 5;
  opts.accounts_per_branch = 100;
  TpcbWorkload tpcb(opts);
  tpcb.Load(db);
  IndexId a_pk = 0;
  while (db.catalog().index(a_pk).name != "a_pk") ++a_pk;

  auto auditor = db.CreateAgent(5);
  auto writer = db.CreateAgent(6);
  const uint64_t missing = 150;
  uint64_t rid;
  ASSERT_TRUE(db.IndexLookup(a_pk, missing, &rid).ok());
  db.Begin(writer.get());
  ASSERT_TRUE(db.IndexRemove(writer.get(), a_pk, missing, rid).ok());
  ASSERT_TRUE(db.Commit(writer.get()).ok());

  int64_t at, tt, bt;
  EXPECT_FALSE(tpcb.CheckBalanceInvariant(db, *auditor, &at, &tt, &bt));

  // Put the entry back so the writer may draw any account.
  db.Begin(writer.get());
  ASSERT_TRUE(db.IndexInsert(writer.get(), a_pk, missing, rid).ok());
  ASSERT_TRUE(db.Commit(writer.get()).ok());
  const Status st = tpcb.RunOne(db, *writer);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

class TpcbSliSweep : public ::testing::TestWithParam<bool> {};

TEST_P(TpcbSliSweep, BalanceInvariantUnderConcurrency) {
  const bool sli = GetParam();
  Database db(SmallDbOptions(sli));
  TpcbOptions opts;
  opts.branches = 4;
  opts.tellers_per_branch = 5;
  opts.accounts_per_branch = 200;
  TpcbWorkload tpcb(opts);
  tpcb.Load(db);

  DriverOptions dopts;
  dopts.num_agents = 4;
  dopts.duration_s = 0.5;
  dopts.warmup_s = 0.1;
  const DriverResult result = RunWorkload(db, tpcb, dopts);
  EXPECT_GT(result.commits, 0u);

  auto agent = db.CreateAgent(99);
  int64_t at, tt, bt;
  EXPECT_TRUE(tpcb.CheckBalanceInvariant(db, *agent, &at, &tt, &bt))
      << "sli=" << sli << " a=" << at << " t=" << tt << " b=" << bt;
}

INSTANTIATE_TEST_SUITE_P(SliOnOff, TpcbSliSweep, ::testing::Bool());

// ---- TPC-C ----

class TpccSliSweep : public ::testing::TestWithParam<bool> {};

TEST_P(TpccSliSweep, MixRunsAndStaysConsistent) {
  const bool sli = GetParam();
  Database db(SmallDbOptions(sli));
  TpccOptions opts;
  opts.warehouses = 2;
  opts.districts_per_warehouse = 4;
  opts.customers_per_district = 100;
  opts.items = 500;
  opts.initial_orders_per_district = 30;
  TpccWorkload tpcc(opts, TpccWorkload::Mix::kFull);
  tpcc.Load(db);

  DriverOptions dopts;
  dopts.num_agents = 4;
  dopts.duration_s = 0.5;
  dopts.warmup_s = 0.1;
  const DriverResult result = RunWorkload(db, tpcc, dopts);
  EXPECT_GT(result.commits, 0u);

  auto agent = db.CreateAgent(7);
  EXPECT_TRUE(tpcc.CheckConsistency(db, *agent)) << "sli=" << sli;
}

INSTANTIATE_TEST_SUITE_P(SliOnOff, TpccSliSweep, ::testing::Bool());

TEST(TpccTest, EachTransactionTypeRuns) {
  Database db(SmallDbOptions(false));
  TpccOptions opts;
  opts.warehouses = 1;
  opts.districts_per_warehouse = 2;
  opts.customers_per_district = 50;
  opts.items = 200;
  opts.initial_orders_per_district = 20;
  TpccWorkload tpcc(opts);
  tpcc.Load(db);
  auto agent = db.CreateAgent(3);

  int no_ok = 0;
  for (int i = 0; i < 50; ++i) {
    const Status st = tpcc.NewOrder(db, *agent);
    if (st.ok()) ++no_ok;
    else ASSERT_TRUE(st.IsAborted()) << st.ToString();  // 1% rollback
  }
  EXPECT_GT(no_ok, 40);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tpcc.Payment(db, *agent).ok());
  }
  for (int i = 0; i < 20; ++i) {
    const Status st = tpcc.OrderStatus(db, *agent);
    ASSERT_TRUE(st.ok() || st.IsAborted()) << st.ToString();
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tpcc.Delivery(db, *agent).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tpcc.StockLevel(db, *agent).ok());
  }
  EXPECT_TRUE(tpcc.CheckConsistency(db, *agent));
}

TEST(TpccTest, NewOrderRollbackLeavesNoTrace) {
  Database db(SmallDbOptions(false));
  TpccOptions opts;
  opts.warehouses = 1;
  opts.districts_per_warehouse = 1;
  opts.customers_per_district = 20;
  opts.items = 100;
  opts.initial_orders_per_district = 10;
  TpccWorkload tpcc(opts);
  tpcc.Load(db);
  auto agent = db.CreateAgent(3);

  // Run many NewOrders; ~1% roll back. Consistency must hold regardless.
  for (int i = 0; i < 400; ++i) {
    const Status st = tpcc.NewOrder(db, *agent);
    ASSERT_TRUE(st.ok() || st.IsAborted()) << st.ToString();
  }
  EXPECT_TRUE(tpcc.CheckConsistency(db, *agent));
}

TEST(TpccTest, LastNameGeneratorMatchesSpecShape) {
  char name[18];
  TpccLastName(0, name);
  EXPECT_STREQ(name, "BARBARBAR");
  TpccLastName(371, name);
  EXPECT_STREQ(name, "PRICALLYOUGHT");
  TpccLastName(999, name);
  EXPECT_STREQ(name, "EINGEINGEING");
  // Hash is stable and 16-bit.
  EXPECT_EQ(TpccNameHash("BARBARBAR"), TpccNameHash("BARBARBAR"));
  EXPECT_LE(TpccNameHash("EINGEINGEING"), 0xffffu);
}

// ---- contention scenarios ----

constexpr ContentionScenario kAllScenarios[] = {
    ContentionScenario::kZipfMix, ContentionScenario::kFlashSale,
    ContentionScenario::kAuction, ContentionScenario::kSocialFeed};

TEST(ContentionTest, SingleTransactionsCommit) {
  // Single agent: no conflicts possible, every transaction must commit.
  for (ContentionScenario sc : kAllScenarios) {
    Database db(SmallDbOptions(false));
    ContentionOptions copts;
    copts.scenario = sc;
    copts.num_items = 500;
    copts.reads_per_txn = 4;
    ContentionWorkload wl(copts);
    wl.Load(db);
    EXPECT_GE(wl.hot_key(), 1u);
    EXPECT_LE(wl.hot_key(), copts.num_items);

    auto agent = db.CreateAgent(41);
    for (int i = 0; i < 100; ++i) {
      const Status st = wl.RunOne(db, *agent);
      ASSERT_TRUE(st.ok())
          << ContentionScenarioName(sc) << ": " << st.ToString();
    }
  }
}

TEST(ContentionTest, ScenariosRunConcurrentlyAndReportHeat) {
  for (ContentionScenario sc : kAllScenarios) {
    DatabaseOptions dbo = SmallDbOptions(false);
    dbo.lock.hot_min_contended = 2;
    Database db(dbo);
    ContentionOptions copts;
    copts.scenario = sc;
    copts.num_items = 2000;
    copts.theta = 0.99;
    copts.reads_per_txn = 4;
    ContentionWorkload wl(copts);
    wl.Load(db);

    DriverOptions dopts;
    dopts.num_agents = 2;
    dopts.duration_s = 0.3;
    dopts.warmup_s = 0.05;
    const DriverResult off = RunWorkload(db, wl, dopts);
    EXPECT_GT(off.commits, 0u) << ContentionScenarioName(sc);
    EXPECT_EQ(off.counters.Get(Counter::kSliInherited), 0u);

    // SLI on between runs (as macro_contention switches it): still
    // commits, and the heat probe sees the live lock heads.
    db.SetSliMode(SliMode::kOn);
    const DriverResult on = RunWorkload(db, wl, dopts);
    EXPECT_GT(on.commits, 0u) << ContentionScenarioName(sc);

    const ContentionHeatReport heat = ContentionWorkload::MeasureHeat(db);
    EXPECT_GT(heat.heads, 0u) << ContentionScenarioName(sc);
    EXPECT_GT(heat.total_acquires, 0u) << ContentionScenarioName(sc);
  }
}

// ---- driver ----

TEST(DriverTest, MeasuresThroughputAndBreakdown) {
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 1000;
  Tm1Workload tm1(opts);
  tm1.Load(db);

  DriverOptions dopts;
  dopts.num_agents = 2;
  dopts.duration_s = 0.4;
  dopts.warmup_s = 0.1;
  const DriverResult result = RunWorkload(db, tm1, dopts);

  EXPECT_GT(result.commits, 100u);
  EXPECT_GT(result.tps, 0.0);
  EXPECT_GT(result.user_aborts, 0u);  // TM1 mix always has failures
  EXPECT_GT(result.profile.TotalCpu(), 0u);
  EXPECT_GT(result.latency_ns.count(), 0u);
  EXPECT_GT(result.cpu_utilization, 0.0);
  EXPECT_LE(result.cpu_utilization, 1.0);
  // Lock manager work must be visible in the breakdown.
  EXPECT_GT(result.profile.work[static_cast<size_t>(Component::kLockManager)],
            0u);
}

TEST(DriverTest, SplitsCommitAndAbortLatency) {
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 1000;
  Tm1Workload tm1(opts);
  tm1.Load(db);

  DriverOptions dopts;
  dopts.num_agents = 2;
  dopts.duration_s = 0.4;
  dopts.warmup_s = 0.1;
  const DriverResult result = RunWorkload(db, tm1, dopts);

  // TM1's mix always produces user aborts; they must land in the abort
  // histogram and never pollute the commit latency distribution.
  EXPECT_GT(result.latency_ns.count(), 0u);
  EXPECT_GT(result.abort_latency_ns.count(), 0u);
  EXPECT_GT(result.AbortRate(), 0.0);
  EXPECT_LT(result.AbortRate(), 1.0);
  // Without deadlines every measured commit is goodput.
  EXPECT_EQ(result.goodput_commits, result.latency_ns.count());
  EXPECT_EQ(result.deadline_misses, 0u);
}

TEST(DriverTest, OpenLoopRetryAndGovernorSmoke) {
  DatabaseOptions o = SmallDbOptions(false);
  o.governor.max_inflight = 2;
  o.governor.max_queue = 1;
  Database db(o);
  Tm1Options opts;
  opts.subscribers = 1000;
  Tm1Workload tm1(opts);
  tm1.Load(db);

  DriverOptions dopts;
  dopts.num_agents = 4;
  dopts.duration_s = 0.4;
  dopts.warmup_s = 0.1;
  dopts.offered_tps = 2000;  // open loop: arrivals decoupled from service
  dopts.txn_deadline_us = 50'000;
  dopts.use_governor = true;
  dopts.retry.max_attempts = 3;
  dopts.retry.backoff_base_us = 50;
  dopts.retry.backoff_cap_us = 1'000;
  const DriverResult result = RunWorkload(db, tm1, dopts);

  EXPECT_GT(result.commits, 0u);
  EXPECT_GT(result.goodput_tps, 0.0);
  EXPECT_LE(result.goodput_commits, result.latency_ns.count());
  // Whatever happened under load, the token pool must end balanced.
  EXPECT_EQ(db.governor().Stats().inflight, 0u);
}

TEST(DriverTest, SliTogglesAcrossRuns) {
  Database db(SmallDbOptions(false));
  Tm1Options opts;
  opts.subscribers = 1000;
  Tm1Workload tm1(opts);
  tm1.Load(db);

  DriverOptions dopts;
  dopts.num_agents = 4;
  dopts.duration_s = 0.3;
  dopts.warmup_s = 0.1;

  const DriverResult base = RunWorkload(db, tm1, dopts);
  EXPECT_EQ(base.counters.Get(Counter::kSliInherited), 0u);

  db.SetSliMode(SliMode::kOn);
  const DriverResult with_sli = RunWorkload(db, tm1, dopts);
  EXPECT_GT(with_sli.commits, 0u);
  // On a contended 2-core box the hot tracker may or may not trip within a
  // short window; at minimum the counters must be self-consistent.
  const uint64_t inh = with_sli.counters.Get(Counter::kSliInherited);
  const uint64_t rec = with_sli.counters.Get(Counter::kSliReclaimed);
  EXPECT_GE(inh + 1000000, rec);  // reclaimed never exceeds inherited (+slack)
}

}  // namespace
}  // namespace slidb
