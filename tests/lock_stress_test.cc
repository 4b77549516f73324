// Randomized stress / property tests for the lock manager + SLI protocol:
// the mutual-exclusion invariant must hold with SLI off and on (at the
// default heat threshold and at 0, where every head is hot), mixed lock
// granularities, random aborts, and deadlock retries.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/util/rng.h"

namespace slidb {
namespace {

constexpr uint32_t kDefaultHotMin = LockManagerOptions{}.hot_min_contended;

/// Exercises a small universe of tables/pages/rows from several agents with
/// random read/write mixes; shared counters protected only by the database
/// locks detect any mutual-exclusion violation.
struct StressConfig {
  SliMode mode;
  uint32_t hot_min_contended;
  double write_fraction;
};

class LockStress : public ::testing::TestWithParam<StressConfig> {};

TEST_P(LockStress, MutualExclusionInvariantHolds) {
  const StressConfig cfg = GetParam();
  LockManagerOptions o;
  o.sli_mode = cfg.mode;
  o.hot_min_contended = cfg.hot_min_contended;
  o.lock_timeout_us = 3'000'000;
  LockManager lm(o);

  constexpr int kAgents = 4;
  constexpr int kIters = 250;
  constexpr int kTables = 2;
  constexpr int kRowsPerTable = 4;

  // One guarded cell per row; writers must be exclusive.
  struct Cell {
    std::atomic<int> writers{0};
    std::atomic<int> readers{0};
    int64_t value = 0;
  };
  Cell cells[kTables][kRowsPerTable];
  std::atomic<int64_t> expected_total{0};
  std::atomic<bool> violation{false};

  struct AgentState {
    std::unique_ptr<AgentSliState> sli;
    std::unique_ptr<LockClient> client;
  };
  std::vector<AgentState> agents(kAgents);
  for (int i = 0; i < kAgents; ++i) {
    agents[i].sli = std::make_unique<AgentSliState>(i);
    agents[i].client = std::make_unique<LockClient>();
    agents[i].client->SetPool(&agents[i].sli->pool());
  }

  std::atomic<uint64_t> next_txn{1};

  // Checker thread: at random checkpoints, assert that every head's
  // incremental grant summary equals a full-queue recompute (ForEachHead
  // runs the lambda with the head latch held, so the comparison is exact).
  std::atomic<bool> done{false};
  std::atomic<int> summary_mismatches{0};
  std::atomic<uint64_t> summary_checks{0};
  std::thread checker([&] {
    Rng rng(987);
    // Loop until the workload finishes, then take one guaranteed final
    // pass — on a single-CPU host the agents can complete before this
    // thread is first scheduled.
    for (bool final_pass = false; !final_pass;) {
      final_pass = done.load(std::memory_order_acquire);
      lm.table().ForEachHead([&](LockHead* h) {
        summary_checks.fetch_add(1, std::memory_order_relaxed);
        if (!h->SummaryMatchesQueue()) {
          summary_mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
      if (!final_pass) SpinForNanos(20'000 + rng.Uniform(0, 200'000));
    }
  });

  std::vector<std::thread> threads;
  for (int a = 0; a < kAgents; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(1234 + a);
      AgentState& st = agents[a];
      for (int iter = 0; iter < kIters; ++iter) {
        st.client->StartTxn(next_txn.fetch_add(1), a);
        lm.AdoptInherited(st.client.get(), st.sli.get());

        const uint32_t table = static_cast<uint32_t>(rng.Uniform(1, kTables));
        const uint32_t row =
            static_cast<uint32_t>(rng.Uniform(0, kRowsPerTable - 1));
        const bool write = rng.Bernoulli(cfg.write_fraction);
        Cell& cell = cells[table - 1][row];

        const Status st_lock =
            lm.Lock(st.client.get(), LockId::Row(0, table, 0, row),
                    write ? LockMode::kX : LockMode::kS);
        if (!st_lock.ok()) {
          // Deadlock victim or timeout: abort (no inheritance) and retry.
          lm.ReleaseAll(st.client.get(), st.sli.get(), false);
          continue;
        }

        if (write) {
          if (cell.writers.fetch_add(1) != 0 || cell.readers.load() != 0) {
            violation.store(true);
          }
          cell.value += 1;
          cell.writers.fetch_sub(1);
        } else {
          cell.readers.fetch_add(1);
          if (cell.writers.load() != 0) violation.store(true);
          cell.readers.fetch_sub(1);
        }

        const bool abort = rng.Bernoulli(0.1);
        if (abort && write) {
          cell.value -= 1;  // "undo" while still holding the X lock
          lm.ReleaseAll(st.client.get(), st.sli.get(), false);
        } else {
          if (write) expected_total.fetch_add(1);
          lm.ReleaseAll(st.client.get(), st.sli.get(), true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  checker.join();
  EXPECT_EQ(summary_mismatches.load(), 0)
      << "incremental grant summary diverged from the queue";
  EXPECT_GT(summary_checks.load(), 0u);

  // Drain all speculation: with SLI disabled the release path discards
  // every parked inherited request.
  lm.mutable_options().sli_mode = SliMode::kOff;
  for (int a = 0; a < kAgents; ++a) {
    agents[a].client->StartTxn(next_txn.fetch_add(1), a);
    lm.ReleaseAll(agents[a].client.get(), agents[a].sli.get(), false);
  }

  EXPECT_FALSE(violation.load()) << "reader/writer exclusion violated";
  int64_t total = 0;
  for (auto& table : cells) {
    for (auto& cell : table) total += cell.value;
  }
  EXPECT_EQ(total, expected_total.load());
  // All queues must be empty at the end, with the summaries agreeing.
  lm.table().ForEachHead([](LockHead* h) {
    EXPECT_TRUE(h->QueueEmpty());
    EXPECT_TRUE(h->SummaryMatchesQueue());
    EXPECT_EQ(h->granted_mask, 0u);
    EXPECT_EQ(h->inherited_hint.load(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LockStress,
    ::testing::Values(StressConfig{SliMode::kOff, kDefaultHotMin, 0.3},
                      StressConfig{SliMode::kOn, kDefaultHotMin, 0.3},
                      StressConfig{SliMode::kOn, kDefaultHotMin, 0.05},
                      // Every head hot: the heavy-invalidation configs.
                      StressConfig{SliMode::kOn, 0, 0.3},
                      StressConfig{SliMode::kOn, 0, 0.9}),
    [](const ::testing::TestParamInfo<StressConfig>& info) {
      const StressConfig& c = info.param;
      return std::string(SliModeName(c.mode)) + "_H" +
             std::to_string(c.hot_min_contended) + "_W" +
             std::to_string(static_cast<int>(c.write_fraction * 100));
    });

TEST(LockStressExtra, RapidSliToggleIsSafe) {
  // Switching SLI off and on between runs (as the benches do) must not
  // strand inherited requests.
  LockManagerOptions o;
  o.hot_min_contended = 0;  // every head hot: each "on" round inherits
  LockManager lm(o);
  AgentSliState sli(0);
  LockClient c;
  c.SetPool(&sli.pool());

  for (int round = 0; round < 10; ++round) {
    lm.mutable_options().sli_mode =
        round % 2 == 0 ? SliMode::kOn : SliMode::kOff;
    for (uint64_t i = 0; i < 20; ++i) {
      c.StartTxn(round * 100 + i + 1, 0);
      lm.AdoptInherited(&c, &sli);
      ASSERT_TRUE(lm.Lock(&c, LockId::Table(0, 1), LockMode::kS).ok());
      lm.ReleaseAll(&c, &sli, true);
    }
  }
  // Final drain and verify nothing leaks.
  c.StartTxn(99999, 0);
  lm.ReleaseAll(&c, &sli, false);
  EXPECT_EQ(sli.inherited_count(), 0u);
  lm.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST(LockStressExtra, BimodalWorkloadConverges) {
  // Paper §4.4: two transaction classes touching different tables on the
  // same agents. With the paper's "do nothing" policy the system must stay
  // correct and keep making progress (inherited locks for the other class
  // get discarded, not stuck).
  LockManagerOptions o;
  o.sli_mode = SliMode::kOn;
  o.hot_min_contended = 0;  // every head hot
  LockManager lm(o);

  constexpr int kAgents = 4;
  std::vector<std::unique_ptr<AgentSliState>> slis;
  std::vector<std::unique_ptr<LockClient>> clients;
  for (int i = 0; i < kAgents; ++i) {
    slis.push_back(std::make_unique<AgentSliState>(i));
    clients.push_back(std::make_unique<LockClient>());
    clients[i]->SetPool(&slis[i]->pool());
  }
  std::atomic<uint64_t> next_txn{1};
  std::vector<std::thread> threads;
  for (int a = 0; a < kAgents; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(a);
      for (int i = 0; i < 300; ++i) {
        clients[a]->StartTxn(next_txn.fetch_add(1), a);
        lm.AdoptInherited(clients[a].get(), slis[a].get());
        // Class A uses tables 1-2, class B uses tables 3-4, alternating.
        const uint32_t base = (i % 2 == 0) ? 1 : 3;
        ASSERT_TRUE(lm.Lock(clients[a].get(),
                            LockId::Table(0, base + (i % 2)), LockMode::kS)
                        .ok());
        lm.ReleaseAll(clients[a].get(), slis[a].get(), true);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Force-drain speculation, then the queues must be empty.
  lm.mutable_options().sli_mode = SliMode::kOff;
  for (int a = 0; a < kAgents; ++a) {
    clients[a]->StartTxn(next_txn.fetch_add(1), a);
    lm.ReleaseAll(clients[a].get(), slis[a].get(), false);
  }
  lm.table().ForEachHead([](LockHead* h) { EXPECT_TRUE(h->QueueEmpty()); });
}

TEST(LockStressExtra, HierarchyMixedGranularityConflicts) {
  // A table-X holder excludes row-level users and vice versa through the
  // intention hierarchy, repeatedly and concurrently.
  LockManager lm;
  std::atomic<bool> table_locked{false};
  std::atomic<bool> violation{false};
  std::atomic<int> rows_active{0};

  std::thread coarse([&] {
    LockClient c;
    for (uint64_t i = 0; i < 50; ++i) {
      c.StartTxn(1000000 + i, 0);
      ASSERT_TRUE(lm.Lock(&c, LockId::Table(0, 1), LockMode::kX).ok());
      table_locked.store(true);
      if (rows_active.load() != 0) violation.store(true);
      SpinForNanos(20'000);
      table_locked.store(false);
      lm.ReleaseAll(&c, nullptr, false);
    }
  });
  std::vector<std::thread> fine;
  for (int t = 0; t < 3; ++t) {
    fine.emplace_back([&, t] {
      LockClient c;
      for (uint64_t i = 0; i < 300; ++i) {
        c.StartTxn(t * 10000 + i + 1, t + 1);
        ASSERT_TRUE(
            lm.Lock(&c, LockId::Row(0, 1, 1, static_cast<uint32_t>(t)),
                    LockMode::kX)
                .ok());
        rows_active.fetch_add(1);
        if (table_locked.load()) violation.store(true);
        rows_active.fetch_sub(1);
        lm.ReleaseAll(&c, nullptr, false);
      }
    });
  }
  coarse.join();
  for (auto& t : fine) t.join();
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace slidb
