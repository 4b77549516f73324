// Micro-benchmarks (google-benchmark) for the primitives underlying the
// paper's claims: latch acquisition, lock acquire/release by mode and
// level, the transaction lock-cache hit path, and — the crux — a full
// lock-manager round trip vs an SLI reclaim (one CAS).
#include <benchmark/benchmark.h>

#include "src/lock/lock_manager.h"

namespace slidb {
namespace {

void BM_SpinLatchUncontended(benchmark::State& state) {
  SpinLatch latch;
  for (auto _ : state) {
    latch.Acquire();
    latch.Release();
  }
}
BENCHMARK(BM_SpinLatchUncontended);

void BM_SpinLatchContended(benchmark::State& state) {
  static SpinLatch latch;
  for (auto _ : state) {
    latch.Acquire();
    benchmark::DoNotOptimize(&latch);
    latch.Release();
  }
}
BENCHMARK(BM_SpinLatchContended)->Threads(2)->Threads(4)->Threads(8);

void BM_RwLatchShared(benchmark::State& state) {
  static RwLatch latch;
  for (auto _ : state) {
    latch.AcquireShared();
    latch.ReleaseShared();
  }
}
BENCHMARK(BM_RwLatchShared)->Threads(1)->Threads(4);

/// Full acquire+release round trip through the lock manager, by level.
void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager lm;
  LockClient c;
  uint64_t txn = 1;
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    c.StartTxn(txn++, 0);
    LockId id;
    switch (level) {
      case 0: id = LockId::Table(0, 1); break;
      case 1: id = LockId::Page(0, 1, 7); break;
      default: id = LockId::Row(0, 1, 7, 3); break;
    }
    benchmark::DoNotOptimize(lm.Lock(&c, id, LockMode::kS));
    lm.ReleaseAll(&c, nullptr, false);
  }
}
BENCHMARK(BM_LockAcquireRelease)->Arg(0)->Arg(1)->Arg(2);

/// Repeat-acquire: the transaction lock-cache hit path.
void BM_LockCacheHit(benchmark::State& state) {
  LockManager lm;
  LockClient c;
  c.StartTxn(1, 0);
  (void)lm.Lock(&c, LockId::Table(0, 1), LockMode::kS);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Lock(&c, LockId::Table(0, 1), LockMode::kS));
  }
  lm.ReleaseAll(&c, nullptr, false);
}
BENCHMARK(BM_LockCacheHit);

/// The SLI fast path: commit inherits, next transaction reclaims via CAS.
/// Compare against BM_LockAcquireRelease/0 — the round trip it replaces.
void BM_SliInheritReclaimCycle(benchmark::State& state) {
  LockManagerOptions o;
  o.sli_mode = SliMode::kOn;
  o.hot_min_contended = 0;  // every head hot: one thread never contends
  LockManager lm(o);
  AgentSliState sli(0);
  LockClient c;
  c.SetPool(&sli.pool());
  uint64_t txn = 1;
  for (auto _ : state) {
    c.StartTxn(txn++, 0);
    lm.AdoptInherited(&c, &sli);
    benchmark::DoNotOptimize(lm.Lock(&c, LockId::Table(0, 1), LockMode::kS));
    lm.ReleaseAll(&c, &sli, /*allow_inherit=*/true);
  }
  // Drain the inheritance list.
  c.StartTxn(txn++, 0);
  lm.ReleaseAll(&c, &sli, false);
}
BENCHMARK(BM_SliInheritReclaimCycle);

/// Contended table lock: N threads hammering one table lock — the paper's
/// bottleneck in miniature. Compare ->Threads(k) growth against
/// BM_SliContendedTableLock below.
void BM_BaselineContendedTableLock(benchmark::State& state) {
  static LockManager* lm = nullptr;
  if (state.thread_index() == 0) {
    lm = new LockManager();
  }
  LockClient c;
  uint64_t txn = state.thread_index() * 1'000'000 + 1;
  for (auto _ : state) {
    c.StartTxn(txn++, static_cast<uint32_t>(state.thread_index()));
    benchmark::DoNotOptimize(lm->Lock(&c, LockId::Table(0, 1), LockMode::kIS));
    lm->ReleaseAll(&c, nullptr, false);
  }
  if (state.thread_index() == 0) {
    state.SetLabel("shared table IS lock");
  }
}
BENCHMARK(BM_BaselineContendedTableLock)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_SliContendedTableLock(benchmark::State& state) {
  static LockManager* lm = nullptr;
  if (state.thread_index() == 0) {
    LockManagerOptions o;
    o.sli_mode = SliMode::kOn;
    o.hot_min_contended = 0;  // inherit from the first release on
    lm = new LockManager(o);
  }
  AgentSliState sli(static_cast<uint32_t>(state.thread_index()));
  LockClient c;
  c.SetPool(&sli.pool());
  uint64_t txn = state.thread_index() * 1'000'000 + 1;
  for (auto _ : state) {
    c.StartTxn(txn++, static_cast<uint32_t>(state.thread_index()));
    lm->AdoptInherited(&c, &sli);
    benchmark::DoNotOptimize(lm->Lock(&c, LockId::Table(0, 1), LockMode::kIS));
    lm->ReleaseAll(&c, &sli, true);
  }
  // Drain before the manager may be torn down.
  c.StartTxn(txn++, static_cast<uint32_t>(state.thread_index()));
  lm->ReleaseAll(&c, &sli, false);
  if (state.thread_index() == 0) {
    state.SetLabel("shared table IS lock, SLI");
  }
}
BENCHMARK(BM_SliContendedTableLock)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

}  // namespace
}  // namespace slidb

BENCHMARK_MAIN();
