#include "src/workload/driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/cpus.h"
#include "src/util/time_util.h"

namespace slidb {

namespace {

struct AgentSlot {
  std::unique_ptr<AgentContext> agent;
  // Snapshots taken by the agent thread itself at phase transitions, so no
  // cross-thread races on the profile internals.
  ProfileSnapshot profile_begin, profile_end;
  CounterSet counters_begin, counters_end;
  Histogram latency;        ///< committed transactions
  Histogram abort_latency;  ///< final-attempt failures
  uint64_t goodput = 0;
  uint64_t deadline_misses = 0;
  bool saw_begin = false;
  bool saw_end = false;
};

/// Poisson inter-arrival gap in nanoseconds at `rate` arrivals/second.
uint64_t ExpIntervalNs(Rng& rng, double rate) {
  const double u = rng.NextDouble();  // [0, 1)
  const double gap_s = -std::log(1.0 - u) / rate;
  return static_cast<uint64_t>(gap_s * 1e9);
}

}  // namespace

uint64_t RetryPolicy::BackoffNs(uint32_t attempt, Rng& rng) const {
  if (backoff_base_us == 0) return 0;
  const uint32_t doublings = std::min(attempt > 0 ? attempt - 1 : 0u, 20u);
  double us = static_cast<double>(backoff_base_us) *
              static_cast<double>(1ull << doublings);
  us = std::min(us, static_cast<double>(backoff_cap_us));
  if (jitter > 0) us *= 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
  return us > 0 ? static_cast<uint64_t>(us * 1e3) : 0;
}

DriverResult RunWorkload(Database& db, Workload& workload,
                         const DriverOptions& options) {
  // Phases: 0 = warmup, 1 = measuring, 2 = drain/stop.
  std::atomic<int> phase{0};
  const int n = options.num_agents < 1 ? 1 : options.num_agents;
  const bool open_loop = options.offered_tps > 0;
  const double agent_rate = open_loop ? options.offered_tps / n : 0;

  std::vector<AgentSlot> slots(n);
  for (int i = 0; i < n; ++i) {
    slots[i].agent = db.CreateAgent(options.seed + i * 7919);
  }

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      AgentSlot& slot = slots[i];
      AgentContext& agent = *slot.agent;
      ScopedThreadProfile profile_scope(&agent.profile());
      ScopedCounterSet counter_scope(&agent.counters());
      // Private stream for arrival gaps and backoff jitter, so open-loop /
      // retry draws never perturb the workload's own key sequence.
      Rng driver_rng(options.seed * 0x9e3779b97f4a7c15ULL + i + 1);

      uint64_t next_arrival = NowNanos();
      int local_phase = 0;
      while (true) {
        const int p = phase.load(std::memory_order_acquire);
        if (p != local_phase) {
          agent.profile().Flush();
          if (p >= 1 && !slot.saw_begin) {
            slot.profile_begin = agent.profile().Snapshot();
            slot.counters_begin = agent.counters();
            slot.saw_begin = true;
          }
          if (p >= 2) {
            // Quiesce speculative commits: wait for every parked deferred
            // ack to settle so the settle-latency / dependency-abort
            // counters land in this agent's final snapshot and no ack
            // outlives the run.
            agent.DrainDeferredAcks();
            slot.profile_end = agent.profile().Snapshot();
            slot.counters_end = agent.counters();
            slot.saw_end = true;
            break;
          }
          local_phase = p;
        }

        uint64_t arrival = NowNanos();
        if (open_loop) {
          if (arrival < next_arrival) {
            // Idle until the next scheduled arrival, in bounded chunks so
            // phase flips are noticed promptly.
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                std::min<uint64_t>(next_arrival - arrival, 500'000)));
            continue;
          }
          // Latency is measured from the SCHEDULE, and the next arrival
          // advances from the schedule too (not from completion): when the
          // system falls behind, the backlog — and the queueing delay it
          // causes — accumulates exactly as the offered load dictates.
          arrival = next_arrival;
          next_arrival += ExpIntervalNs(driver_rng, agent_rate);
        }
        const uint64_t deadline_ns =
            options.txn_deadline_us != 0
                ? arrival + options.txn_deadline_us * 1'000
                : 0;
        agent.set_txn_deadline_ns(deadline_ns);

        Status st;
        for (uint32_t attempt = 1;; ++attempt) {
          st = options.use_governor ? db.AdmitTxn(&agent) : Status::OK();
          if (st.ok()) {
            st = workload.RunOne(db, agent);
            // Commit/Abort already returned the token; this is the backstop
            // for workloads that bail before Begin (idempotent).
            db.FinishAdmission(&agent);
          }
          if (st.ok() || !st.retryable()) break;
          if (attempt >= options.retry.max_attempts) {
            if (options.retry.max_attempts > 1) {
              CountEvent(Counter::kTxnRetriesExhausted);
            }
            break;
          }
          // A transaction past its response budget is dead — re-running it
          // could only burn capacity the on-time work needs.
          if (deadline_ns != 0 && NowNanos() >= deadline_ns) break;
          if (phase.load(std::memory_order_relaxed) >= 2) break;
          CountEvent(Counter::kTxnRetries);
          const uint64_t backoff =
              options.retry.BackoffNs(attempt, driver_rng);
          if (backoff != 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
          }
        }

        const uint64_t done = NowNanos();
        if (st.IsAborted()) {
          CountEvent(Counter::kTxnUserAborts);
        } else if (st.retryable()) {
          CountEvent(Counter::kTxnDeadlockAborts);
        }
        if (local_phase == 1) {
          if (st.ok()) {
            slot.latency.Add(done - arrival);
            if (deadline_ns == 0 || done <= deadline_ns) {
              ++slot.goodput;
            } else {
              ++slot.deadline_misses;
            }
          } else {
            slot.abort_latency.Add(done - arrival);
          }
        }
      }
    });
  }

  // Warm-up, then measure, then stop.
  const auto sleep_s = [](double s) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(s * 1e6)));
  };
  sleep_s(options.warmup_s);
  const uint64_t flushes_begin = db.log_manager().Stats().flushes;
  const uint64_t t_begin = NowNanos();
  phase.store(1, std::memory_order_release);
  sleep_s(options.duration_s);
  phase.store(2, std::memory_order_release);
  const uint64_t t_end = NowNanos();
  const uint64_t flushes_end = db.log_manager().Stats().flushes;
  for (auto& t : threads) t.join();

  DriverResult result;
  result.num_agents = n;
  // The measurement window is [phase1, phase2] as seen by the coordinator;
  // agents snapshot within a transaction of those instants.
  result.wall_s = static_cast<double>(t_end - t_begin) / 1e9;
  result.log_flushes = flushes_end - flushes_begin;

  for (AgentSlot& slot : slots) {
    if (!slot.saw_begin || !slot.saw_end) continue;
    result.profile += slot.profile_end - slot.profile_begin;
    result.counters.Merge(slot.counters_end.Delta(slot.counters_begin));
    result.latency_ns.Merge(slot.latency);
    result.abort_latency_ns.Merge(slot.abort_latency);
    result.goodput_commits += slot.goodput;
    result.deadline_misses += slot.deadline_misses;
  }
  result.commits = result.counters.Get(Counter::kTxnCommits);
  result.user_aborts = result.counters.Get(Counter::kTxnUserAborts);
  result.deadlock_aborts = result.counters.Get(Counter::kTxnDeadlockAborts);
  result.retries = result.counters.Get(Counter::kTxnRetries);
  result.retries_exhausted =
      result.counters.Get(Counter::kTxnRetriesExhausted);
  result.gov_sheds = result.counters.Get(Counter::kGovSheds);
  result.wait_depth_cancels =
      result.counters.Get(Counter::kLockWaitDepthCancels);
  result.deadline_aborts = result.counters.Get(Counter::kTxnDeadlineAborts);
  result.tps = result.wall_s > 0
                   ? static_cast<double>(result.commits) / result.wall_s
                   : 0;
  result.goodput_tps =
      result.wall_s > 0
          ? static_cast<double>(result.goodput_commits) / result.wall_s
          : 0;

  const double cpu_seconds =
      static_cast<double>(result.profile.TotalCpu()) / CyclesPerNano() / 1e9;
  const double util =
      cpu_seconds / (result.wall_s * static_cast<double>(UsableCpus()));
  result.cpu_utilization = util > 1.0 ? 1.0 : util;
  return result;
}

}  // namespace slidb
