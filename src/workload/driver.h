// Benchmark driver: runs a workload on N agent threads with a warm-up and a
// timed measurement window, reproducing the paper's methodology (§5.2):
// spawn clients, let them start working, measure throughput over an
// interval, then stop them. "Hardware contexts utilized" maps to the agent
// thread count on this substrate.
//
// Two arrival models:
//  * Closed loop (default, offered_tps == 0): each agent issues the next
//    transaction the instant the previous one finishes — measures service
//    capacity, but can never express overload (the arrival rate adapts to
//    whatever the system sustains).
//  * Open loop (offered_tps > 0): Poisson arrivals at a configured offered
//    load, scheduled independently of completions; when the system falls
//    behind, the backlog — and therefore response time measured from the
//    SCHEDULED arrival — grows without bound. This is the regime where
//    deadlines, admission control, and shedding mean something.
#pragma once

#include <cstdint>

#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace slidb {

/// Retry discipline for retryable transaction failures (Status::retryable:
/// deadlock victims, lock/deadline timeouts, overload sheds): capped
/// exponential backoff with jitter and a per-transaction attempt budget.
struct RetryPolicy {
  /// Total attempts per transaction (first run included). 1 = no retries,
  /// the legacy behavior.
  uint32_t max_attempts = 1;
  /// First backoff; doubles per subsequent attempt. 0 = retry immediately.
  uint64_t backoff_base_us = 50;
  /// Ceiling for the exponential growth.
  uint64_t backoff_cap_us = 5'000;
  /// The computed backoff is scaled by a factor drawn uniformly from
  /// [1 - jitter, 1 + jitter], decorrelating retry storms.
  double jitter = 0.5;

  /// Backoff before attempt `attempt + 1` (i.e. after the attempt-th try
  /// failed; attempt >= 1), in nanoseconds.
  uint64_t BackoffNs(uint32_t attempt, Rng& rng) const;
};

struct DriverOptions {
  int num_agents = 4;
  double duration_s = 1.0;  ///< measurement window
  double warmup_s = 0.2;    ///< excluded from results
  uint64_t seed = 42;
  /// Nonzero: open-loop mode at this aggregate offered load (transactions
  /// per second across all agents), Poisson inter-arrivals per agent.
  double offered_tps = 0;
  /// Per-transaction response deadline, measured from the (scheduled)
  /// arrival; plumbed into AgentContext and from there into every engine
  /// blocking point. 0 = none.
  uint64_t txn_deadline_us = 0;
  /// Ask Database::AdmitTxn (the overload governor) for an in-flight token
  /// before each attempt; a shed counts as a retryable failure.
  bool use_governor = false;
  RetryPolicy retry;
};

struct DriverResult {
  double tps = 0;             ///< committed transactions / second
  double wall_s = 0;
  int num_agents = 0;
  uint64_t commits = 0;
  uint64_t user_aborts = 0;   ///< benchmark-specified failures
  uint64_t deadlock_aborts = 0;  ///< retryable engine aborts (deadlock,
                                 ///< timeout/deadline, overload shed)
  // -- overload / deadline accounting (measurement window) --
  uint64_t goodput_commits = 0;   ///< commits that met their deadline
  uint64_t deadline_misses = 0;   ///< commits that finished past it
  double goodput_tps = 0;         ///< goodput_commits / wall_s
  uint64_t retries = 0;           ///< re-submissions after retryable aborts
  uint64_t retries_exhausted = 0; ///< transactions dropped at the budget
  uint64_t gov_sheds = 0;         ///< admission-queue-full rejections
  uint64_t wait_depth_cancels = 0;///< hot-head wait-depth cancels
  uint64_t deadline_aborts = 0;   ///< commit-entry deadline aborts
  uint64_t log_flushes = 0;       ///< log passes that hardened bytes
  /// Work/contention breakdown over the measurement window only.
  ProfileSnapshot profile;
  /// Counter deltas over the measurement window only.
  CounterSet counters;
  /// Response time of COMMITTED transactions only (from scheduled arrival
  /// in open-loop mode, from dispatch in closed-loop mode).
  Histogram latency_ns;
  /// Response time of transactions whose final attempt failed — kept out of
  /// latency_ns so aborts can no longer skew the reported commit latency.
  Histogram abort_latency_ns;
  /// CPU seconds consumed (work + contention) / (wall * usable CPUs),
  /// capped at 1. With thread oversubscription this saturates — matching
  /// the paper's "fully loaded" operating points.
  double cpu_utilization = 0;

  double UserAbortRate() const {
    const double total = static_cast<double>(commits + user_aborts);
    return total == 0 ? 0 : static_cast<double>(user_aborts) / total;
  }

  /// Fraction of finished transactions whose final attempt did not commit.
  double AbortRate() const {
    const double total =
        static_cast<double>(commits + user_aborts + deadlock_aborts);
    return total == 0
               ? 0
               : static_cast<double>(user_aborts + deadlock_aborts) / total;
  }
};

/// Run `workload` against `db` (already loaded) and measure.
/// The SLI policy is the database's lock-manager options; switch it with
/// Database::SetSliMode before calling.
DriverResult RunWorkload(Database& db, Workload& workload,
                         const DriverOptions& options);

}  // namespace slidb
