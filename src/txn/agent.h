// Agent threads: the worker context that executes transactions back-to-back.
// SLI state is agent-scoped (paper §4.1): locks pass from a committing
// transaction to the *same agent's* next transaction.
#pragma once

#include <cstdint>

#include "src/lock/agent_sli.h"
#include "src/log/commit_dependency.h"
#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/txn/transaction.h"
#include "src/util/rng.h"

namespace slidb {

/// Everything one worker thread owns: its reusable transaction (and its
/// LockClient), its SLI inheritance list and request pool, its profiler,
/// counters, and RNG. Not thread-safe; single owner.
class AgentContext {
 public:
  explicit AgentContext(uint32_t id, uint64_t seed = 1)
      : id_(id), sli_(id), rng_(seed + id * 0x9e3779b9ULL) {
    txn_.lock_client().SetPool(&sli_.pool());
  }

  AgentContext(const AgentContext&) = delete;
  AgentContext& operator=(const AgentContext&) = delete;

  uint32_t id() const { return id_; }
  Transaction& txn() { return txn_; }
  AgentSliState& sli() { return sli_; }
  ThreadProfile& profile() { return profile_; }
  CounterSet& counters() { return counters_; }
  Rng& rng() { return rng_; }

  /// Parked commit acknowledgements of this agent's speculative commits
  /// (TxnOptions::speculative_reads) and of deadline commits that outran
  /// their budget. The ring's destructor drains, so the log's ack queue
  /// never holds a pointer into a dead agent — but the LogManager
  /// must still be alive (or already shut down, which settles everything)
  /// when the agent is destroyed with acks outstanding.
  DeferredAckRing& deferred_acks() { return deferred_acks_; }

  /// Block until every parked acknowledgement settled: the quiesce point a
  /// speculative-commit consumer calls before reading results or retiring
  /// the agent. No-op when nothing is outstanding.
  void DrainDeferredAcks() { deferred_acks_.Drain(); }

  /// Absolute response deadline (NowNanos clock) for this agent's NEXT /
  /// current transaction; 0 = none. Begin() snapshots it into the
  /// LockClient, from where every blocking point (lock waits, the
  /// durable-commit wait) reads it. Set per arrival by open-loop drivers.
  uint64_t txn_deadline_ns() const { return txn_deadline_ns_; }
  void set_txn_deadline_ns(uint64_t ns) { txn_deadline_ns_ = ns; }

  /// Whether this agent currently holds an admission-governor token
  /// (Database::AdmitTxn / FinishAdmission bookkeeping).
  bool holds_admission() const { return holds_admission_; }
  void set_holds_admission(bool held) { holds_admission_ = held; }

 private:
  uint32_t id_;
  Transaction txn_;
  AgentSliState sli_;
  ThreadProfile profile_;
  CounterSet counters_;
  Rng rng_;
  DeferredAckRing deferred_acks_;
  uint64_t txn_deadline_ns_ = 0;
  bool holds_admission_ = false;
};

}  // namespace slidb
