#include "src/stats/counters.h"

#include <cstdio>

namespace slidb {

namespace {

thread_local CounterSet* tls_counters = nullptr;
thread_local CounterSet tls_fallback;

}  // namespace

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kLockRequests: return "lock.requests";
    case Counter::kLockCacheHits: return "lock.cache_hits";
    case Counter::kLockUpgrades: return "lock.upgrades";
    case Counter::kLockWaits: return "lock.waits";
    case Counter::kLockSpinGrants: return "lock.spin_grants";
    case Counter::kLockParks: return "lock.parks";
    case Counter::kLockTimeouts: return "lock.timeouts";
    case Counter::kDeadlocks: return "lock.deadlocks";
    case Counter::kDeadlockPasses: return "lock.deadlock_passes";
    case Counter::kLockReleases: return "lock.releases";
    case Counter::kCanGrantFast: return "lock.cangrant_fast";
    case Counter::kCanGrantSlow: return "lock.cangrant_slow";
    case Counter::kLockWakeFast: return "lock.wake_fast";
    case Counter::kAcqRow: return "acq.row";
    case Counter::kAcqHigh: return "acq.high";
    case Counter::kAcqShared: return "acq.shared";
    case Counter::kAcqExclusive: return "acq.exclusive";
    case Counter::kAcqHot: return "acq.hot";
    case Counter::kAcqHotHeritable: return "acq.hot_heritable";
    case Counter::kAcqHotRow: return "acq.hot_row";
    case Counter::kSliInherited: return "sli.inherited";
    case Counter::kSliReclaimed: return "sli.reclaimed";
    case Counter::kSliInvalidated: return "sli.invalidated";
    case Counter::kSliDiscarded: return "sli.discarded";
    case Counter::kSliUpgradeAfterReclaim: return "sli.upgrade_after_reclaim";
    case Counter::kLogResvRetries: return "log.resv_retries";
    case Counter::kGroupCommitWaitersWoken: return "log.gc_waiters_woken";
    case Counter::kLogChecksumFail: return "log.checksum_fail";
    case Counter::kLogBatchAppends: return "log.batch_appends";
    case Counter::kLogBatchRecords: return "log.batch_records";
    case Counter::kLogBatchBytes: return "log.batch_bytes";
    case Counter::kRecoveryRecordsScanned: return "recovery.records_scanned";
    case Counter::kRecoveryRecordsReplayed: return "recovery.records_replayed";
    case Counter::kRecoveryRecordsSkipped: return "recovery.records_skipped";
    case Counter::kRecoveryCommittedTxns: return "recovery.committed_txns";
    case Counter::kRecoveryTornTails: return "recovery.torn_tails";
    case Counter::kRecoveryRecordsUndone: return "recovery.records_undone";
    case Counter::kRecoveryClrsEmitted: return "recovery.clrs_emitted";
    case Counter::kRecoveryLosersRolledBack:
      return "recovery.losers_rolled_back";
    case Counter::kRecoveryCheckpointAnchored:
      return "recovery.checkpoint_anchored";
    case Counter::kCheckpointsCompleted: return "checkpoint.completed";
    case Counter::kCheckpointImageRecords: return "checkpoint.image_records";
    case Counter::kLogSegmentsCreated: return "log.segments_created";
    case Counter::kLogSegmentsRecycled: return "log.segments_recycled";
    case Counter::kLogSyncFailures: return "log.sync_failures";
    case Counter::kBtreeRestarts: return "btree.restarts";
    case Counter::kBtreeLeafReclaims: return "btree.leaf_reclaims";
    case Counter::kEpochRetired: return "epoch.retired";
    case Counter::kEpochFreed: return "epoch.freed";
    case Counter::kTxnCommits: return "txn.commits";
    case Counter::kTxnUserAborts: return "txn.user_aborts";
    case Counter::kTxnDeadlockAborts: return "txn.deadlock_aborts";
    case Counter::kTxnSpecReads: return "txn.spec_reads";
    case Counter::kTxnDeferredAcks: return "txn.deferred_acks";
    case Counter::kTxnDepSettleNs: return "txn.dep_settle_ns";
    case Counter::kTxnDepAbortedAcks: return "txn.dep_aborted_acks";
    case Counter::kGovAdmits: return "gov.admits";
    case Counter::kGovQueuedAdmits: return "gov.queued_admits";
    case Counter::kGovSheds: return "gov.sheds";
    case Counter::kGovQueueTimeouts: return "gov.queue_timeouts";
    case Counter::kLockWaitDepthCancels: return "lock.wait_depth_cancels";
    case Counter::kLockDeadlineCancels: return "lock.deadline_cancels";
    case Counter::kTxnDeadlineAborts: return "txn.deadline_aborts";
    case Counter::kTxnDeadlineDeferredAcks: return "txn.deadline_deferred_acks";
    case Counter::kTxnRetries: return "txn.retries";
    case Counter::kTxnRetriesExhausted: return "txn.retries_exhausted";
    case Counter::kNumCounters: break;
  }
  return "?";
}

CounterSet& CounterSet::Tls() {
  return tls_counters != nullptr ? *tls_counters : tls_fallback;
}

std::string CounterSet::ToString() const {
  std::string out;
  char line[128];
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (Get(c) == 0) continue;
    std::snprintf(line, sizeof(line), "%-26s %12llu\n", CounterName(c),
                  static_cast<unsigned long long>(Get(c)));
    out += line;
  }
  return out;
}

ScopedCounterSet::ScopedCounterSet(CounterSet* set) : prev_(tls_counters) {
  tls_counters = set;
}

ScopedCounterSet::~ScopedCounterSet() { tls_counters = prev_; }

}  // namespace slidb
