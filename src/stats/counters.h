// Software counters for lock-manager and SLI behaviour. These feed Figures 8
// and 9 (lock-type breakdown and SLI outcome breakdown).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/util/cacheline.h"

namespace slidb {

/// Counter identifiers. Grouped by the figure they feed.
enum class Counter : uint32_t {
  // -- general lock manager traffic --
  kLockRequests = 0,   ///< calls into LockManager::Lock (cache misses incl.)
  kLockCacheHits,      ///< requests satisfied by the txn's own lock cache
  kLockUpgrades,       ///< mode upgrades of an existing request
  kLockWaits,          ///< requests that blocked on a conflict
  kLockSpinGrants,     ///< lock waits granted while the waiter spun
  kLockParks,          ///< lock waits that parked on the client's futex word
  kLockTimeouts,
  kDeadlocks,          ///< waits ended as a deadlock pass's victim
  kDeadlockPasses,     ///< waits-for passes run (by waiters parked 1 ms)
  kLockReleases,
  kCanGrantFast,       ///< conflict checks answered O(1) from the summary
  kCanGrantSlow,       ///< conflict checks that walked the queue (inherited
                       ///< invalidation possible)
  kLockWakeFast,       ///< Wake() calls that needed no futex syscall
                       ///< because the waiter was not parked

  // -- Figure 8: breakdown of acquired locks --
  kAcqRow,             ///< row-level acquisitions
  kAcqHigh,            ///< page-level-or-higher acquisitions
  kAcqShared,          ///< acquisitions in a heritable (shared-class) mode
  kAcqExclusive,       ///< acquisitions in X/SIX/U
  kAcqHot,             ///< acquisitions whose lock head was hot
  kAcqHotHeritable,    ///< hot AND heritable AND high-level
  kAcqHotRow,          ///< hot row locks (paper expects these to be rare)

  // -- Figure 9: SLI outcomes --
  kSliInherited,       ///< locks passing all five criteria at release,
                       ///< handed to the agent thread
  kSliReclaimed,       ///< inherited requests used by the next transaction
  kSliInvalidated,     ///< inherited requests killed by a conflicting request
  kSliDiscarded,       ///< inherited requests released unused at next commit
  kSliUpgradeAfterReclaim,  ///< reclaimed, then needed a stronger mode

  // -- log / commit pipeline --
  kLogResvRetries,          ///< backpressure pauses in the log append path
                            ///< (ring space or publish-slot waits)
  kGroupCommitWaitersWoken, ///< committers released by another thread's
                            ///< log pass (followers settled while parked)
  kLogChecksumFail,         ///< records rejected on read-back (CRC mismatch
                            ///< or torn tail)
  kLogBatchAppends,         ///< batch publications (one ring reservation
                            ///< each; AppendBatch chunks count individually)
  kLogBatchRecords,         ///< records published through batch appends
  kLogBatchBytes,           ///< wire bytes of the records published
                            ///< through batch appends

  // -- crash recovery --
  kRecoveryRecordsScanned,  ///< valid records decoded from the durable log
  kRecoveryRecordsReplayed, ///< redo records applied to storage
  kRecoveryRecordsSkipped,  ///< redo records of uncommitted txns dropped
  kRecoveryCommittedTxns,   ///< transactions whose commit record was durable
  kRecoveryTornTails,       ///< recoveries that discarded a torn/corrupt tail
  kRecoveryRecordsUndone,   ///< loser records rolled back by the undo pass
  kRecoveryClrsEmitted,     ///< compensation records written during undo
  kRecoveryLosersRolledBack, ///< uncommitted txns rolled back at restart
  kRecoveryCheckpointAnchored, ///< recoveries that started at a checkpoint

  // -- checkpointing and log segments --
  kCheckpointsCompleted,    ///< fuzzy checkpoints that reached kCheckpointEnd
  kCheckpointImageRecords,  ///< heap + index image records written
  kLogSegmentsCreated,      ///< segment files created (write-new-then-rename)
  kLogSegmentsRecycled,     ///< segment files deleted after checkpoint
  kLogSyncFailures,         ///< fsync/close failures that poisoned the device

  // -- B-tree optimistic lock coupling --
  kBtreeRestarts,       ///< optimistic traversals retried after a version
                        ///< conflict (read or write path)
  kBtreeLeafReclaims,   ///< emptied leaves unlinked and retired to the epoch
                        ///< manager
  kEpochRetired,        ///< nodes handed to epoch-deferred reclamation
  kEpochFreed,          ///< retired nodes actually freed (grace elapsed)

  // -- transactions --
  kTxnCommits,
  kTxnUserAborts,      ///< benchmark-specified failures (invalid input)
  kTxnDeadlockAborts,

  // -- speculative reads / commit dependencies --
  kTxnSpecReads,       ///< lock acquisitions that raised the txn's
                       ///< durability-dependency horizon (the speculative
                       ///< read capture point)
  kTxnDeferredAcks,    ///< commits whose externalization was parked on the
                       ///< log's ack queue instead of waiting
  kTxnDepSettleNs,     ///< nanoseconds parked acks spent waiting for their
                       ///< dependency horizon to harden (settle-side)
  kTxnDepAbortedAcks,  ///< parked acks settled as LOST (dependency horizon
                       ///< never became durable — shutdown / crash path)

  // -- overload governor / deadlines --
  kGovAdmits,          ///< transactions granted an in-flight token
  kGovQueuedAdmits,    ///< admissions that waited in the entry queue first
  kGovSheds,           ///< arrivals shed immediately (entry queue full)
  kGovQueueTimeouts,   ///< queued arrivals whose deadline expired waiting
  kLockWaitDepthCancels, ///< enqueues cancelled: hot head at wait-depth limit
  kLockDeadlineCancels,  ///< lock waits cut short by the txn deadline (the
                         ///< min(lock_timeout, remaining_deadline) path)
  kTxnDeadlineAborts,    ///< commit entry refused: deadline already passed
  kTxnDeadlineDeferredAcks, ///< durable waits past deadline parked as
                            ///< DeferredAcks instead of blocking on
  kTxnRetries,           ///< driver re-submissions after a retryable abort
  kTxnRetriesExhausted,  ///< transactions dropped at the attempt budget

  kNumCounters,
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

const char* CounterName(Counter c);

/// A set of counters. Each agent thread owns one (unsynchronized fast path);
/// the driver merges them. There is no global set: counts from a thread
/// that never installs a ScopedCounterSet stay in that thread's own
/// fallback (see Tls()).
class CounterSet {
 public:
  CounterSet() { values_.fill(0); }

  void Add(Counter c, uint64_t delta = 1) {
    values_[static_cast<size_t>(c)] += delta;
  }

  uint64_t Get(Counter c) const { return values_[static_cast<size_t>(c)]; }

  void Merge(const CounterSet& other) {
    for (size_t i = 0; i < kNumCounters; ++i) values_[i] += other.values_[i];
  }

  CounterSet Delta(const CounterSet& baseline) const {
    CounterSet out;
    for (size_t i = 0; i < kNumCounters; ++i) {
      out.values_[i] = values_[i] - baseline.values_[i];
    }
    return out;
  }

  void Reset() { values_.fill(0); }

  std::string ToString() const;

  /// Thread-local counter set used by library internals; agent threads
  /// install their own with ScopedCounterSet. A thread without one counts
  /// into a thread_local fallback set that no reader ever sees, so counts
  /// from such threads (the flusher, the checkpointer) are dropped.
  static CounterSet& Tls();

 private:
  std::array<uint64_t, kNumCounters> values_;
};

/// RAII: route the calling thread's counter updates into `set`.
class ScopedCounterSet {
 public:
  explicit ScopedCounterSet(CounterSet* set);
  ~ScopedCounterSet();

 private:
  CounterSet* prev_;
};

/// Shorthand used across the library.
inline void CountEvent(Counter c, uint64_t delta = 1) {
  CounterSet::Tls().Add(c, delta);
}

}  // namespace slidb
