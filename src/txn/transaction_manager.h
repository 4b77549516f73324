// Transaction manager: begin / commit / abort orchestration over the lock
// manager and the write-ahead log. Commit is where SLI inheritance happens;
// begin is where the next transaction adopts the agent's inherited locks.
//
// Commit runs as a three-phase pipeline (see DESIGN.md "Commit pipeline"):
//   1. log-insert   — reserve + fill the commit record (latch-free append)
//   2. lock-release — ReleaseAll with SLI inheritance, while the flush is
//                     still in flight (early lock release), so the commit
//                     I/O is not part of the lock hold time the next
//                     transaction inherits across
//   3. wait-durable — consolidated group commit on the commit record's LSN,
//                     or on the horizon of the early-released writers the
//                     transaction read (LockHead::DepFor)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/log/log_manager.h"
#include "src/log/log_record.h"
#include "src/storage/slotted_page.h"
#include "src/txn/agent.h"
#include "src/txn/transaction.h"
#include "src/util/status.h"

namespace slidb {

class Catalog;  // engine/catalog.h

struct TxnOptions {
  /// A transaction's redo records accumulate in its private staging buffer
  /// and publish as ONE batch reservation at commit (the commit record
  /// rides the same batch, after the redo records, so ELR ordering is
  /// untouched), each record under its own checksum. The records staged
  /// since the last publish go out early once they reach this many bytes,
  /// so a long transaction cannot overflow the ring in one batch.
  /// The buffer still keeps every record until the transaction ends: it is
  /// the undo log an abort walks. Orders of magnitude below the default
  /// 8 MiB ring; 1 publishes every record at operation time.
  size_t staging_flush_bytes = 64u << 10;

  /// Speculative reads with asynchronous commit dependencies. Locks are
  /// released when the commit record is inserted, before it is durable
  /// (early lock release), so a transaction may read an early-released
  /// writer's data; every grant notes the writer horizon its mode depends
  /// on (LockHead::DepFor, LockClient::NoteDep). A commit whose horizon —
  /// those writers' commit LSNs plus its own commit record — is not yet
  /// durable does NOT block in WaitDurable: it parks a DeferredAck on the
  /// log's ack queue and Commit() returns immediately.
  /// Externalization (the client acknowledgement) moves to the ack's
  /// settlement, performed by the pass that hardens the horizon, so the
  /// ELR soundness invariant (nothing externalizes before every record it
  /// depends on is parseable from the durable stream) holds unchanged.
  /// Off by default: direct API callers keep the synchronous contract that
  /// Commit()'s return IS the durable acknowledgement; deferred-ack
  /// consumers must drain their agent's ring (AgentContext::DrainDeferredAcks)
  /// before treating the session as quiesced.
  bool speculative_reads = false;
};

class TransactionManager {
 public:
  /// Every dependency outlives the manager; no ownership taken. `catalog`
  /// holds the tables and indexes the logged records address, which an
  /// abort rolls back.
  TransactionManager(LockManager* lock_manager, LogManager* log_manager,
                     Catalog* catalog, TxnOptions options = {})
      : lock_manager_(lock_manager),
        log_manager_(log_manager),
        catalog_(catalog),
        options_(options) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Start the agent's (reused) transaction and adopt inherited locks.
  Transaction* Begin(AgentContext* agent);

  /// Commit via the log-insert / lock-release / wait-durable pipeline.
  Status Commit(AgentContext* agent);

  /// Abort: undo the transaction's staged records newest first (locks still
  /// held), log the abort if any record was published, release everything
  /// without inheritance.
  void Abort(AgentContext* agent);

  // ---- redo logging (every storage mutation flows through here) ----
  // The records are the recovery contract: a crash replays exactly these.
  // Emission order matters — a mutation's record is appended while the row
  // is still X-locked, so dependent transactions always log after us.

  /// Log a heap row mutation. `image` is the after-image (kInsert/kUpdate;
  /// empty for kDelete), `before` the before-image an abort, or the restart
  /// undo pass for a loser, restores (empty for kInsert — undoing an insert
  /// is a delete). Both are full images, so a CLR built from `before`
  /// replays at the absolute address with no other context.
  void LogHeapOp(AgentContext* agent, LogRecordType type, uint32_t table,
                 Rid rid, std::span<const uint8_t> before,
                 std::span<const uint8_t> image);

  /// Log an index entry mutation (kIndexInsert / kIndexRemove).
  void LogIndexOp(AgentContext* agent, LogRecordType type, uint32_t index,
                  uint64_t key, uint64_t value);

  /// Restart the txn-id space above every id seen in a recovered log, so
  /// post-recovery transactions never collide with pre-crash ones in the
  /// new log. Call while quiesced (recovery runs before traffic).
  void EnsureNextTxnIdAbove(uint64_t max_seen_id) {
    uint64_t cur = next_txn_id_.load(std::memory_order_relaxed);
    while (cur <= max_seen_id &&
           !next_txn_id_.compare_exchange_weak(cur, max_seen_id + 1,
                                               std::memory_order_relaxed)) {
    }
  }

  const TxnOptions& options() const { return options_; }

  /// Snapshot the active-transaction table for a fuzzy checkpoint. MUST be
  /// called after the kCheckpointBegin record has been appended: any txn
  /// with a published record below the begin LSN either still shows active
  /// here (its first_lsn bounds redo-start) or already has its commit/abort
  /// record below the coming kCheckpointEnd — so no potential loser of a
  /// recovery anchored at this checkpoint escapes the table. Entries may be
  /// stale (txn committed mid-snapshot); staleness only widens redo-start.
  std::vector<CheckpointTxnEntry> SnapshotActiveTxns();

 private:
  /// Emit the txn's kBegin record if this is its first mutation.
  void MaybeLogBegin(Transaction& txn);

  /// Stage one record in the txn's staging buffer; fires the staging
  /// watermark.
  void EmitRecord(Transaction& txn, LogRecordType type, const void* payload,
                  uint32_t payload_len);

  /// Publish the records the txn staged since its last publish under one
  /// reservation; returns their end LSN.
  Lsn PublishStaged(Transaction& txn);

  // Commit pipeline phases. `commit_lsn` stamps released write locks as
  // the durability horizon later acquirers depend on (ELR soundness).
  Lsn CommitLogInsert(Transaction& txn);
  void CommitReleaseLocks(AgentContext* agent, Lsn commit_lsn);
  /// End game of the commit pipeline: make the commit externalizable at
  /// `horizon`. Synchronous mode blocks (WaitDurable) — with a deadline
  /// (AgentContext::set_txn_deadline_ns), on a ring-owned ack it may
  /// abandon; speculative mode parks the ack and returns.
  void CommitExternalize(AgentContext* agent, Lsn horizon);

  /// Record that `txn`'s next publish is its first: capture a conservative
  /// lower bound on its first published LSN for the checkpointer before
  /// the reservation happens.
  void NoteFirstPublish(Transaction& txn);

  LockManager* lock_manager_;
  LogManager* log_manager_;
  Catalog* catalog_;
  TxnOptions options_;
  std::atomic<uint64_t> next_txn_id_{1};

  /// Registry behind SnapshotActiveTxns: weak references to every agent
  /// transaction's published state. Registration is once per Transaction
  /// (first Begin); expired entries are pruned during snapshots.
  std::mutex registry_mu_;
  std::vector<std::weak_ptr<TxnPubState>> registry_;
};

}  // namespace slidb
