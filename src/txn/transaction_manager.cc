#include "src/txn/transaction_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/log/recovery.h"
#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/time_util.h"

namespace slidb {

Transaction* TransactionManager::Begin(AgentContext* agent) {
  ScopedComponent comp(Component::kTxn);
  Transaction& txn = agent->txn();
  if (!txn.registered_) {
    txn.registered_ = true;
    std::lock_guard<std::mutex> g(registry_mu_);
    registry_.push_back(txn.pub_);
  }
  txn.Reset(next_txn_id_.fetch_add(1, std::memory_order_relaxed),
            agent->id());
  // Snapshot the agent's response deadline into the LockClient, where
  // every blocking point (lock waits, the durable-commit wait) can read it.
  txn.lock_client().SetDeadline(agent->txn_deadline_ns());
  lock_manager_->AdoptInherited(&txn.lock_client(), &agent->sli());
  return &txn;
}

void TransactionManager::NoteFirstPublish(Transaction& txn) {
  if (txn.pub_->first_lsn.load(std::memory_order_relaxed) != kLsnNone) {
    return;
  }
  // Captured BEFORE the publish reserves ring space, so it cannot exceed
  // the first record's actual LSN. The seq_cst fence pairs with the one in
  // SnapshotActiveTxns through the log's reservation clock: if our records
  // land below a checkpoint-begin record, the checkpointer's post-begin
  // snapshot observes this store.
  txn.pub_->first_lsn.store(log_manager_->reserved_lsn(),
                            std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

std::vector<CheckpointTxnEntry> TransactionManager::SnapshotActiveTxns() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::vector<CheckpointTxnEntry> out;
  std::lock_guard<std::mutex> g(registry_mu_);
  size_t live = 0;
  for (auto& weak : registry_) {
    auto pub = weak.lock();
    if (pub == nullptr) continue;  // agent destroyed: prune below
    registry_[live++] = weak;
    if (!pub->active.load(std::memory_order_acquire)) continue;
    CheckpointTxnEntry entry;
    entry.txn_id = pub->txn_id.load(std::memory_order_relaxed);
    entry.first_lsn = pub->first_lsn.load(std::memory_order_relaxed);
    out.push_back(entry);
  }
  registry_.resize(live);
  return out;
}

void TransactionManager::MaybeLogBegin(Transaction& txn) {
  // Lazy begin record: emitted just before the transaction's first
  // mutation record. Read-only transactions never touch the append path,
  // and recovery still sees begin strictly before any of the txn's redo.
  if (txn.begin_logged_) return;
  txn.begin_logged_ = true;
  EmitRecord(txn, LogRecordType::kBegin, nullptr, 0);
}

void TransactionManager::EmitRecord(Transaction& txn, LogRecordType type,
                                    const void* payload,
                                    uint32_t payload_len) {
  txn.staging_.Stage(txn.id(), type, payload, payload_len);
  // Long-transaction watermark: publish the partial batch (no commit
  // record yet — the txn still holds its locks, so dependents cannot have
  // observed these writes, let alone logged past them).
  if (txn.staging_.unpublished_bytes() >= options_.staging_flush_bytes) {
    PublishStaged(txn);
  }
}

Lsn TransactionManager::PublishStaged(Transaction& txn) {
  NoteFirstPublish(txn);
  return log_manager_->AppendBatch(&txn.staging_);
}

void TransactionManager::LogHeapOp(AgentContext* agent, LogRecordType type,
                                   uint32_t table, Rid rid,
                                   std::span<const uint8_t> before,
                                   std::span<const uint8_t> image) {
  MaybeLogBegin(agent->txn());
  HeapRedoPayload row{};
  row.table = table;
  row.slot = rid.slot;
  row.page_no = rid.page_no;
  row.before_len = static_cast<uint32_t>(before.size());
  // Full images, never truncated: a capped after-image would replay as a
  // different row, a capped before-image would undo to one. Heap records
  // are bounded by the 8 KiB page — hard check, not an assert: in Release
  // builds an oversized image would otherwise overflow the stack buffer
  // below.
  if (image.size() > SlottedPage::MaxRecordSize() ||
      before.size() > SlottedPage::MaxRecordSize()) {
    std::fprintf(stderr,
                 "slidb: heap redo image %zu/%zu exceeds page bound\n",
                 before.size(), image.size());
    std::abort();
  }
  uint8_t buf[sizeof(HeapRedoPayload) + 2 * SlottedPage::MaxRecordSize()];
  std::memcpy(buf, &row, sizeof(row));
  if (!before.empty()) {
    std::memcpy(buf + sizeof(row), before.data(), before.size());
  }
  if (!image.empty()) {
    std::memcpy(buf + sizeof(row) + before.size(), image.data(),
                image.size());
  }
  const auto total =
      static_cast<uint32_t>(sizeof(row) + before.size() + image.size());
  EmitRecord(agent->txn(), type, buf, total);
}

void TransactionManager::LogIndexOp(AgentContext* agent, LogRecordType type,
                                    uint32_t index, uint64_t key,
                                    uint64_t value) {
  MaybeLogBegin(agent->txn());
  IndexRedoPayload entry{};
  entry.index = index;
  entry.key = key;
  entry.value = value;
  EmitRecord(agent->txn(), type, &entry, static_cast<uint32_t>(sizeof(entry)));
}

Lsn TransactionManager::CommitLogInsert(Transaction& txn) {
  // The commit record rides the SAME batch as the txn's remaining redo
  // records, last in line: one reservation fixes all their LSNs, with the
  // commit record's end LSN as the batch end. ELR stays sound — locks drop
  // only after this publish returns, so any dependent's records (and its
  // commit) reserve strictly after ours.
  txn.staging_.Stage(txn.id(), LogRecordType::kCommit, nullptr, 0);
  return PublishStaged(txn);
}

void TransactionManager::CommitReleaseLocks(AgentContext* agent,
                                            Lsn commit_lsn) {
  lock_manager_->ReleaseAll(&agent->txn().lock_client(), &agent->sli(),
                            /*allow_inherit=*/true, commit_lsn);
}

void TransactionManager::CommitExternalize(AgentContext* agent, Lsn horizon) {
  if (horizon == 0) return;
  const uint64_t deadline_ns = agent->txn().lock_client().deadline_ns();
  if (!options_.speculative_reads && deadline_ns == 0) {
    log_manager_->WaitDurable(horizon);
    return;
  }
  // Speculative or deadline-bounded: either way the acknowledgement may
  // outlive this call, so it goes through a ring-owned ack. The fast check
  // avoids burning a ring slot when the horizon already hardened (the
  // dominant case on read-mostly workloads).
  if (log_manager_->durable_lsn() >= horizon) return;
  DeferredAck* ack = agent->deferred_acks().Acquire();
  ack->lsn = horizon;
  ack->park_ns = NowNanos();
  if (!options_.speculative_reads) {
    // Deadline-bounded durable wait on the ack. The transaction IS
    // committed at this point (its commit record is inserted), so an
    // expired budget cannot abort it — instead externalization degrades to
    // the speculative contract: the ack stays parked and settles when the
    // horizon hardens, freeing the agent to answer its next arrival on
    // time.
    if (log_manager_->WaitDurable(ack, deadline_ns)) return;
    CountEvent(Counter::kTxnDeadlineDeferredAcks);
    CountEvent(Counter::kTxnDeferredAcks);
    return;
  }
  // Speculative: never stall the agent; the pass that hardens the horizon
  // externalizes the commit.
  if (log_manager_->ParkDeferred(ack)) {
    CountEvent(Counter::kTxnDeferredAcks);
  }
}

Status TransactionManager::Commit(AgentContext* agent) {
  ScopedComponent comp(Component::kTxn);
  Transaction& txn = agent->txn();
  if (!txn.active()) return Status::InvalidArgument("commit of inactive txn");

  // Deadline gate, checked BEFORE the commit record can be inserted (after
  // that point the transaction is committed and could not be retried
  // without double execution). A transaction past its response budget
  // rolls back promptly and retryably instead of occupying the log and
  // lock release paths for a result nobody is waiting for anymore.
  if (const uint64_t deadline_ns = txn.lock_client().deadline_ns();
      deadline_ns != 0 && NowNanos() >= deadline_ns) {
    Abort(agent);
    CountEvent(Counter::kTxnDeadlineAborts);
    return Status::TimedOut("txn deadline reached before commit");
  }

  if (!txn.begin_logged_) {
    // Read-only: the transaction logged nothing, so it appends no record.
    // But the data it READ may not be durable yet — a writer drops its
    // locks at commit-record *insertion* (below). Every lock acquisition
    // noted the horizon its mode depends on (LockHead::DepFor via
    // LockClient::NoteDep), so externalizing at durable >= dep_lsn
    // guarantees no caller ever observes state a crash could un-commit —
    // and costs nothing when the observed writers are already durable,
    // which is the common case on read-mostly workloads. Synchronous mode
    // blocks here; speculative mode parks the acknowledgement instead.
    const Lsn horizon = txn.lock_client().dep_lsn();
    CommitReleaseLocks(agent, 0);
    CommitExternalize(agent, horizon);
  } else {
    // Early lock release: locks are logically released the instant the
    // commit record enters the log. Its LSN fixes the serialization point,
    // and group commit hardens in LSN order, so dependents cannot out-run
    // us to durability. Dropping (or inheriting) locks while the flush is
    // in flight removes the commit I/O from the lock hold time.
    //
    // The externalization horizon is our own commit LSN: dependencies were
    // noted at acquire time, strictly before our commit record reserved
    // log space, so max(own, deps) == own. The max is kept as a defensive
    // statement of the invariant, not a needed computation.
    const Lsn lsn = CommitLogInsert(txn);
    CommitReleaseLocks(agent, lsn);
    CommitExternalize(agent, std::max(lsn, txn.lock_client().dep_lsn()));
  }
  txn.state_ = TxnState::kCommitted;
  txn.PubFinish();
  CountEvent(Counter::kTxnCommits);
  return Status::OK();
}

void TransactionManager::Abort(AgentContext* agent) {
  ScopedComponent comp(Component::kTxn);
  Transaction& txn = agent->txn();
  if (!txn.active()) return;

  // Undo runs under the transaction's locks: every staged record, newest
  // first and published or not, is rolled back through the inverse restart
  // recovery applies to a loser's records.
  std::vector<uint8_t> inverse_payload;
  txn.staging_.ForEachNewestFirst(
      [&](const LogRecordHeader& hdr, const uint8_t* payload) {
        if (hdr.type == static_cast<uint8_t>(LogRecordType::kBegin)) return;
        LogRecordType inverse_type{};
        const Status st = UndoRecord(catalog_, hdr, payload, &inverse_type,
                                     &inverse_payload);
        if (!st.ok()) {
          // The transaction still X-locks every row it wrote, so a failed
          // undo step means storage and log disagree: fail stop rather
          // than release locks over a half-rolled-back state.
          std::fprintf(stderr, "slidb: undo of txn %llu failed (%s)\n",
                       static_cast<unsigned long long>(txn.id()),
                       st.ToString().c_str());
          std::abort();
        }
      });
  // Symmetric with Commit: a transaction that published nothing appends
  // nothing on abort either. After a partial publish (staging watermark),
  // an abort record closes the txn's on-log story (no flush wait needed);
  // its unpublished redo is dropped, as recovery would skip it anyway.
  if (txn.staging_.published_any()) {
    txn.staging_.Clear();
    txn.staging_.Stage(txn.id(), LogRecordType::kAbort, nullptr, 0);
    PublishStaged(txn);
  }
  lock_manager_->ReleaseAll(&txn.lock_client(), &agent->sli(),
                            /*allow_inherit=*/false);
  txn.state_ = TxnState::kAborted;
  txn.PubFinish();
}

}  // namespace slidb
