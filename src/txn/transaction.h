// Transactions: 2PL lifecycle state, the embedded LockClient, and the log
// staging buffer that is both the transaction's redo batch and its undo log.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/lock/lock_client.h"
#include "src/log/log_record.h"
#include "src/log/log_staging.h"

namespace slidb {

/// Published transaction state the fuzzy checkpointer reads while agents
/// run full speed. Shared-ownership token: the TransactionManager registry
/// holds weak references, so an agent (and its Transaction) can be
/// destroyed at any time without unregistration ordering constraints.
///
/// `first_lsn` is a conservative LOWER bound on the LSN of the txn's first
/// published log record (captured from the log's reserved-LSN clock just
/// before the first publish). The checkpointer folds it into the
/// checkpoint's redo-start; a too-low bound only widens the redo window,
/// never loses a loser record.
struct TxnPubState {
  std::atomic<uint64_t> txn_id{0};
  std::atomic<Lsn> first_lsn{kLsnNone};
  std::atomic<bool> active{false};
};

enum class TxnState : uint8_t {
  kIdle = 0,
  kActive,
  kCommitted,
  kAborted,
};

/// One transaction. Reused by its agent thread across executions (the
/// LockClient inside must stay alive for the whole run — see LockClient's
/// lifetime note).
class Transaction {
 public:
  Transaction() = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kActive; }

  LockClient& lock_client() { return lock_client_; }

 private:
  friend class TransactionManager;

  void Reset(uint64_t id, uint32_t agent_id) {
    id_ = id;
    state_ = TxnState::kActive;
    begin_logged_ = false;
    staging_.Clear();
    // Publish order matters for the checkpointer's ATT snapshot: the slot
    // goes inactive, its fields change, then it reactivates — a racing
    // snapshot sees either the old txn, nothing, or the new txn, never a
    // mixed entry that matters (a stale entry only widens redo-start).
    pub_->active.store(false, std::memory_order_release);
    pub_->txn_id.store(id, std::memory_order_relaxed);
    pub_->first_lsn.store(kLsnNone, std::memory_order_relaxed);
    pub_->active.store(true, std::memory_order_release);
    lock_client_.StartTxn(id, agent_id);
  }

  void PubFinish() { pub_->active.store(false, std::memory_order_release); }

  uint64_t id_ = 0;
  TxnState state_ = TxnState::kIdle;
  LockClient lock_client_;
  /// kBegin is emitted lazily with the first mutation record, so read-only
  /// transactions put nothing in the log append path.
  bool begin_logged_ = false;
  /// Transaction-private log staging (log_staging.h): redo records
  /// accumulate here and publish as one batch reservation at commit (or at
  /// the staging watermark for long transactions). Every record stays
  /// until the transaction ends, so the buffer is also the undo log an
  /// abort walks newest first. TransactionManager is the only writer.
  LogStagingBuffer staging_;
  /// Checkpointer-visible state (see TxnPubState). Created once per
  /// Transaction; registered with the TransactionManager on first Begin.
  std::shared_ptr<TxnPubState> pub_ = std::make_shared<TxnPubState>();
  bool registered_ = false;
};

}  // namespace slidb
