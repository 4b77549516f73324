// Crash recovery: ARIES-style analysis / redo / undo over the durable log.
//
// The recovery contract (and what the crash tests verify byte by byte):
// given any prefix of the durable stream — a crash can cut it at ANY byte —
// recovery reconstructs exactly the state produced by the set of
// transactions whose COMMIT record lies wholly inside the valid prefix.
// No committed transaction is lost, no uncommitted mutation survives.
//
// Passes:
//   1. Analysis (Scan): walk records front to back, validating each
//      (length sanity, self-LSN, CRC32C, format version). Stop at the first
//      failure — by the torn-write rule everything from that byte on is
//      discarded, so a cut keeps exactly the complete records before it.
//      The one exception is a checksummed record of another format
//      version: it is no torn tail, and Replay fails on it (NotSupported)
//      rather than discard it. Collect the committed and durably-aborted
//      transaction sets, and locate the LAST COMPLETE checkpoint (a
//      kCheckpointBegin / kCheckpointEnd pair wholly inside the valid
//      prefix).
//   2. Redo (Replay): repeating history from the checkpoint's redo-start
//      LSN — min(checkpoint begin LSN, first LSN of every transaction in
//      the checkpoint's active-txn table) — or from the stream base when no
//      complete checkpoint exists. Checkpoint image records replay
//      unconditionally; ordinary redo records and CLRs replay for every
//      transaction EXCEPT durably-aborted ones (their runtime undo ran
//      before the abort record was logged, and checkpoint images — taken
//      under row S locks — reflect post-undo state). Losers (transactions
//      with records but neither commit nor abort in the prefix) are
//      replayed too: their published records are stolen dirty state that
//      repeating history must reconstruct before undo can compensate it.
//   3. Undo: roll losers back in reverse LSN order by restoring each heap
//      record's before-image (index undo is logical), through UndoRecord —
//      the same step a runtime abort applies to its own staged records.
//      Each undo step can emit a compensation record (CLR) through the
//      caller's sink into the NEW log; CLRs are redo-only, so a crash
//      during undo replays the partial rollback and the full re-undo
//      converges idempotently.
//
// Why repeating-history + undo is sound here, including under early lock
// release and speculative reads: a transaction's mutations are X-locked
// until its commit record is *inserted*, and group commit hardens strictly
// in LSN order. Any transaction that observed our writes logged every one
// of its records after our commit record — the committed set is always
// dependency-closed. A loser held its X locks at the crash, so no
// committed transaction ever observed (or overwrote) the state its undo
// restores. Checkpoint images are taken per row under a brief S lock — the
// WAL rule applied at image time: a row's image can never contain a
// mutation whose log record might not be published, because the writer
// holds the X lock until its records are.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/engine/catalog.h"
#include "src/log/log_record.h"
#include "src/util/status.h"

namespace slidb {

struct RecoveryReport {
  uint64_t total_bytes = 0;       ///< stream bytes handed to recovery
  Lsn valid_prefix_end = 0;       ///< first byte past the last valid record
  uint64_t tail_bytes_discarded = 0;
  bool torn_tail = false;         ///< a corrupt/torn tail was discarded
  LogScanStatus tail_status = LogScanStatus::kEndOfStream;

  uint64_t records_scanned = 0;   ///< valid records in the prefix
  uint64_t records_replayed = 0;  ///< redo records applied
  uint64_t records_skipped = 0;   ///< redo records of durably-aborted txns
  uint64_t records_undone = 0;    ///< loser records rolled back by undo
  uint64_t clrs_emitted = 0;      ///< compensation records sent to the sink
  uint64_t committed_txns = 0;
  uint64_t uncommitted_txns = 0;  ///< txns seen without a durable commit
  uint64_t aborted_txns = 0;      ///< txns with a durable abort record
  uint64_t losers_rolled_back = 0;  ///< uncommitted, unaborted txns undone
  uint64_t max_txn_id = 0;        ///< highest txn id seen (id-space restart)

  bool checkpoint_anchored = false;  ///< redo started at a checkpoint
  Lsn checkpoint_begin_lsn = 0;      ///< last complete checkpoint's begin
  Lsn redo_start_lsn = 0;            ///< where the redo pass started
  uint64_t redo_bytes = 0;  ///< bytes the redo pass walked (the bounded-
                            ///< restart claim: this, not total_bytes,
                            ///< scales restart cost)
};

/// Receives one compensation record per undo step: `loser` is the rolled-
/// back transaction, `redo_type` the inner redo operation, and
/// [payload, payload+len) the inner redo payload (HeapRedoPayload or
/// IndexRedoPayload form). `undo_of_lsn` names the compensated record.
/// Implementations append a kClr record to the new log; recovery itself
/// stays log-agnostic.
using ClrSink = std::function<void(uint64_t loser, LogRecordType redo_type,
                                   const uint8_t* payload, uint32_t len,
                                   Lsn undo_of_lsn)>;

/// Roll back one redo record (kInsert, kUpdate, kDelete, kIndexInsert or
/// kIndexRemove): build its inverse — a delete for an insert, the
/// before-image for an update or delete, the opposite index operation —
/// and apply it to `catalog` as redo at the record's absolute address,
/// under the replay tolerance rules. The inverse is left in
/// `*inverse_type` and `*inverse_payload` (restart undo logs it as a CLR).
/// Runtime abort (TransactionManager::Abort) and restart recovery's undo
/// pass both roll back through this one function. Returns the apply error
/// the tolerance rules do not absorb, or Corruption for a record that does
/// not decode or is not a redo type.
Status UndoRecord(Catalog* catalog, const LogRecordHeader& hdr,
                  const uint8_t* payload, LogRecordType* inverse_type,
                  std::vector<uint8_t>* inverse_payload);

/// One-shot recovery over a captured durable stream. Scan() is idempotent;
/// Replay() applies redo + undo into a catalog whose schema (tables and
/// indexes, in original creation order) has been re-created. The target
/// storage may be empty (post-crash rebuild) or warm (in-place restart):
/// redo records and images overwrite at absolute addresses, and the undo
/// pass removes any stolen uncommitted state either way.
class RecoveryManager {
 public:
  /// `stream` is the durable log read back from the device; `base_lsn` is
  /// the log offset of its first byte (nonzero when older segments were
  /// recycled after a checkpoint).
  explicit RecoveryManager(std::vector<uint8_t> stream, Lsn base_lsn = 0);

  /// Non-owning view: the caller guarantees [data, data+size) outlives the
  /// manager (the recovery bench scans the same stream thousands of times
  /// and must not pay a copy per pass).
  RecoveryManager(const uint8_t* data, size_t size, Lsn base_lsn = 0);

  /// Pass 1: validate the stream, determine the committed / aborted sets,
  /// and locate the last complete checkpoint.
  const RecoveryReport& Scan();

  /// Passes 2 + 3: redo (repeating history from the checkpoint anchor)
  /// then undo losers, emitting one CLR per undo step through `sink` (may
  /// be null: harness recoveries that rebuild into a throwaway catalog
  /// don't keep a new log). Calls Scan() if it has not run. Returns
  /// NotSupported, applying nothing, if the scan stopped at a record of
  /// another format version, and Corruption if a validated record's payload
  /// does not decode (schema mismatch between the log and the catalog).
  Status Replay(Catalog* catalog, const ClrSink& sink = nullptr);

  const RecoveryReport& report() const { return report_; }
  bool IsCommitted(uint64_t txn_id) const {
    return committed_.count(txn_id) != 0;
  }
  bool IsAborted(uint64_t txn_id) const {
    return aborted_.count(txn_id) != 0;
  }
  const std::unordered_set<uint64_t>& committed_set() const {
    return committed_;
  }
  /// Losers: transactions with records in the prefix but neither a commit
  /// nor an abort record — rolled back by the undo pass.
  std::vector<uint64_t> LoserTxns() const;

 private:
  struct CheckpointAnchor {
    Lsn begin_lsn = 0;
    Lsn redo_start = 0;
    bool complete = false;
  };

  /// Fold one scanned record into the committed/aborted/seen and
  /// checkpoint bookkeeping.
  void NoteScanned(const LogRecordHeader& hdr, const uint8_t* payload);

  /// Walk the Scan-validated prefix (structural decode only, no CRC) from
  /// stream offset `from_lsn`, calling `fn` per record; stops early when
  /// `fn` returns !ok. `from_lsn` must be a record boundary (a checkpoint
  /// redo-start LSN or base_lsn).
  Status WalkValidPrefix(
      Lsn from_lsn,
      const std::function<Status(const LogRecordHeader& hdr,
                                 const uint8_t* payload)>& fn);

  std::vector<uint8_t> owned_;    ///< empty for the non-owning view
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  Lsn base_lsn_;
  bool scanned_ = false;
  /// Set by Scan when it stops at a record of another format version.
  Status scan_error_;
  std::unordered_set<uint64_t> committed_;
  std::unordered_set<uint64_t> aborted_;
  std::unordered_set<uint64_t> seen_;
  /// Begin-LSN → anchor for every checkpoint seen; `last_complete_` points
  /// at the most recent one whose end record also landed in the prefix.
  std::unordered_map<Lsn, CheckpointAnchor> checkpoints_;
  CheckpointAnchor last_complete_;
  RecoveryReport report_;
};

}  // namespace slidb
