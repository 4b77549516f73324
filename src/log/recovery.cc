#include "src/log/recovery.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/stats/counters.h"
#include "src/stats/profiler.h"

namespace slidb {

RecoveryManager::RecoveryManager(std::vector<uint8_t> stream, Lsn base_lsn)
    : owned_(std::move(stream)),
      data_(owned_.data()),
      size_(owned_.size()),
      base_lsn_(base_lsn) {
  report_.total_bytes = size_;
  report_.valid_prefix_end = base_lsn;
}

RecoveryManager::RecoveryManager(const uint8_t* data, size_t size,
                                 Lsn base_lsn)
    : data_(data), size_(size), base_lsn_(base_lsn) {
  report_.total_bytes = size_;
  report_.valid_prefix_end = base_lsn;
}

void RecoveryManager::NoteScanned(const LogRecordHeader& hdr,
                                  const uint8_t* payload) {
  report_.records_scanned++;
  report_.max_txn_id = std::max(report_.max_txn_id, hdr.txn_id);
  switch (static_cast<LogRecordType>(hdr.type)) {
    case LogRecordType::kCommit:
      seen_.insert(hdr.txn_id);
      committed_.insert(hdr.txn_id);
      break;
    case LogRecordType::kAbort:
      seen_.insert(hdr.txn_id);
      aborted_.insert(hdr.txn_id);
      report_.aborted_txns++;
      break;
    case LogRecordType::kCheckpointBegin: {
      CheckpointAnchor anchor;
      anchor.begin_lsn = hdr.lsn;
      anchor.redo_start = hdr.lsn;
      checkpoints_[hdr.lsn] = anchor;
      break;
    }
    case LogRecordType::kCheckpointEnd: {
      if (hdr.payload_len < sizeof(CheckpointEndPayload)) break;
      CheckpointEndPayload end;
      std::memcpy(&end, payload, sizeof(end));
      if (sizeof(CheckpointEndPayload) +
              uint64_t{end.active_txns} * sizeof(CheckpointTxnEntry) >
          hdr.payload_len) {
        break;  // truncated ATT: not a usable anchor
      }
      auto it = checkpoints_.find(end.begin_lsn);
      if (it == checkpoints_.end()) break;
      // Redo must start early enough to cover every active txn's published
      // records (the undo pass needs their before-images). Recompute from
      // the active-txn table rather than trusting redo_start_lsn alone, and
      // clamp to the stream base: recycling never discards segments a
      // complete checkpoint still needs, so a first_lsn below base can only
      // come from an anchor that was superseded anyway.
      Lsn redo_start = std::min(it->second.begin_lsn, end.redo_start_lsn);
      const uint8_t* entry_bytes = payload + sizeof(CheckpointEndPayload);
      for (uint32_t i = 0; i < end.active_txns; ++i) {
        CheckpointTxnEntry entry;
        std::memcpy(&entry, entry_bytes + i * sizeof(entry), sizeof(entry));
        if (entry.first_lsn != kLsnNone) {
          redo_start = std::min(redo_start, entry.first_lsn);
        }
      }
      it->second.redo_start = std::max(base_lsn_, redo_start);
      it->second.complete = true;
      last_complete_ = it->second;  // scan order: later ends win
      break;
    }
    case LogRecordType::kCheckpointImage:
    case LogRecordType::kCheckpointIndexImage:
      break;  // checkpointer-owned; no txn bookkeeping
    default:
      seen_.insert(hdr.txn_id);
      break;
  }
}

const RecoveryReport& RecoveryManager::Scan() {
  if (scanned_) return report_;
  scanned_ = true;
  ScopedComponent comp(Component::kLog);

  size_t pos = 0;
  LogRecordHeader hdr;
  const uint8_t* payload = nullptr;
  for (;;) {
    const LogScanStatus st =
        DecodeLogRecord(data_, size_, pos, base_lsn_, &hdr, &payload);
    if (st != LogScanStatus::kOk) {
      report_.tail_status = st;
      if (st == LogScanStatus::kBadVersion) {
        // A complete, checksummed record of another format: not a torn
        // tail. Discarding it would drop whatever that log acknowledged, so
        // Replay refuses to run.
        scan_error_ = Status::NotSupported(
            "log record at lsn " + std::to_string(base_lsn_ + pos) +
            " has format version " + std::to_string(hdr.version) +
            "; this build reads version " +
            std::to_string(kLogFormatVersion));
      } else if (st != LogScanStatus::kEndOfStream) {
        // Torn-write rule: the stream is trusted only up to here, so a cut
        // keeps exactly the complete records before it. Count the corrupt
        // tail — the sweep tests assert this fires exactly when a crash
        // lands inside a record.
        report_.torn_tail = true;
        report_.tail_bytes_discarded = size_ - pos;
        CountEvent(Counter::kLogChecksumFail);
        CountEvent(Counter::kRecoveryTornTails);
      }
      break;
    }
    NoteScanned(hdr, payload);
    pos += sizeof(LogRecordHeader) + hdr.payload_len;
    report_.valid_prefix_end = base_lsn_ + pos;
  }

  report_.committed_txns = committed_.size();
  report_.uncommitted_txns = seen_.size() - committed_.size();
  if (last_complete_.complete) {
    report_.checkpoint_anchored = true;
    report_.checkpoint_begin_lsn = last_complete_.begin_lsn;
    report_.redo_start_lsn = last_complete_.redo_start;
    CountEvent(Counter::kRecoveryCheckpointAnchored);
  } else {
    report_.redo_start_lsn = base_lsn_;
  }
  report_.redo_bytes = report_.valid_prefix_end - report_.redo_start_lsn;
  CountEvent(Counter::kRecoveryRecordsScanned, report_.records_scanned);
  CountEvent(Counter::kRecoveryCommittedTxns, report_.committed_txns);
  return report_;
}

std::vector<uint64_t> RecoveryManager::LoserTxns() const {
  std::vector<uint64_t> losers;
  for (uint64_t id : seen_) {
    if (committed_.count(id) == 0 && aborted_.count(id) == 0) {
      losers.push_back(id);
    }
  }
  std::sort(losers.begin(), losers.end());
  return losers;
}

namespace {

bool IsRedoType(LogRecordType type) {
  return type == LogRecordType::kInsert || type == LogRecordType::kUpdate ||
         type == LogRecordType::kDelete ||
         type == LogRecordType::kIndexInsert ||
         type == LogRecordType::kIndexRemove;
}

/// Recovery applies some records more than once — a checkpoint image plus
/// the original redo record describe the same entry, and a warm in-place
/// target may already hold the state being replayed. Heap redo overwrites
/// at absolute addresses (naturally idempotent); index redo tolerates the
/// already-there / already-gone outcomes instead.
bool TolerableReplay(LogRecordType type, const Status& st) {
  switch (type) {
    case LogRecordType::kIndexInsert:
    case LogRecordType::kCheckpointIndexImage:
      return st.IsKeyExists();
    case LogRecordType::kIndexRemove:
      return st.IsNotFound();
    case LogRecordType::kDelete:
      return st.IsNotFound();
    case LogRecordType::kUpdate:
      // When the ATT widens redo below the checkpoint's begin record, an
      // update can replay before the image that materializes its row; the
      // image (or a later record) supplies the post-update state, so a
      // missing slot is benign here.
      return st.IsNotFound();
    default:
      return false;
  }
}

struct HeapRedoView {
  HeapRedoPayload row;
  std::span<const uint8_t> before;
  std::span<const uint8_t> after;
};

Status DecodeHeapRedo(const LogRecordHeader& hdr, const uint8_t* payload,
                      HeapRedoView* out) {
  if (hdr.payload_len < sizeof(HeapRedoPayload)) {
    return Status::Corruption("heap redo payload too short");
  }
  std::memcpy(&out->row, payload, sizeof(out->row));
  if (sizeof(HeapRedoPayload) + uint64_t{out->row.before_len} >
      hdr.payload_len) {
    return Status::Corruption("heap redo before-image overruns payload");
  }
  out->before = {payload + sizeof(HeapRedoPayload), out->row.before_len};
  out->after = {payload + sizeof(HeapRedoPayload) + out->row.before_len,
                hdr.payload_len - sizeof(HeapRedoPayload) -
                    out->row.before_len};
  return Status::OK();
}

Status ApplyRedo(Catalog* catalog, const LogRecordHeader& hdr,
                 const uint8_t* payload) {
  const auto type = static_cast<LogRecordType>(hdr.type);
  switch (type) {
    case LogRecordType::kInsert:
    case LogRecordType::kUpdate:
    case LogRecordType::kDelete:
    case LogRecordType::kCheckpointImage: {
      HeapRedoView view;
      SLIDB_RETURN_NOT_OK(DecodeHeapRedo(hdr, payload, &view));
      if (view.row.table >= catalog->num_tables()) {
        return Status::Corruption("heap redo names unknown table");
      }
      HeapFile* heap = catalog->table(view.row.table).heap.get();
      const Rid rid{view.row.page_no, view.row.slot};
      Status st;
      if (type == LogRecordType::kDelete) {
        st = heap->RedoDelete(rid);
      } else if (type == LogRecordType::kUpdate) {
        st = heap->RedoUpdate(rid, view.after);
      } else {
        st = heap->RedoInsert(rid, view.after);
        if (type == LogRecordType::kCheckpointImage && st.IsKeyExists()) {
          // A fuzzy image is the row's absolute state as of the snapshot
          // read. An unanchored replay (torn checkpoint) rebuilds history
          // from the base and then meets the orphaned image records; the
          // image simply overwrites the slot it finds live.
          st = heap->RedoUpdate(rid, view.after);
        }
      }
      if (!st.ok() && TolerableReplay(type, st)) return Status::OK();
      return st;
    }
    case LogRecordType::kIndexInsert:
    case LogRecordType::kIndexRemove:
    case LogRecordType::kCheckpointIndexImage: {
      if (hdr.payload_len < sizeof(IndexRedoPayload)) {
        return Status::Corruption("index redo payload too short");
      }
      IndexRedoPayload entry;
      std::memcpy(&entry, payload, sizeof(entry));
      if (entry.index >= catalog->num_indexes()) {
        return Status::Corruption("index redo names unknown index");
      }
      IndexInfo& info = catalog->index(entry.index);
      Status st;
      if (type == LogRecordType::kIndexRemove) {
        st = info.kind == IndexKind::kBTree
                 ? info.btree->Remove(entry.key, entry.value)
                 : info.hash->Remove(entry.key, entry.value);
      } else {
        st = info.kind == IndexKind::kBTree
                 ? info.btree->Insert(entry.key, entry.value)
                 : info.hash->Insert(entry.key, entry.value);
      }
      if (!st.ok() && TolerableReplay(type, st)) return Status::OK();
      return st;
    }
    case LogRecordType::kClr: {
      if (hdr.payload_len < sizeof(ClrPayload)) {
        return Status::Corruption("clr payload too short");
      }
      ClrPayload clr;
      std::memcpy(&clr, payload, sizeof(clr));
      if (!IsRedoType(static_cast<LogRecordType>(clr.redo_type))) {
        return Status::Corruption("clr wraps a non-redo record type");
      }
      // Re-dispatch the inner redo with a synthetic header; CLR
      // compensation is plain redo at absolute addresses, so the tolerance
      // rules apply as-is.
      LogRecordHeader inner = hdr;
      inner.type = clr.redo_type;
      inner.payload_len = hdr.payload_len - sizeof(ClrPayload);
      return ApplyRedo(catalog, inner, payload + sizeof(ClrPayload));
    }
    case LogRecordType::kBegin:
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kCheckpointBegin:
    case LogRecordType::kCheckpointEnd:
      return Status::OK();
  }
  return Status::Corruption("unknown record type survived scan");
}

}  // namespace

Status UndoRecord(Catalog* catalog, const LogRecordHeader& hdr,
                  const uint8_t* payload, LogRecordType* inverse_type,
                  std::vector<uint8_t>* inverse_payload) {
  const auto type = static_cast<LogRecordType>(hdr.type);
  switch (type) {
    case LogRecordType::kInsert:
    case LogRecordType::kUpdate:
    case LogRecordType::kDelete: {
      HeapRedoView view;
      SLIDB_RETURN_NOT_OK(DecodeHeapRedo(hdr, payload, &view));
      HeapRedoPayload row = view.row;
      row.before_len = 0;
      // The before-image becomes the inverse's after-image; an insert
      // carries none, and its inverse is a delete.
      *inverse_type = type == LogRecordType::kInsert   ? LogRecordType::kDelete
                      : type == LogRecordType::kDelete ? LogRecordType::kInsert
                                                       : LogRecordType::kUpdate;
      inverse_payload->resize(sizeof(row) + view.before.size());
      std::memcpy(inverse_payload->data(), &row, sizeof(row));
      if (!view.before.empty()) {
        std::memcpy(inverse_payload->data() + sizeof(row), view.before.data(),
                    view.before.size());
      }
      break;
    }
    case LogRecordType::kIndexInsert:
    case LogRecordType::kIndexRemove:
      *inverse_type = type == LogRecordType::kIndexInsert
                          ? LogRecordType::kIndexRemove
                          : LogRecordType::kIndexInsert;
      inverse_payload->assign(payload, payload + hdr.payload_len);
      break;
    default:
      return Status::Corruption("undo of a non-redo record");
  }
  LogRecordHeader inverse = hdr;
  inverse.type = static_cast<uint8_t>(*inverse_type);
  inverse.payload_len = static_cast<uint32_t>(inverse_payload->size());
  return ApplyRedo(catalog, inverse, inverse_payload->data());
}

Status RecoveryManager::WalkValidPrefix(
    Lsn from_lsn,
    const std::function<Status(const LogRecordHeader& hdr,
                               const uint8_t* payload)>& fn) {
  Scan();
  size_t pos = static_cast<size_t>(from_lsn - base_lsn_);
  LogRecordHeader hdr;
  const uint8_t* payload = nullptr;
  while (base_lsn_ + pos < report_.valid_prefix_end) {
    // The prefix was validated by Scan: structural decode only, no CRC.
    if (DecodeLogRecord(data_, size_, pos, base_lsn_, &hdr, &payload,
                        /*verify_crc=*/false) != LogScanStatus::kOk) {
      return Status::Corruption("validated prefix failed to re-decode");
    }
    SLIDB_RETURN_NOT_OK(fn(hdr, payload));
    pos += sizeof(LogRecordHeader) + hdr.payload_len;
  }
  return Status::OK();
}

Status RecoveryManager::Replay(Catalog* catalog, const ClrSink& sink) {
  ScopedComponent comp(Component::kLog);
  Scan();
  SLIDB_RETURN_NOT_OK(scan_error_);

  // Redo: repeating history from the checkpoint anchor. Loser records are
  // collected on the way for the undo pass (payload pointers stay valid —
  // they point into the stream this manager owns or views).
  struct LoserRecord {
    LogRecordHeader hdr;
    const uint8_t* payload;
  };
  std::vector<LoserRecord> loser_records;
  const Lsn redo_start = report_.redo_start_lsn;
  Status st = WalkValidPrefix(
      redo_start,
      [&](const LogRecordHeader& hdr, const uint8_t* payload) -> Status {
        const auto type = static_cast<LogRecordType>(hdr.type);
        const bool is_redo = IsRedoType(type);
        const bool is_clr = type == LogRecordType::kClr;
        const bool is_image = type == LogRecordType::kCheckpointImage ||
                              type == LogRecordType::kCheckpointIndexImage;
        if (!is_redo && !is_clr && !is_image) return Status::OK();
        if ((is_redo || is_clr) && IsAborted(hdr.txn_id)) {
          // The txn aborted before the crash: its runtime undo ran before
          // the abort record was logged, and checkpoint images reflect the
          // post-undo state — replaying (or re-compensating) its records
          // would resurrect rolled-back changes.
          report_.records_skipped++;
          CountEvent(Counter::kRecoveryRecordsSkipped);
          return Status::OK();
        }
        if (is_redo && !IsCommitted(hdr.txn_id)) {
          loser_records.push_back({hdr, payload});
        }
        SLIDB_RETURN_NOT_OK(ApplyRedo(catalog, hdr, payload));
        report_.records_replayed++;
        CountEvent(Counter::kRecoveryRecordsReplayed);
        return Status::OK();
      });
  SLIDB_RETURN_NOT_OK(st);

  // Undo: roll losers back in global reverse LSN order by restoring
  // before-images (heap) or inverting the operation (index), emitting one
  // redo-only CLR per step. Losers held their X locks at the crash, so no
  // committed state is disturbed.
  std::unordered_set<uint64_t> losers_touched;
  LogRecordType inverse_type{};
  std::vector<uint8_t> inverse_payload;
  for (auto it = loser_records.rbegin(); it != loser_records.rend(); ++it) {
    SLIDB_RETURN_NOT_OK(UndoRecord(catalog, it->hdr, it->payload,
                                   &inverse_type, &inverse_payload));
    report_.records_undone++;
    CountEvent(Counter::kRecoveryRecordsUndone);
    losers_touched.insert(it->hdr.txn_id);
    if (sink) {
      sink(it->hdr.txn_id, inverse_type, inverse_payload.data(),
           static_cast<uint32_t>(inverse_payload.size()), it->hdr.lsn);
      report_.clrs_emitted++;
      CountEvent(Counter::kRecoveryClrsEmitted);
    }
  }
  report_.losers_rolled_back = losers_touched.size();
  CountEvent(Counter::kRecoveryLosersRolledBack, losers_touched.size());
  return Status::OK();
}

}  // namespace slidb
