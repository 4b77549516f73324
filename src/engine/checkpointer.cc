#include "src/engine/checkpointer.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/engine/database.h"
#include "src/stats/counters.h"

namespace slidb {

Status Checkpointer::CheckpointNow(Lsn* redo_start_out) {
  std::lock_guard<std::mutex> serialize(pass_mu_);
  LogManager& log = db_->log_manager();
  LockManager& locks = db_->lock_manager();
  Catalog& catalog = db_->catalog();
  constexpr uint32_t db_id = Database::kLockDbId;

  CheckpointBeginPayload begin{};
  const Lsn begin_end = log.Append(/*txn_id=*/0, LogRecordType::kCheckpointBegin,
                                   &begin, sizeof(begin));
  const Lsn begin_lsn =
      begin_end - sizeof(LogRecordHeader) - sizeof(CheckpointBeginPayload);

  // ATT AFTER the begin record — see the header note on why this order
  // makes the loser coverage airtight.
  const std::vector<CheckpointTxnEntry> att =
      db_->txn_manager().SnapshotActiveTxns();

  // The checkpointer's lock identity: id 0 sorts as the oldest possible
  // transaction so the deadlock detector never prefers it as a victim
  // (it cannot be in a cycle anyway — see header).
  lock_client_.StartTxn(/*txn_id=*/0, /*agent_id=*/UINT32_MAX);

  uint64_t images = 0;
  std::vector<uint8_t> buf(sizeof(HeapRedoPayload) +
                           SlottedPage::MaxRecordSize());

  // Heap images: collect addresses with a latch-only scan, then image each
  // row under its own brief S lock. Rows that vanish between the scan and
  // the lock (committed deletes) are simply skipped; rows inserted after
  // the scan have their records above begin_lsn, inside the redo window.
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    HeapFile* heap = catalog.table(t).heap.get();
    std::vector<Rid> rids;
    (void)heap->Scan(
        [&](Rid rid, std::span<const uint8_t>) { rids.push_back(rid); });
    std::string row;
    for (const Rid rid : rids) {
      Status st = locks.Lock(
          &lock_client_, LockId::Row(db_id, t, rid.page_no, rid.slot),
          LockMode::kS);
      if (!st.ok()) {
        // Timeout against a long writer: abandon the pass. A checkpoint
        // with a missing image must never write its end record — a fresh
        // rebuild anchored there would lose the row.
        locks.ReleaseAll(&lock_client_, nullptr, /*allow_inherit=*/false);
        return st;
      }
      const Status read_st = heap->Read(rid, &row);
      if (read_st.ok()) {
        HeapRedoPayload payload{};
        payload.table = t;
        payload.slot = rid.slot;
        payload.page_no = rid.page_no;
        payload.before_len = 0;
        std::memcpy(buf.data(), &payload, sizeof(payload));
        std::memcpy(buf.data() + sizeof(payload), row.data(), row.size());
        // Appended INSIDE the S hold: any writer that touches this row
        // later publishes at a larger LSN, so LSN order equals apply
        // order and replay converges to the same final state.
        log.Append(/*txn_id=*/0, LogRecordType::kCheckpointImage, buf.data(),
                   static_cast<uint32_t>(sizeof(payload) + row.size()));
        ++images;
      }
      locks.ReleaseAll(&lock_client_, nullptr, /*allow_inherit=*/false);
    }
  }

  // Index images: one table-S hold per index blocks that table's IX
  // writers for the duration of the enumeration.
  for (IndexId i = 0; i < catalog.num_indexes(); ++i) {
    IndexInfo& info = catalog.index(i);
    Status st = locks.Lock(&lock_client_,
                           LockId::Table(db_id, info.table), LockMode::kS);
    if (!st.ok()) {
      locks.ReleaseAll(&lock_client_, nullptr, /*allow_inherit=*/false);
      return st;
    }
    const auto emit = [&](uint64_t key, uint64_t value) {
      IndexRedoPayload entry{};
      entry.index = i;
      entry.key = key;
      entry.value = value;
      log.Append(/*txn_id=*/0, LogRecordType::kCheckpointIndexImage, &entry,
                 static_cast<uint32_t>(sizeof(entry)));
      ++images;
    };
    if (info.kind == IndexKind::kBTree) {
      info.btree->Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
        emit(k, v);
        return true;
      });
    } else {
      info.hash->ForEach(emit);
    }
    locks.ReleaseAll(&lock_client_, nullptr, /*allow_inherit=*/false);
  }

  Lsn redo_start = begin_lsn;
  for (const CheckpointTxnEntry& entry : att) {
    if (entry.first_lsn != kLsnNone) {
      redo_start = std::min(redo_start, entry.first_lsn);
    }
  }

  CheckpointEndPayload end{};
  end.begin_lsn = begin_lsn;
  end.redo_start_lsn = redo_start;
  end.image_records = images;
  end.active_txns = static_cast<uint32_t>(att.size());
  std::vector<uint8_t> end_buf(sizeof(end) +
                               att.size() * sizeof(CheckpointTxnEntry));
  std::memcpy(end_buf.data(), &end, sizeof(end));
  if (!att.empty()) {
    std::memcpy(end_buf.data() + sizeof(end), att.data(),
                att.size() * sizeof(CheckpointTxnEntry));
  }
  const Lsn end_lsn =
      log.Append(/*txn_id=*/0, LogRecordType::kCheckpointEnd, end_buf.data(),
                 static_cast<uint32_t>(end_buf.size()));
  log.WaitDurable(end_lsn);

  // Only now — with the end record durable — may storage below redo_start
  // be reclaimed: every future recovery anchors at this checkpoint (or a
  // later one) and never reads below it.
  if (db_->log_device() != nullptr) {
    db_->log_device()->RecycleBelow(redo_start);
  }
  CountEvent(Counter::kCheckpointsCompleted);
  CountEvent(Counter::kCheckpointImageRecords, images);
  if (redo_start_out != nullptr) *redo_start_out = redo_start;
  return Status::OK();
}

}  // namespace slidb
