#include "src/engine/database.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/engine/checkpointer.h"

namespace slidb {

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  governor_.SetOptions(options_.governor);
  volume_ = std::make_unique<Volume>();
  buffer_pool_ = std::make_unique<BufferPool>(volume_.get(), options_.buffer);
  if (!options_.log_path.empty() && !options_.log.flush_sink) {
    const Status st = SegmentedLogDevice::Open(
        options_.log_path, options_.log_segment_bytes, &log_device_);
    if (!st.ok()) {
      // Fail-stop: the caller configured a durable log; silently running
      // sink-less would ack commits that exist nowhere but RAM.
      std::fprintf(stderr, "slidb: cannot open log device %s (%s)\n",
                   options_.log_path.c_str(), st.ToString().c_str());
      std::abort();
    }
    AttachLogDevice(&options_.log, log_device_.get());
  }
  log_manager_ = std::make_unique<LogManager>(options_.log);
  lock_manager_ = std::make_unique<LockManager>(options_.lock);
  txn_manager_ = std::make_unique<TransactionManager>(
      lock_manager_.get(), log_manager_.get(), &catalog_, options_.txn);
  checkpointer_ = std::make_unique<Checkpointer>(this);
}

Database::~Database() = default;

Status Database::CheckpointNow(Lsn* redo_start_out) {
  return checkpointer_->CheckpointNow(redo_start_out);
}

Status Database::Recover(const std::string& path, RecoveryReport* report) {
  std::vector<uint8_t> stream;
  Lsn base = 0;
  SLIDB_RETURN_NOT_OK(SegmentedLogDevice::ReadLog(path, &stream, &base));
  return RecoverFromStream(std::move(stream), report, base);
}

Status Database::RecoverFromStream(std::vector<uint8_t> stream,
                                   RecoveryReport* report, Lsn base_lsn) {
  RecoveryManager recovery(std::move(stream), base_lsn);
  recovery.Scan();
  // Losers are rolled back through their logged before-images; each undo
  // step is re-logged into the NEW log as a compensation record (kClr), so
  // a crash DURING undo replays the already-compensated prefix and then
  // re-runs the remaining undo — idempotent because before-image
  // restoration is absolute, not incremental.
  const ClrSink sink = [this](uint64_t loser, LogRecordType redo_type,
                              const uint8_t* payload, uint32_t len,
                              Lsn undo_of_lsn) {
    std::vector<uint8_t> buf(sizeof(ClrPayload) + len);
    ClrPayload clr{};
    clr.redo_type = static_cast<uint8_t>(redo_type);
    clr.undo_of_lsn = undo_of_lsn;
    std::memcpy(buf.data(), &clr, sizeof(clr));
    if (len != 0) std::memcpy(buf.data() + sizeof(clr), payload, len);
    log_manager_->Append(loser, LogRecordType::kClr, buf.data(),
                         static_cast<uint32_t>(buf.size()));
  };
  const Status st = recovery.Replay(&catalog_, sink);
  txn_manager_->EnsureNextTxnIdAbove(recovery.report().max_txn_id);
  if (st.ok()) {
    // Close each rolled-back loser with a kAbort in the new log: if we
    // crash again, the next recovery sees them as durably aborted and
    // skips their records (their CLRs already restored the state).
    Lsn last = 0;
    for (const uint64_t loser : recovery.LoserTxns()) {
      last = log_manager_->Append(loser, LogRecordType::kAbort, nullptr, 0);
    }
    if (last != 0) log_manager_->WaitDurable(last);
    if (recovery.report().records_replayed > 0 ||
        recovery.report().losers_rolled_back > 0 || log_device_ != nullptr) {
      // OPENING CHECKPOINT: the recovered state exists nowhere in the new
      // log (redo was applied directly to storage), so without an anchor a
      // SECOND crash would recover only post-recovery transactions. A
      // checkpoint pass images the recovered state and hardens it before
      // traffic starts. With a log device it runs even over an empty stream
      // so the new generation materializes — on the first pass that writes
      // it, typically the one the checkpoint's own WaitDurable leads —
      // before it is marked authoritative below.
      SLIDB_RETURN_NOT_OK(checkpointer_->CheckpointNow());
    }
    if (log_device_ != nullptr) {
      // Flip the new generation live (and drop the old one) only now that
      // it provably carries the recovered state. Also correct for an empty
      // previous log: there is nothing to lose.
      SLIDB_RETURN_NOT_OK(log_device_->MarkGenerationAuthoritative());
    }
  }
  if (report != nullptr) *report = recovery.report();
  return st;
}

TableId Database::CreateTable(const std::string& name) {
  return catalog_.AddTable(name, std::make_unique<HeapFile>(buffer_pool_.get()));
}

IndexId Database::CreateIndex(TableId table, const std::string& name,
                              IndexKind kind, bool unique) {
  return catalog_.AddIndex(table, name, kind, unique);
}

std::unique_ptr<AgentContext> Database::CreateAgent(uint64_t seed) {
  const uint32_t id =
      static_cast<uint32_t>(agent_ids_.fetch_add(1, std::memory_order_relaxed));
  return std::make_unique<AgentContext>(id, seed);
}

Transaction* Database::Begin(AgentContext* agent) {
  if (log_device_ != nullptr && log_device_->tentative()) {
    // The device writes a generation that succeeds an existing log, and a
    // later Recover reads the older one until Recover marks this one
    // authoritative: a commit made now would be acknowledged and then
    // lost. Fail stop instead.
    std::fprintf(stderr,
                 "slidb: %s already holds a log; call Recover before the "
                 "first transaction\n",
                 options_.log_path.c_str());
    std::abort();
  }
  return txn_manager_->Begin(agent);
}

Status Database::Commit(AgentContext* agent) {
  const Status st = txn_manager_->Commit(agent);
  FinishAdmission(agent);
  return st;
}

void Database::Abort(AgentContext* agent) {
  txn_manager_->Abort(agent);
  FinishAdmission(agent);
}

Status Database::AdmitTxn(AgentContext* agent) {
  if (!governor_.enabled()) return Status::OK();
  const Status st = governor_.Admit(agent->txn_deadline_ns());
  if (st.ok()) agent->set_holds_admission(true);
  return st;
}

void Database::FinishAdmission(AgentContext* agent) {
  if (!agent->holds_admission()) return;
  agent->set_holds_admission(false);
  governor_.Release();
}

Status Database::LockRow(AgentContext* agent, TableId table, Rid rid,
                         LockMode mode) {
  return lock_manager_->Lock(
      &agent->txn().lock_client(),
      LockId::Row(kLockDbId, table, rid.page_no, rid.slot), mode);
}

Status Database::Insert(AgentContext* agent, TableId table,
                        std::span<const uint8_t> rec, Rid* rid) {
  // Announce write intent on the table before touching pages.
  SLIDB_RETURN_NOT_OK(lock_manager_->Lock(&agent->txn().lock_client(),
                                          LockId::Table(kLockDbId, table),
                                          LockMode::kIX));
  HeapFile* heap = catalog_.table(table).heap.get();
  SLIDB_RETURN_NOT_OK(heap->Insert(rec, rid));
  // The row becomes properly visible only through indexes, which are
  // populated after this X lock is held (see header note).
  const Status lock_st = LockRow(agent, table, *rid, LockMode::kX);
  if (!lock_st.ok()) {
    heap->Delete(*rid);
    return lock_st;
  }
  txn_manager_->LogHeapOp(agent, LogRecordType::kInsert, table, *rid,
                          /*before=*/{}, rec);
  return Status::OK();
}

Status Database::Read(AgentContext* agent, TableId table, Rid rid, void* buf,
                      size_t len) {
  SLIDB_RETURN_NOT_OK(LockRow(agent, table, rid, LockMode::kS));
  return catalog_.table(table).heap->ReadInto(rid, buf, len);
}

Status Database::ReadString(AgentContext* agent, TableId table, Rid rid,
                            std::string* out) {
  SLIDB_RETURN_NOT_OK(LockRow(agent, table, rid, LockMode::kS));
  return catalog_.table(table).heap->Read(rid, out);
}

Status Database::Update(AgentContext* agent, TableId table, Rid rid,
                        std::span<const uint8_t> rec) {
  SLIDB_RETURN_NOT_OK(LockRow(agent, table, rid, LockMode::kX));
  HeapFile* heap = catalog_.table(table).heap.get();
  // Capture the before-image: it rides the redo record, from which an
  // abort (or the restart undo pass, for a loser) restores the row.
  std::string before;
  SLIDB_RETURN_NOT_OK(heap->Read(rid, &before));
  SLIDB_RETURN_NOT_OK(heap->Update(rid, rec));
  txn_manager_->LogHeapOp(
      agent, LogRecordType::kUpdate, table, rid,
      {reinterpret_cast<const uint8_t*>(before.data()), before.size()}, rec);
  return Status::OK();
}

Status Database::Delete(AgentContext* agent, TableId table, Rid rid) {
  SLIDB_RETURN_NOT_OK(LockRow(agent, table, rid, LockMode::kX));
  HeapFile* heap = catalog_.table(table).heap.get();
  std::string before;
  SLIDB_RETURN_NOT_OK(heap->Read(rid, &before));
  SLIDB_RETURN_NOT_OK(heap->Delete(rid));
  txn_manager_->LogHeapOp(
      agent, LogRecordType::kDelete, table, rid,
      {reinterpret_cast<const uint8_t*>(before.data()), before.size()},
      /*image=*/{});
  return Status::OK();
}

Status Database::LockRowExclusive(AgentContext* agent, TableId table,
                                  Rid rid) {
  return LockRow(agent, table, rid, LockMode::kX);
}

Status Database::IndexInsert(AgentContext* agent, IndexId index, uint64_t key,
                             uint64_t value) {
  IndexInfo& info = catalog_.index(index);
  Status st = info.kind == IndexKind::kBTree
                  ? info.btree->Insert(key, value)
                  : info.hash->Insert(key, value);
  if (!st.ok()) return st;
  if (info.unique) {
    // Unique means one value per key: detect a concurrent/extra entry.
    std::vector<uint64_t> values;
    if (info.kind == IndexKind::kBTree) {
      info.btree->LookupAll(key, &values);
    } else {
      info.hash->LookupAll(key, &values);
    }
    if (values.size() > 1) {
      if (info.kind == IndexKind::kBTree) {
        info.btree->Remove(key, value);
      } else {
        info.hash->Remove(key, value);
      }
      return Status::KeyExists("unique index");
    }
  }
  txn_manager_->LogIndexOp(agent, LogRecordType::kIndexInsert, index, key,
                           value);
  return Status::OK();
}

Status Database::IndexRemove(AgentContext* agent, IndexId index, uint64_t key,
                             uint64_t value) {
  IndexInfo& info = catalog_.index(index);
  const Status st = info.kind == IndexKind::kBTree
                        ? info.btree->Remove(key, value)
                        : info.hash->Remove(key, value);
  if (!st.ok()) return st;
  txn_manager_->LogIndexOp(agent, LogRecordType::kIndexRemove, index, key,
                           value);
  return Status::OK();
}

Status Database::IndexLookup(IndexId index, uint64_t key,
                             uint64_t* value) const {
  const IndexInfo& info = catalog_.index(index);
  return info.kind == IndexKind::kBTree ? info.btree->Lookup(key, value)
                                        : info.hash->Lookup(key, value);
}

void Database::IndexLookupAll(IndexId index, uint64_t key,
                              std::vector<uint64_t>* values) const {
  const IndexInfo& info = catalog_.index(index);
  if (info.kind == IndexKind::kBTree) {
    info.btree->LookupAll(key, values);
  } else {
    info.hash->LookupAll(key, values);
  }
}

void Database::IndexScan(IndexId index, uint64_t lo, uint64_t hi,
                         const std::function<bool(uint64_t, uint64_t)>& fn)
    const {
  const IndexInfo& info = catalog_.index(index);
  if (info.kind == IndexKind::kBTree) info.btree->Scan(lo, hi, fn);
}

void Database::IndexScanReverse(
    IndexId index, uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, uint64_t)>& fn) const {
  const IndexInfo& info = catalog_.index(index);
  if (info.kind == IndexKind::kBTree) info.btree->ScanReverse(lo, hi, fn);
}

}  // namespace slidb
