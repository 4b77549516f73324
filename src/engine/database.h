// Database: the slidb public facade. Owns the full substrate stack (volume,
// buffer pool, WAL, lock manager, transaction manager, catalog) and exposes
// transactional row and index operations with hierarchical 2PL locking —
// the same architecture as the Shore-MT engine the paper modifies.
//
// Transactions are schema-aware C++ functions calling this API directly
// ("hard-coded transactions", paper §5.2), like compiled stored procedures.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "src/buffer/buffer_pool.h"
#include "src/buffer/volume.h"
#include "src/engine/catalog.h"
#include "src/engine/governor.h"
#include "src/lock/lock_manager.h"
#include "src/log/log_device.h"
#include "src/log/log_manager.h"
#include "src/log/recovery.h"
#include "src/txn/agent.h"
#include "src/txn/transaction_manager.h"
#include "src/util/status.h"

namespace slidb {

struct DatabaseOptions {
  LockManagerOptions lock;
  LogOptions log;
  TxnOptions txn;
  BufferPoolOptions buffer;
  /// When non-empty, the WAL is persisted under this path prefix as
  /// SegmentedLogDevice files `<log_path>.gen<G>.seg<N>` (behind
  /// log.flush_sink), and Recover(log_path) can rebuild state after a
  /// crash. Ignored if log.flush_sink is already set (tests install
  /// capture/crash sinks there).
  std::string log_path;
  /// Payload capacity of each log segment file. Must be nonzero when
  /// log_path is set (the constructor fails stop otherwise).
  uint64_t log_segment_bytes = 16u << 20;
  /// Admission governor limits (defaults off — every AdmitTxn succeeds).
  GovernorOptions governor;
};

class Checkpointer;  // engine/checkpointer.h

class Database {
 public:
  /// The lock hierarchy's database level: each Database owns its lock
  /// manager, so every lock it takes names the same database.
  static constexpr uint32_t kLockDbId = 0;

  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ---- schema (setup phase only; not transactional) ----

  TableId CreateTable(const std::string& name);
  IndexId CreateIndex(TableId table, const std::string& name, IndexKind kind,
                      bool unique);
  bool FindTable(const std::string& name, TableId* id) const {
    return catalog_.FindTable(name, id);
  }

  // ---- agents and transactions ----

  std::unique_ptr<AgentContext> CreateAgent(uint64_t seed = 1);
  Transaction* Begin(AgentContext* agent);
  Status Commit(AgentContext* agent);
  void Abort(AgentContext* agent);

  // ---- admission control (overload governor) ----

  /// Ask the governor for an in-flight token before starting a transaction.
  /// Honors the agent's txn deadline while queued. Returns a retryable
  /// Overloaded/TimedOut without starting anything when shed; on OK the
  /// token is held by the agent and returned automatically by the next
  /// Commit/Abort (or an explicit FinishAdmission). A no-op returning OK
  /// when the governor is disabled (GovernorOptions::max_inflight == 0).
  Status AdmitTxn(AgentContext* agent);

  /// Return the agent's admission token, if it holds one. Idempotent;
  /// Commit/Abort call it implicitly.
  void FinishAdmission(AgentContext* agent);

  // ---- crash recovery ----
  // Call on a freshly-constructed database after re-creating the schema
  // (same CreateTable/CreateIndex order as the crashed run) and before any
  // transactions: redo records address tables and indexes by catalog
  // position. Replay repeats history (redo from the last complete
  // checkpoint, or the stream base) and then rolls losers back through
  // their logged before-images, emitting compensation records (kClr) and a
  // closing kAbort per loser into the NEW log — so storage may be empty
  // (rebuild) or warm (in-place restart with stolen dirty state).
  //
  // Restart-in-place is supported: constructing with the SAME log_path as
  // the crashed run is safe. The new process writes a fresh generation of
  // segments and leaves the old one untouched. After replay an OPENING
  // CHECKPOINT is written and hardened, making the new log self-contained
  // across a second crash, and only then is the new generation marked
  // authoritative (SegmentedLogDevice::MarkGenerationAuthoritative). Until
  // that mark a later recovery still reads the old generation, so a crash
  // during recovery loses nothing. A database opened on a log_path that
  // already holds a log must therefore call Recover before traffic:
  // Begin fails stop until it has (a fresh log_path needs no Recover).

  /// Recover from the durable log written via DatabaseOptions::log_path:
  /// the newest authoritative generation of segments under `path`. A log
  /// written in another format version fails with NotSupported and stays
  /// as it is (Begin keeps failing stop on a log_path that holds one).
  Status Recover(const std::string& path, RecoveryReport* report = nullptr);

  /// Recover from an already-read durable byte stream (crash-test harness
  /// path); `base_lsn` is the log offset of its first byte (nonzero when
  /// earlier segments were recycled). Also restarts the txn-id space above
  /// every recovered id.
  Status RecoverFromStream(std::vector<uint8_t> stream,
                           RecoveryReport* report = nullptr,
                           Lsn base_lsn = 0);

  // ---- checkpointing ----

  /// Run one synchronous fuzzy checkpoint pass (see engine/checkpointer.h).
  Status CheckpointNow(Lsn* redo_start_out = nullptr);

  // ---- transactional row operations (2PL) ----

  /// Insert a record; X-locks the new row. `rid` receives its address.
  Status Insert(AgentContext* agent, TableId table,
                std::span<const uint8_t> rec, Rid* rid);

  /// Read a fixed-size record under a row S lock.
  Status Read(AgentContext* agent, TableId table, Rid rid, void* buf,
              size_t len);

  /// Read a variable-size record under a row S lock.
  Status ReadString(AgentContext* agent, TableId table, Rid rid,
                    std::string* out);

  /// In-place update under a row X lock (size must not grow).
  Status Update(AgentContext* agent, TableId table, Rid rid,
                std::span<const uint8_t> rec);

  /// Delete under a row X lock. Undo restores the record at the same RID.
  Status Delete(AgentContext* agent, TableId table, Rid rid);

  /// Lock a row for update before reading (SELECT ... FOR UPDATE).
  Status LockRowExclusive(AgentContext* agent, TableId table, Rid rid);

  // ---- transactional index maintenance ----
  // Indexes are latch-protected structures; entries become visible
  // immediately but are removed again by undo if the transaction aborts
  // (rows stay X-locked until then, so no other transaction can observe
  // the inconsistency through proper index usage).

  Status IndexInsert(AgentContext* agent, IndexId index, uint64_t key,
                     uint64_t value);
  Status IndexRemove(AgentContext* agent, IndexId index, uint64_t key,
                     uint64_t value);

  // ---- index reads (no locks; callers lock the rows they fetch) ----

  Status IndexLookup(IndexId index, uint64_t key, uint64_t* value) const;
  void IndexLookupAll(IndexId index, uint64_t key,
                      std::vector<uint64_t>* values) const;
  void IndexScan(IndexId index, uint64_t lo, uint64_t hi,
                 const std::function<bool(uint64_t, uint64_t)>& fn) const;
  void IndexScanReverse(IndexId index, uint64_t lo, uint64_t hi,
                        const std::function<bool(uint64_t, uint64_t)>& fn) const;

  // ---- component access (benches, tests, stats) ----

  LockManager& lock_manager() { return *lock_manager_; }
  LogManager& log_manager() { return *log_manager_; }
  AdmissionGovernor& governor() { return governor_; }
  /// The durable log device, or nullptr when the log is sink-less /
  /// test-captured (no DatabaseOptions::log_path).
  LogDevice* log_device() { return log_device_.get(); }
  BufferPool& buffer_pool() { return *buffer_pool_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  Catalog& catalog() { return catalog_; }
  const DatabaseOptions& options() const { return options_; }

  /// Switch the SLI policy between runs (no active transactions allowed);
  /// see SliMode in lock_manager.h.
  void SetSliMode(SliMode mode) {
    lock_manager_->mutable_options().sli_mode = mode;
  }

 private:
  Status LockRow(AgentContext* agent, TableId table, Rid rid, LockMode mode);

  DatabaseOptions options_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<BufferPool> buffer_pool_;
  // Declared before log_manager_: the shutdown pass drains into the
  // device's sink during LogManager teardown, so the device must be
  // destroyed after.
  std::unique_ptr<SegmentedLogDevice> log_device_;
  std::unique_ptr<LogManager> log_manager_;
  std::unique_ptr<LockManager> lock_manager_;
  std::unique_ptr<TransactionManager> txn_manager_;
  AdmissionGovernor governor_;
  Catalog catalog_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::atomic<uint64_t> agent_ids_{0};
};

}  // namespace slidb
