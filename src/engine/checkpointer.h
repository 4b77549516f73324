// Fuzzy checkpointer: bounds restart cost by checkpoint cadence instead of
// log length. A checkpoint pass snapshots the committed heap and index
// state into the log itself — kCheckpointBegin, a stream of image records,
// then kCheckpointEnd carrying the active-transaction table — WITHOUT
// quiescing writers. Recovery anchored at the last complete checkpoint
// replays only [redo_start, end-of-log); segments below redo_start are
// recycled (SegmentedLogDevice::RecycleBelow).
//
// Why the images are sound without quiescing (the WAL-hole problem): a
// transaction's mutations apply to the heap BEFORE its records publish
// (staging buffers, PR "amortized log insertion"), so a naive page scan
// could photograph a mutation whose log record a crash then loses — state
// with no provenance and no before-image to undo it. The fix is the lock
// hierarchy itself: each row is imaged under a brief S lock. Under 2PL +
// ELR a writer holds the row's X lock until its records are PUBLISHED
// (commit-record insertion), so the S grant proves every mutation in the
// image has a published record below the image's own LSN — appended while
// the S lock is still held, so any later writer's records sort after it.
// Index images hold the table's S lock instead (blocks IX writers for the
// enumeration — a measured simplification; per-shard latching is a ROADMAP
// follow-up).
//
// The active-transaction table is snapshotted AFTER the begin record is
// appended: a txn with published records below begin-LSN is either still
// active (so its first_lsn widens redo_start) or its outcome record lands
// below the end record (so it is never a loser of this anchor). See
// CheckpointEndPayload.
#pragma once

#include <cstdint>
#include <mutex>

#include "src/lock/lock_client.h"
#include "src/log/log_record.h"
#include "src/util/status.h"

namespace slidb {

class Database;

/// Runs checkpoint passes on the caller's thread (Database::CheckpointNow);
/// it starts no thread of its own.
class Checkpointer {
 public:
  explicit Checkpointer(Database* db) : db_(db) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Run one full checkpoint pass synchronously: begin record, ATT
  /// snapshot, heap images under row S locks, index images under table S
  /// locks, end record, durable wait, then segment recycling below the new
  /// redo-start. Returns without writing the end record (harmless
  /// incomplete checkpoint) if an imaging lock cannot be acquired — an
  /// abandoned pass must not pretend to anchor recovery. Serialized
  /// against itself; safe alongside full-speed agent traffic.
  Status CheckpointNow(Lsn* redo_start_out = nullptr);

 private:
  Database* db_;
  /// Lock identity for imaging S locks. The checkpointer holds at most one
  /// lock chain (row + its intents, or one table) at a time and never
  /// waits while holding another, so it cannot participate in a deadlock
  /// cycle.
  LockClient lock_client_;
  std::mutex pass_mu_;  ///< serializes concurrent CheckpointNow calls
};

}  // namespace slidb
