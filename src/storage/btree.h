// In-memory B+-tree mapping uint64 keys to uint64 values (RIDs), with
// duplicate-key support (entries are ordered by (key, value)). Used for
// primary and range-scanned secondary indexes (TPC-C needs ordered access:
// next order id, newest order per customer, last 20 orders per district).
//
// Synchronization: optimistic lock coupling. Every node carries a versioned
// OptLatch; readers validate versions instead of acquiring shared latches,
// so the conflict-free read path performs no stores to shared node memory —
// the root's cache line stays in shared state across all cores instead of
// ping-ponging on a latch word. Writers traverse optimistically and upgrade
// to write locks only at the nodes they mutate, restarting on version
// conflict with bounded backoff.
//
// Deletes are lazy: entries are removed in place and nodes never merge, but
// a leaf drained to empty is opportunistically unlinked and its memory
// reclaimed through the epoch manager (optimistic readers may still be
// inside it). See DESIGN.md "Optimistic lock coupling".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/status.h"

namespace slidb {

class BTree {
 public:
  static constexpr int kFanout = 64;  ///< max entries per node

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Insert (key, value). Duplicate (key, value) pairs are rejected with
  /// KeyExists; duplicate keys with distinct values are allowed.
  Status Insert(uint64_t key, uint64_t value);

  /// Remove the exact (key, value) entry.
  Status Remove(uint64_t key, uint64_t value);

  /// First value for `key` (smallest value among duplicates).
  Status Lookup(uint64_t key, uint64_t* value) const;

  /// All values for `key`.
  void LookupAll(uint64_t key, std::vector<uint64_t>* values) const;

  /// Visit entries with lo <= key <= hi in (key, value) order; return false
  /// from `fn` to stop early. Entries are surfaced leaf-by-leaf: each
  /// leaf's batch is version-validated before any callback runs, and a
  /// restart resumes after the last delivered entry (no duplicates, no torn
  /// reads).
  void Scan(uint64_t lo, uint64_t hi,
            const std::function<bool(uint64_t key, uint64_t value)>& fn) const;

  /// Visit entries in REVERSE order with lo <= key <= hi (newest-first
  /// scans, e.g. "most recent order"); return false to stop. Bounded
  /// memory: entries are surfaced one leaf at a time through a kFanout-sized
  /// stack buffer (leaves have no back links, so each chunk re-descends from
  /// the root — O(log n) per leaf, O(1) space in the range length).
  void ScanReverse(
      uint64_t lo, uint64_t hi,
      const std::function<bool(uint64_t key, uint64_t value)>& fn) const;

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Validate structural invariants (test support; caller must be
  /// quiesced): sortedness, fill, and leaf chain consistency. Returns false
  /// on violation.
  bool CheckInvariants() const;

  /// Node layout is public for the implementation file and white-box tests;
  /// treat as private elsewhere.
  struct Node;

 private:
  std::atomic<Node*> root_;
  std::atomic<uint64_t> size_{0};

  /// Lock `parent` (or the root pointer when parent == nullptr) and
  /// `node` via their traversal snapshots and split the full `node`.
  /// Returns true when the split happened (caller re-traverses), false on
  /// a version conflict (caller backs off); either way all locks are
  /// released.
  bool SplitNodeOrRestart(Node* parent, uint64_t pv, Node* node, uint64_t v,
                          uint64_t key, uint64_t value);
  void FreeTree(Node* n);
};

}  // namespace slidb
