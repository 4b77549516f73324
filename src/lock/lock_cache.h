// Per-transaction lock cache: maps LockId → LockRequest* for every lock the
// transaction holds (plus inherited candidates adopted from the agent
// thread). A cache hit avoids the lock manager entirely — this is the SLI
// fast path (paper §4.1: "it will find the request already in its cache").
#pragma once

#include <cstdint>
#include <vector>

#include "src/lock/lock_id.h"
#include "src/lock/lock_request.h"

namespace slidb {

/// Open-addressing hash map with linear probing. It starts at kSlots and
/// doubles (rehashing live entries, dropping tombstones) before an insert
/// could take live entries plus tombstones past half its capacity, so
/// every probe ends at an empty slot and a lock costs O(1) however many
/// the transaction already holds. Callers keep only the LockRequest*,
/// never a slot, so rehashing mid-transaction is safe.
///
/// Clear() is O(1): every entry is stamped with the generation it was
/// written in, and clearing just bumps the cache's generation — stale-
/// generation slots read as empty. A long-lived agent thus pays per lock
/// touched, not per slot per transaction. A table that grew goes back to
/// kSlots there, so small transactions keep probing a compact table.
class LockCache {
 public:
  static constexpr size_t kSlots = 256;  // initial capacity, a power of two

  LockCache() : slots_(kSlots) {}

  LockRequest* Find(const LockId& id) const {
    for (size_t i = Home(id);; i = Next(i)) {
      const Entry& e = slots_[i];
      if (Empty(e)) return nullptr;
      if (e.id == id) return e.req;
    }
  }

  void Insert(const LockId& id, LockRequest* req) {
    if (2 * (used_ + 1) > slots_.size()) Grow();
    // Remember the first tombstone on the probe path: if `id` is not
    // already present we reuse it, so probe chains shrink back after Erase
    // instead of growing monotonically over a long-lived agent's life.
    Entry* reuse = nullptr;
    for (size_t i = Home(id);; i = Next(i)) {
      Entry& e = slots_[i];
      if (Empty(e)) {
        if (reuse == nullptr) {
          reuse = &e;
          ++used_;
        }
        *reuse = Entry{id, req, gen_};
        return;
      }
      if (e.id == id) {
        e.req = req;
        return;
      }
      if (reuse == nullptr && e.req == kTombstone()) reuse = &e;
    }
  }

  /// Remove the entry for `id` (used when a reclaim attempt finds the
  /// inherited request invalidated). The slot becomes a tombstone so probe
  /// chains running through it stay intact.
  void Erase(const LockId& id) {
    for (size_t i = Home(id);; i = Next(i)) {
      Entry& e = slots_[i];
      if (Empty(e)) return;
      if (e.id == id) {
        e.req = kTombstone();
        e.id = TombstoneId();
        return;
      }
    }
  }

  /// O(1): entries written in earlier generations read as empty.
  void Clear() {
    ++gen_;
    used_ = 0;
    if (slots_.size() != kSlots) slots_ = std::vector<Entry>(kSlots);
  }

  // ---- introspection (tests/stats) ----

  size_t Capacity() const { return slots_.size(); }

  /// Slots holding a live entry (tombstones and stale generations excluded).
  size_t LiveSlots() const {
    size_t n = 0;
    for (const Entry& e : slots_) {
      if (!Empty(e) && e.req != kTombstone()) ++n;
    }
    return n;
  }

  /// Slots holding a current-generation tombstone left behind by Erase.
  size_t TombstoneSlots() const {
    size_t n = 0;
    for (const Entry& e : slots_) {
      if (!Empty(e) && e.req == kTombstone()) ++n;
    }
    return n;
  }

  uint64_t generation() const { return gen_; }

 private:
  struct Entry {
    LockId id{};
    LockRequest* req = nullptr;
    uint64_t gen = 0;  ///< generation the entry was written in
  };

  size_t Home(const LockId& id) const {
    return id.Hash() & (slots_.size() - 1);
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// A slot is empty if it was never written or was written in a cleared
  /// (earlier) generation.
  bool Empty(const Entry& e) const {
    return e.req == nullptr || e.gen != gen_;
  }

  /// Double the table and re-insert the live entries; tombstones die here.
  void Grow() {
    std::vector<Entry> old(2 * slots_.size());
    old.swap(slots_);
    used_ = 0;
    for (const Entry& e : old) {
      if (!Empty(e) && e.req != kTombstone()) Insert(e.id, e.req);
    }
  }

  // A tombstone keeps probe chains intact after Erase. Find() treats it as
  // a mismatch (its id was cleared); Insert() reuses the first tombstone on
  // its probe path once it has proven the key absent.
  static LockRequest* kTombstone() {
    return reinterpret_cast<LockRequest*>(static_cast<uintptr_t>(1));
  }

  // An id no caller can construct (db ids are small integers), so tombstoned
  // slots never match a lookup.
  static LockId TombstoneId() {
    LockId id;
    id.db = 0xffffffffu;
    id.table = 0xffffffffu;
    return id;
  }

  std::vector<Entry> slots_;
  size_t used_ = 0;   ///< current-generation live entries plus tombstones
  uint64_t gen_ = 1;  ///< entries stamped 0 (default) are always empty
};

}  // namespace slidb
