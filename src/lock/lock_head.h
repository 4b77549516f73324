// Lock heads: one per active lock, holding the request queue, the
// incrementally-maintained grant summary, the protecting latch, and the
// hot-lock tracker SLI's criterion 2 consults (paper Figure 2).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>

#include "src/lock/lock_id.h"
#include "src/lock/lock_mode.h"
#include "src/lock/lock_request.h"
#include "src/util/latch.h"

namespace slidb {

/// Sliding-window detector for "hot" locks: remembers whether each of the
/// last 16 latch acquisitions on this head was contended; the lock is hot
/// when at least `min_contended` of them were (paper §4.2: fraction of
/// recent acquires that encountered latch contention crosses a threshold).
/// Updates are racy by design — this is a statistic, not a correctness bit.
class HotTracker {
 public:
  void Record(bool contended) {
    const uint32_t h = history_.load(std::memory_order_relaxed);
    history_.store(((h << 1) | (contended ? 1u : 0u)) & 0xffffu,
                   std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    if (contended) total_contended_.fetch_add(1, std::memory_order_relaxed);
  }

  uint32_t ContendedCount() const {
    return static_cast<uint32_t>(
        std::popcount(history_.load(std::memory_order_relaxed)));
  }

  bool IsHot(uint32_t min_contended) const {
    return ContendedCount() >= min_contended;
  }

  /// Saturate the window (tests use it to heat one head and leave another
  /// cold; threshold 0 makes every head hot).
  void ForceHot() { history_.store(0xffffu, std::memory_order_relaxed); }
  void Clear() {
    history_.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    total_contended_.store(0, std::memory_order_relaxed);
  }

  /// Cumulative statistics (whole head lifetime, not windowed).
  uint64_t total_acquires() const {
    return total_.load(std::memory_order_relaxed);
  }
  uint64_t total_contended() const {
    return total_contended_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> history_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> total_contended_{0};
};

/// One active lock. Queue fields are protected by `latch`; `waiter_count`,
/// `pin_count` and `inherited_hint` are atomic so SLI's criteria checks and
/// the hash table's life-cycle management can read them without latching.
///
/// The grant summary (`granted_counts` / `granted_mask`) counts every *live*
/// request — kGranted, kInherited, and kConverting (at its currently-held
/// mode) — per mode, and caches the bitset of modes with nonzero count.
/// It is maintained incrementally by every grant / upgrade / release /
/// invalidate, all of which happen under `latch`. The latch-free SLI
/// transitions (kGranted ⇄ kInherited) do not move a request in or out of
/// the live set and do not change its mode, so the summary never needs to
/// observe them — this is what lets conflict detection read one cached mask
/// instead of walking the queue (see DESIGN.md "Grant-summary invariants").
struct LockHead {
  LockId id;
  SpinLatch latch;

  /// Per-mode count of live (granted/inherited/converting) requests and the
  /// cached bitset of modes whose count is nonzero. Protected by `latch`.
  uint16_t granted_counts[kNumLockModes] = {};
  uint8_t granted_mask = 0;

  /// Total queue length (granted + waiting), maintained by Append/Unlink so
  /// the simulated per-entry queue cost needs no walk. Protected by `latch`.
  uint32_t queue_len = 0;

  /// Requests in kWaiting or kConverting state (atomic: read latch-free by
  /// SLI criterion 4, "no other transaction is waiting").
  std::atomic<uint32_t> waiter_count{0};

  /// Aggregate waiter count of the hash bucket holding this head, wired by
  /// LockTable at creation. Maintained alongside waiter_count (AddWaiter /
  /// RemoveWaiter) so a deadlock pass can skip whole buckets: it latches
  /// only buckets and heads that have a waiter.
  std::atomic<uint32_t>* bucket_waiters = nullptr;

  /// Waiter boundary: the earliest queue node that may still be in
  /// kWaiting. Invariant (latched): every kWaiting request sits at or after
  /// this node, so wakeup scans (GrantWaiters phase 2) start here instead
  /// of re-walking the granted prefix. nullptr when no request is waiting.
  LockRequest* waiter_hint = nullptr;

  /// Number of kConverting requests in the queue (subset of waiter_count).
  /// Conversions live inside the granted prefix, so this is what lets the
  /// conversion scan be skipped entirely when zero. Protected by `latch`.
  uint32_t converting_count = 0;

  /// Conservative overestimate of the number of kInherited requests in the
  /// queue: incremented *before* the kGranted→kInherited CAS, decremented
  /// *after* a request leaves kInherited (reclaim, invalidate, discard).
  /// Zero therefore proves "nothing to invalidate", letting the conflict
  /// path fail in O(1) instead of walking the queue looking for inherited
  /// requests to kill.
  std::atomic<uint32_t> inherited_hint{0};

  HotTracker hot;

  /// Smoothed hold time, in RdCycles, of the requests released while
  /// others waited here: grant to release, measured on the holder's side
  /// so it excludes the waiters' wake-up latency. Sets the lock-wait spin
  /// budget (LockManager::SpinBudget). 0 = no sample yet. Protected by
  /// `latch`; kept across a reclaim only when the head comes back for the
  /// same lock.
  uint64_t hold_cycles = 0;

  /// Fold one hold sample into `hold_cycles` (EWMA, weight 1/4).
  void FoldHold(uint64_t sample) {
    hold_cycles = hold_cycles == 0 ? sample
                                   : hold_cycles - hold_cycles / 4 + sample / 4;
  }

  /// The durability horizons a later acquirer of this head depends on
  /// under early lock release (see TransactionManager read-only commit),
  /// split by what the released mode licenses:
  ///  * `last_commit_lsn` — commit LSN of the latest X/SIX/U holder that
  ///    released or inherited this lock. Every grant folds it in: an X
  ///    holder writes what this lock protects without child locks, and SIX
  ///    and U stamp here too, conservatively.
  ///  * `last_ix_commit_lsn` — the same for IX holders. IX never licenses
  ///    data access by itself: its holder wrote children under child X
  ///    locks, each carrying its own stamp, so only a mode that conflicts
  ///    with IX (S, SIX, U, X — one that reads the children without child
  ///    locks) folds it in. IS and IX readers take child locks and wait on
  ///    those stamps alone.
  /// Monotone max; stamped under the head latch on release and latch-free
  /// (CAS max) on SLI inheritance; read with acquire by acquirers (DepFor).
  /// `last_commit_lsn` survives head reclamation via the bucket's
  /// retired_dep fold (LockTable). `last_ix_commit_lsn` needs no fold: only
  /// row heads are reclaimed, and rows never hold IX.
  std::atomic<uint64_t> last_commit_lsn{0};
  std::atomic<uint64_t> last_ix_commit_lsn{0};

  /// FIFO request queue (paper Figure 3). Granted requests live at the
  /// front, waiters behind them, strictly in arrival order.
  LockRequest* q_head = nullptr;
  LockRequest* q_tail = nullptr;

  /// References that keep this head alive: one per linked request plus one
  /// per thread currently operating on the head outside the bucket latch.
  std::atomic<uint32_t> pin_count{0};

  /// Stamp `lsn` as the horizon a released or inherited write-class `mode`
  /// leaves behind: IX into last_ix_commit_lsn, X/SIX/U into
  /// last_commit_lsn (monotone max, release/relaxed CAS loop).
  void StampCommitLsn(LockMode mode, uint64_t lsn) {
    std::atomic<uint64_t>& stamp =
        mode == LockMode::kIX ? last_ix_commit_lsn : last_commit_lsn;
    uint64_t cur = stamp.load(std::memory_order_relaxed);
    while (cur < lsn &&
           !stamp.compare_exchange_weak(cur, lsn, std::memory_order_release,
                                        std::memory_order_relaxed)) {
    }
  }

  /// The horizon a grant (or upgrade) to `mode` depends on: the X/SIX/U
  /// stamp always, the IX stamp only when `mode` conflicts with IX.
  uint64_t DepFor(LockMode mode) const {
    const uint64_t dep = last_commit_lsn.load(std::memory_order_acquire);
    if (Compatible(LockMode::kIX, mode)) return dep;
    return std::max(dep, last_ix_commit_lsn.load(std::memory_order_acquire));
  }

  /// Hash chain link, protected by the bucket latch. Doubles as the
  /// free-list link while the head sits in a bucket's reuse pool.
  LockHead* bucket_next = nullptr;

  // ---- queue helpers; caller must hold `latch` ----

  void Append(LockRequest* r) {
    r->q_prev = q_tail;
    r->q_next = nullptr;
    if (q_tail != nullptr) {
      q_tail->q_next = r;
    } else {
      q_head = r;
    }
    q_tail = r;
    ++queue_len;
  }

  void Unlink(LockRequest* r) {
    if (r == waiter_hint) waiter_hint = r->q_next;
    if (r->q_prev != nullptr) {
      r->q_prev->q_next = r->q_next;
    } else {
      q_head = r->q_next;
    }
    if (r->q_next != nullptr) {
      r->q_next->q_prev = r->q_prev;
    } else {
      q_tail = r->q_prev;
    }
    r->q_prev = r->q_next = nullptr;
    --queue_len;
  }

  bool QueueEmpty() const { return q_head == nullptr; }

  /// A request entered kWaiting/kConverting. Keeps the head's count (SLI
  /// criterion 4) and the bucket aggregate (deadlock-pass bucket skip) in
  /// step.
  void AddWaiter() {
    waiter_count.fetch_add(1, std::memory_order_acq_rel);
    if (bucket_waiters != nullptr) {
      bucket_waiters->fetch_add(1, std::memory_order_acq_rel);
    }
  }

  /// A request left kWaiting/kConverting (grant, abort, or timeout).
  void RemoveWaiter() {
    waiter_count.fetch_sub(1, std::memory_order_acq_rel);
    if (bucket_waiters != nullptr) {
      bucket_waiters->fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  // ---- grant summary; caller must hold `latch` ----

  /// Supremum of the modes of all live (granted + inherited + converting)
  /// requests — one table lookup on the cached mask.
  LockMode GrantedMode() const { return kSupremumOfMask[granted_mask]; }

  /// A request entered the live set in `m` (new grant).
  void SummaryAdd(LockMode m) {
    if (granted_counts[ModeIdx(m)]++ == 0) granted_mask |= ModeBit(m);
  }

  /// A live request left the queue (release / invalidate / discard).
  void SummaryRemove(LockMode m) {
    assert(granted_counts[ModeIdx(m)] > 0);
    if (--granted_counts[ModeIdx(m)] == 0) granted_mask &= ~ModeBit(m);
  }

  /// A live request changed mode (upgrade / conversion grant).
  void SummaryUpgrade(LockMode from, LockMode to) {
    if (from == to) return;
    SummaryRemove(from);
    SummaryAdd(to);
  }

  /// The held-mode bitset with `self`'s own contribution removed — the mask
  /// a request must be tested against when re-evaluating itself (upgrade /
  /// conversion). O(1).
  uint8_t MaskExcluding(const LockRequest* self) const {
    if (self == nullptr) return granted_mask;
    const RequestStatus s = self->status.load(std::memory_order_acquire);
    if (s != RequestStatus::kGranted && s != RequestStatus::kConverting &&
        s != RequestStatus::kInherited) {
      return granted_mask;
    }
    uint8_t mask = granted_mask;
    if (granted_counts[ModeIdx(self->mode)] == 1) mask &= ~ModeBit(self->mode);
    return mask;
  }

  /// Debug checker: recompute the summary from a full queue scan and compare
  /// with the incremental state. Caller must hold `latch`.
  bool SummaryMatchesQueue() const {
    uint16_t counts[kNumLockModes] = {};
    uint8_t mask = 0;
    uint32_t len = 0;
    uint32_t converting = 0;
    bool hint_seen = false;
    for (LockRequest* r = q_head; r != nullptr; r = r->q_next) {
      ++len;
      if (r == waiter_hint) hint_seen = true;
      const RequestStatus s = r->status.load(std::memory_order_acquire);
      if (s == RequestStatus::kGranted || s == RequestStatus::kInherited ||
          s == RequestStatus::kConverting) {
        if (counts[ModeIdx(r->mode)]++ == 0) mask |= ModeBit(r->mode);
      }
      if (s == RequestStatus::kConverting) ++converting;
      // Waiter-boundary invariant: no kWaiting request before the hint
      // (an unset hint means no request may be waiting at all).
      if (s == RequestStatus::kWaiting && !hint_seen) return false;
    }
    if (waiter_hint != nullptr && !hint_seen) return false;  // dangling hint
    if (converting != converting_count) return false;
    if (mask != granted_mask || len != queue_len) return false;
    for (size_t i = 0; i < kNumLockModes; ++i) {
      if (counts[i] != granted_counts[i]) return false;
    }
    return true;
  }

  /// Rebuild the summary from the queue (test helper; production code keeps
  /// it incrementally). Caller must hold `latch`.
  void RecomputeSummaryFromQueue() {
    for (size_t i = 0; i < kNumLockModes; ++i) granted_counts[i] = 0;
    granted_mask = 0;
    converting_count = 0;
    waiter_hint = nullptr;
    uint32_t len = 0;
    for (LockRequest* r = q_head; r != nullptr; r = r->q_next) {
      ++len;
      const RequestStatus s = r->status.load(std::memory_order_acquire);
      if (s == RequestStatus::kGranted || s == RequestStatus::kInherited ||
          s == RequestStatus::kConverting) {
        SummaryAdd(r->mode);
      }
      if (s == RequestStatus::kConverting) ++converting_count;
      if (s == RequestStatus::kWaiting && waiter_hint == nullptr) {
        waiter_hint = r;
      }
    }
    queue_len = len;
  }
};

}  // namespace slidb
