#include "src/lock/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/cpus.h"
#include "src/util/latch.h"
#include "src/util/time_util.h"

// Debug-mode invariant: the incremental grant summary must equal a full
// queue recompute after every mutation (head latch held at the check site).
#ifndef NDEBUG
#define SLIDB_DCHECK_SUMMARY(h) assert((h)->SummaryMatchesQueue())
#else
#define SLIDB_DCHECK_SUMMARY(h) ((void)0)
#endif

namespace slidb {

namespace {

/// Maximum hierarchy depth (database → table → page → row).
constexpr int kMaxDepth = 8;

/// Longest expected lock wait a waiter spins through instead of parking.
/// Far above a futex round trip (tens of µs on a loaded host), far below
/// the holds of a lock kept across a slow log device.
constexpr uint64_t kSpinCapNs = 40'000;

/// How long a waiter stays parked before it runs a deadlock pass, and the
/// least time between two passes. Long enough that waits ended by an
/// ordinary release rarely pay for a pass.
constexpr uint64_t kDeadlockCheckNs = 1'000'000;

/// Modes whose holder may have written data this lock protects (directly,
/// or via children under an intent mode). Only these stamp a durability
/// horizon at release or inheritance — pure read modes (S/IS) protect
/// nothing a reader could lose in a crash. IX stamps its own field, which
/// only modes that read children without child locks fold in
/// (LockHead::DepFor).
bool IsWriteClassMode(LockMode m) {
  return m == LockMode::kX || m == LockMode::kSIX || m == LockMode::kU ||
         m == LockMode::kIX;
}

}  // namespace

void WakeBatch::Flush() {
  for (size_t i = 0; i < n_; ++i) {
    inline_[i]->Wake();
    inline_[i]->Unpin();
  }
  n_ = 0;
  for (LockClient* c : overflow_) {
    c->Wake();
    c->Unpin();
  }
  overflow_.clear();
}

void LockManager::SimulateQueueWork(LockHead* h) {
  if (options_.sim_queue_work_ns == 0) return;
  // Per-entry cost (see LockManagerOptions::sim_queue_work_ns), scaled by
  // the tracked queue length so the model costs what the Figure 3 traversal
  // would without actually walking inside the latch.
  const uint64_t entries = h->queue_len > 0 ? h->queue_len : 1;
  SpinForNanos(options_.sim_queue_work_ns * entries);
}

LockManager::LockManager(LockManagerOptions options)
    : options_(options),
      spin_cap_cycles_(
          static_cast<uint64_t>(kSpinCapNs * CyclesPerNano())) {}

Status LockManager::Lock(LockClient* c, const LockId& id, LockMode mode) {
  ScopedComponent comp(Component::kLockManager);
  return LockInternal(c, id, mode, 0);
}

Status LockManager::LockInternal(LockClient* c, const LockId& id,
                                 LockMode mode, int depth) {
  if (depth > kMaxDepth) return Status::InvalidArgument("lock depth");
  if (mode == LockMode::kNL) return Status::OK();

  if (LockRequest* r = c->cache().Find(id)) {
    const RequestStatus s = r->status.load(std::memory_order_acquire);
    if (s == RequestStatus::kGranted || s == RequestStatus::kConverting) {
      if (Covers(r->mode, mode)) {
        CountEvent(Counter::kLockCacheHits);
        return Status::OK();
      }
      SLIDB_RETURN_NOT_OK(EnsureParents(c, id, mode, depth));
      return Upgrade(c, r, mode);
    }
    if (s == RequestStatus::kInherited) {
      // SLI reclaim fast path. Parents first: they are normally inherited
      // too, and taking them first preserves the hierarchical protocol even
      // when this request's parent was invalidated (§4.3 orphan rule).
      SLIDB_RETURN_NOT_OK(EnsureParents(c, id, mode, depth));
      RequestStatus expect = RequestStatus::kInherited;
      if (r->status.compare_exchange_strong(expect, RequestStatus::kGranted,
                                            std::memory_order_acq_rel)) {
        r->head->inherited_hint.fetch_sub(1, std::memory_order_acq_rel);
        r->client.store(c, std::memory_order_release);
        c->PushHeld(r);
        CountEvent(Counter::kSliReclaimed);
        ClassifyAcquisition(id, mode,
                            r->head->hot.IsHot(options_.hot_min_contended));
        if (!Covers(r->mode, mode)) {
          CountEvent(Counter::kSliUpgradeAfterReclaim);
          return Upgrade(c, r, mode);
        }
        return Status::OK();
      }
      // Lost the race to an invalidator; fall through to the slow path.
      c->cache().Erase(id);
    }
    if (s == RequestStatus::kInvalid) {
      c->cache().Erase(id);
    }
  }

  SLIDB_RETURN_NOT_OK(EnsureParents(c, id, mode, depth));

  // A coarse lock on any ancestor can make this request implicit (§3.2:
  // "if an appropriate coarse-grained lock is found the request can be
  // granted immediately"). Walk the whole chain: a table-S covers a row
  // even when the intermediate page lock was itself skipped.
  LockId anc = id;
  while (anc.HasParent()) {
    anc = anc.Parent();
    if (LockRequest* pr = c->cache().Find(anc)) {
      const RequestStatus ps = pr->status.load(std::memory_order_acquire);
      if ((ps == RequestStatus::kGranted ||
           ps == RequestStatus::kConverting) &&
          ParentCoversChild(pr->mode, mode)) {
        CountEvent(Counter::kLockCacheHits);
        return Status::OK();
      }
    }
  }

  return AcquireNew(c, id, mode);
}

Status LockManager::EnsureParents(LockClient* c, const LockId& id,
                                  LockMode mode, int depth) {
  if (!id.HasParent()) return Status::OK();
  return LockInternal(c, id.Parent(), IntentionFor(mode), depth + 1);
}

bool LockManager::CanGrant(LockHead* h, const LockRequest* self,
                           LockMode mode) {
  // O(1) fast path: one AND against the cached held-mode bitset (minus our
  // own contribution when re-evaluating an existing request).
  const uint8_t others = h->MaskExcluding(self);
  if (CompatibleWithAll(others, mode)) {
    CountEvent(Counter::kCanGrantFast);
    return true;
  }
  // Conflict. If no inherited request can be in the queue there is nothing
  // to invalidate and the answer is a definitive O(1) "no". The hint is a
  // conservative overestimate (incremented before a request enters
  // kInherited, decremented after it leaves), so zero is proof.
  if (h->inherited_hint.load(std::memory_order_acquire) == 0) {
    CountEvent(Counter::kCanGrantFast);
    return false;
  }
  CountEvent(Counter::kCanGrantSlow);
  return CanGrantSlow(h, self, mode);
}

bool LockManager::CanGrantSlow(LockHead* h, const LockRequest* self,
                               LockMode mode) {
  LockRequest* r = h->q_head;
  while (r != nullptr) {
    LockRequest* next = r->q_next;
    if (r != self) {
      const RequestStatus s = r->status.load(std::memory_order_acquire);
      if (s == RequestStatus::kGranted || s == RequestStatus::kConverting) {
        if (!Compatible(r->mode, mode)) return false;
      } else if (s == RequestStatus::kInherited) {
        if (!Compatible(r->mode, mode)) {
          // Conflicting inherited request: invalidate it (paper §4.1). The
          // CAS can lose only to a concurrent reclaim, in which case the
          // request is live and blocks us.
          RequestStatus expect = RequestStatus::kInherited;
          if (r->status.compare_exchange_strong(expect, RequestStatus::kInvalid,
                                                std::memory_order_acq_rel)) {
            h->Unlink(r);
            h->SummaryRemove(r->mode);
            h->inherited_hint.fetch_sub(1, std::memory_order_acq_rel);
            table_.Unpin(h);
            CountEvent(Counter::kSliInvalidated);
            // Memory stays with the owning agent; freed at its next commit.
          } else {
            return false;
          }
        }
      }
      // kWaiting requests do not block compatibility; FIFO order is
      // enforced separately via waiter_count.
    }
    r = next;
  }
  SLIDB_DCHECK_SUMMARY(h);
  return true;
}

void LockManager::GrantWaiters(LockHead* h, WakeBatch* wakes) {
  const uint64_t now = RdCycles();  // grant stamp: these holds are measured
  // Phase 1: conversions, FIFO among converting requests. A conversion is
  // granted when its target mode is compatible with every other live
  // request. Conversions live inside the granted prefix, so this scan is
  // skipped entirely (O(1)) unless one is actually pending.
  if (h->converting_count > 0) {
    uint32_t remaining = h->converting_count;
    for (LockRequest* r = h->q_head; r != nullptr && remaining > 0;
         r = r->q_next) {
      const RequestStatus s = r->status.load(std::memory_order_acquire);
      if (s != RequestStatus::kConverting) continue;
      --remaining;
      if (CanGrant(h, r, r->convert_to)) {
        const LockMode was = r->mode;
        r->mode = r->convert_to;
        r->grant_cycles = now;
        h->SummaryUpgrade(was, r->mode);
        if (LockClient* cl = r->client.load(std::memory_order_acquire)) {
          wakes->Add(cl);
        }
        r->status.store(RequestStatus::kGranted, std::memory_order_release);
        --h->converting_count;
        h->RemoveWaiter();
      } else {
        break;
      }
    }
  }
  // Phase 2: new requests, strict FIFO, starting at the waiter boundary —
  // the granted prefix ahead of it is never re-walked. Nodes past the hint
  // that were granted by earlier passes are skipped without resetting it.
  LockRequest* r = h->waiter_hint;
  while (r != nullptr) {
    const RequestStatus s = r->status.load(std::memory_order_acquire);
    if (s == RequestStatus::kWaiting) {
      if (!CanGrant(h, r, r->mode)) break;
      r->grant_cycles = now;
      if (LockClient* cl = r->client.load(std::memory_order_acquire)) {
        wakes->Add(cl);
      }
      r->status.store(RequestStatus::kGranted, std::memory_order_release);
      h->SummaryAdd(r->mode);
      h->RemoveWaiter();
    }
    r = r->q_next;
  }
  // `r` is the first still-waiting request (FIFO stop) or nullptr.
  h->waiter_hint = r;
  SLIDB_DCHECK_SUMMARY(h);
}

Status LockManager::AcquireNew(LockClient* c, const LockId& id,
                               LockMode mode) {
  CountEvent(Counter::kLockRequests);
  LockHead* h = table_.FindOrCreate(id);  // pin transfers to the request
  const bool contended = h->latch.Acquire();
  h->hot.Record(contended);
  SimulateQueueWork(h);
  ClassifyAcquisition(id, mode, h->hot.IsHot(options_.hot_min_contended));

  LockRequest* req = c->pool()->Alloc();
  req->head = h;
  req->mode = mode;
  req->client.store(c, std::memory_order_release);

  const bool grant_now =
      h->waiter_count.load(std::memory_order_relaxed) == 0 &&
      CanGrant(h, nullptr, mode);
  if (grant_now) {
    // A head that has never been waited on skips the clock read.
    if (h->hold_cycles != 0) req->grant_cycles = RdCycles();
    req->status.store(RequestStatus::kGranted, std::memory_order_release);
    h->Append(req);
    h->SummaryAdd(mode);
    SLIDB_DCHECK_SUMMARY(h);
    c->NoteDep(h->DepFor(mode));
    h->latch.Release();
    c->cache().Insert(id, req);
    c->PushHeld(req);
    return Status::OK();
  }

  // Wait-depth restriction (Thomasian): on a hot head, refuse to deepen the
  // convoy past the configured limit — cancel now, while the transaction has
  // invested nothing in this queue, rather than time out holding a slot.
  if (options_.hot_wait_depth != 0 &&
      h->waiter_count.load(std::memory_order_relaxed) >=
          options_.hot_wait_depth &&
      h->hot.IsHot(options_.hot_min_contended)) {
    h->latch.Release();
    table_.Unpin(h);  // the request never joined the queue; drop its pin
    c->pool()->Free(req);
    CountEvent(Counter::kLockWaitDepthCancels);
    return Status::Overloaded("hot head at wait-depth limit");
  }

  CountEvent(Counter::kLockWaits);
  const uint64_t spin_cycles = SpinBudget(
      h->hold_cycles, h->waiter_count.load(std::memory_order_relaxed));
  req->status.store(RequestStatus::kWaiting, std::memory_order_release);
  h->Append(req);
  if (h->waiter_hint == nullptr) h->waiter_hint = req;
  h->AddWaiter();
  c->waiting_on().store(req, std::memory_order_release);
  SLIDB_DCHECK_SUMMARY(h);
  h->latch.Release();

  bool granted_anyway = false;
  const Status st = WaitForGrant(c, req, spin_cycles, &granted_anyway);
  c->waiting_on().store(nullptr, std::memory_order_release);
  if (st.ok() || granted_anyway) {
    // Ordered by the granter's status release-store + our acquire load in
    // WaitForGrant; stamps stored after our grant are not dependencies
    // (the conflicting holder could not have released before us).
    c->NoteDep(h->DepFor(mode));
    c->cache().Insert(id, req);
    c->PushHeld(req);
  }
  return st;
}

Status LockManager::Upgrade(LockClient* c, LockRequest* r, LockMode mode) {
  LockHead* h = r->head;
  const LockMode target = Supremum(r->mode, mode);
  if (target == r->mode) return Status::OK();
  CountEvent(Counter::kLockUpgrades);

  const bool contended = h->latch.Acquire();
  h->hot.Record(contended);
  SimulateQueueWork(h);
  if (CanGrant(h, r, target)) {
    const LockMode was = r->mode;
    r->mode = target;
    h->SummaryUpgrade(was, target);
    SLIDB_DCHECK_SUMMARY(h);
    c->NoteDep(h->DepFor(target));
    h->latch.Release();
    return Status::OK();
  }

  // Same wait-depth rule for upgrades; the already-granted request keeps
  // its old mode and is released by the caller's abort.
  if (options_.hot_wait_depth != 0 &&
      h->waiter_count.load(std::memory_order_relaxed) >=
          options_.hot_wait_depth &&
      h->hot.IsHot(options_.hot_min_contended)) {
    h->latch.Release();
    CountEvent(Counter::kLockWaitDepthCancels);
    return Status::Overloaded("hot head at wait-depth limit (upgrade)");
  }

  CountEvent(Counter::kLockWaits);
  const uint64_t spin_cycles = SpinBudget(
      h->hold_cycles, h->waiter_count.load(std::memory_order_relaxed));
  r->convert_to = target;
  r->status.store(RequestStatus::kConverting, std::memory_order_release);
  ++h->converting_count;
  h->AddWaiter();
  c->waiting_on().store(r, std::memory_order_release);
  h->latch.Release();

  bool granted_anyway = false;
  const Status st = WaitForGrant(c, r, spin_cycles, &granted_anyway);
  c->waiting_on().store(nullptr, std::memory_order_release);
  if (st.ok() || granted_anyway) {
    c->NoteDep(h->DepFor(target));
  }
  return st;
}

uint64_t LockManager::SpinBudget(uint64_t hold_cycles, uint32_t ahead) const {
  if (hold_cycles == 0 || ahead != 0 || UsableCpus() < 2) return 0;
  return hold_cycles <= spin_cap_cycles_ ? hold_cycles : 0;
}

Status LockManager::WaitForGrant(LockClient* c, LockRequest* r,
                                 uint64_t spin_cycles, bool* granted_anyway) {
  uint64_t deadline_us = NowMicros() + options_.lock_timeout_us;
  // The wait budget is min(lock_timeout, remaining txn deadline): a
  // transaction past its response budget must stop occupying queue slots
  // promptly, not after the lost-wakeup backstop.
  bool deadline_capped = false;
  if (const uint64_t txn_deadline_ns = c->deadline_ns();
      txn_deadline_ns != 0 && txn_deadline_ns / 1000 < deadline_us) {
    deadline_us = txn_deadline_ns / 1000;
    deadline_capped = true;
  }
  const auto resolved = [&] {
    return r->status.load(std::memory_order_acquire) ==
               RequestStatus::kGranted ||
           c->deadlock_victim().load(std::memory_order_acquire);
  };
  ThreadProfile* const profile = ThreadProfile::Current();
  bool timed_out = false;

  // Spin through a short expected wait, never past the deadline, and
  // only while a CPU is left over for the holder to release on.
  const uint64_t spin_start = RdCycles();
  if (spin_cycles != 0 && !resolved()) {
    if (spinners_.fetch_add(1, std::memory_order_relaxed) + 1 < UsableCpus()) {
      const uint64_t left_ns =
          (deadline_us - std::min(deadline_us, NowMicros())) * 1000;
      const uint64_t spin_end =
          spin_start + std::min(spin_cycles, static_cast<uint64_t>(
                                                 left_ns * CyclesPerNano()));
      while (!resolved() && RdCycles() < spin_end) latch_internal::CpuRelax();
    }
    spinners_.fetch_sub(1, std::memory_order_relaxed);
  }
  const uint64_t park_start = RdCycles();
  if (profile != nullptr) profile->AttributeContention(spin_start, park_start);

  // Park in slices of kDeadlockCheckNs. A wait still unresolved after a
  // slice runs a deadlock pass itself; the pass is work, not blocked time.
  bool parked = false;
  uint64_t blocked_from = park_start;
  uint64_t check_ns = NowNanos() + kDeadlockCheckNs;
  for (;;) {
    if (resolved()) break;
    const uint64_t now_ns = NowNanos();
    if (now_ns >= deadline_us * 1000) {
      timed_out = true;
      break;
    }
    if (now_ns >= check_ns) {
      if (profile != nullptr) {
        profile->AttributeBlocked(blocked_from, RdCycles());
      }
      RunDeadlockPassIfDue(now_ns);
      blocked_from = RdCycles();
      check_ns = NowNanos() + kDeadlockCheckNs;
      continue;  // the pass may have chosen this waiter
    }
    if (!parked) {
      CountEvent(Counter::kLockParks);
      parked = true;
    }
    c->Park(resolved, std::min(deadline_us * 1000, check_ns));
  }
  if (parked) {
    if (profile != nullptr) profile->AttributeBlocked(blocked_from, RdCycles());
  } else if (r->status.load(std::memory_order_acquire) ==
             RequestStatus::kGranted) {
    CountEvent(Counter::kLockSpinGrants);
  }

  const bool victim = c->deadlock_victim().load(std::memory_order_acquire);
  if (!victim && !timed_out) return Status::OK();

  // Victim or timeout: remove / revert our request under the head latch.
  LockHead* h = r->head;
  WakeBatch wakes;
  const bool contended = h->latch.Acquire();
  h->hot.Record(contended);
  const RequestStatus s = r->status.load(std::memory_order_acquire);
  if (s == RequestStatus::kGranted) {
    // Granted concurrently with the abort decision. Keep the lock; the
    // caller's abort path will release it with everything else.
    h->latch.Release();
    if (victim) {
      *granted_anyway = true;
      c->deadlock_victim().store(false, std::memory_order_release);
      CountEvent(Counter::kDeadlocks);
      return Status::Deadlock();
    }
    return Status::OK();  // timed out but granted: treat as success
  }
  if (s == RequestStatus::kWaiting) {
    const LockId id = h->id;  // copy under latch: the unpin below can drop
                              // the last pin, letting the head be reclaimed
                              // and reused for a different lock
    h->Unlink(r);
    h->RemoveWaiter();
    GrantWaiters(h, &wakes);  // our departure may unblock FIFO successors
    h->latch.Release();
    wakes.Flush();
    table_.Unpin(h);
    c->cache().Erase(id);
    c->pool()->Free(r);
  } else {
    // kConverting: revert to the previously granted mode (the summary still
    // counts the held mode, so it is unchanged).
    r->convert_to = r->mode;
    r->status.store(RequestStatus::kGranted, std::memory_order_release);
    --h->converting_count;
    h->RemoveWaiter();
    GrantWaiters(h, &wakes);
    h->latch.Release();
    wakes.Flush();
  }

  if (victim) {
    c->deadlock_victim().store(false, std::memory_order_release);
    CountEvent(Counter::kDeadlocks);
    return Status::Deadlock();
  }
  if (deadline_capped) {
    CountEvent(Counter::kLockDeadlineCancels);
    return Status::TimedOut("txn deadline during lock wait");
  }
  CountEvent(Counter::kLockTimeouts);
  return Status::TimedOut();
}

void LockManager::ReleaseOne(LockRequest* r, RequestPool* pool,
                             WakeBatch* wakes, std::vector<LockId>* reclaims,
                             uint64_t commit_lsn) {
  LockHead* h = r->head;
  const LockId id = h->id;  // copy: head may be reclaimed after unpin
  const bool contended = h->latch.Acquire();
  h->hot.Record(contended);

  const RequestStatus s = r->status.load(std::memory_order_acquire);
  if (s == RequestStatus::kInvalid) {
    // Invalidated (and unlinked/unpinned) while we waited for the latch.
    h->latch.Release();
    pool->Free(r);
    return;
  }
  SimulateQueueWork(h);
  if (commit_lsn != 0 && IsWriteClassMode(r->mode)) {
    // The next acquirer of this head must not externalize our data before
    // this commit record is durable (early lock release).
    h->StampCommitLsn(r->mode, commit_lsn);
  }
  h->Unlink(r);
  h->SummaryRemove(r->mode);
  if (s == RequestStatus::kInherited) {
    // Discarding an unused inherited request counts as it leaving
    // kInherited.
    h->inherited_hint.fetch_sub(1, std::memory_order_acq_rel);
  }
  // Only walk the queue when somebody is actually waiting; the common
  // uncontended release is a pure O(1) summary update.
  if (h->waiter_count.load(std::memory_order_relaxed) > 0) {
    if (r->grant_cycles != 0) {
      // Clamped: one preempted holder must not stop spinning for long.
      h->FoldHold(std::min(RdCycles() - r->grant_cycles, 2 * spin_cap_cycles_));
    }
    GrantWaiters(h, wakes);
  } else {
    SLIDB_DCHECK_SUMMARY(h);
  }
  const bool empty = h->QueueEmpty();
  h->latch.Release();
  wakes->Flush();
  table_.Unpin(h);
  pool->Free(r);
  CountEvent(Counter::kLockReleases);
  // Only row heads are reclaimed eagerly: high-level heads must persist so
  // their hot-lock history survives between transactions (criterion 2), and
  // there are only O(tables + touched pages) of them.
  if (empty && id.level == LockLevel::kRow) {
    if (reclaims != nullptr) {
      reclaims->push_back(id);
    } else {
      table_.TryReclaim(id);
    }
  }
}

bool LockManager::EligibleForInheritance(
    LockClient* c, LockRequest* r,
    std::vector<std::pair<LockRequest*, bool>>* memo, int depth) {
  if (depth > kMaxDepth) return false;
  for (const auto& [req, verdict] : *memo) {
    if (req == r) return verdict;
  }

  bool ok = true;
  LockHead* h = r->head;
  // Criterion 3 (correctness): shared-class mode only.
  if (!IsHeritableMode(r->mode)) ok = false;
  // Criterion 1: page level or higher.
  if (ok && h->id.level == LockLevel::kRow) ok = false;
  // Criterion 2: the lock is hot (threshold 0 counts every head as hot).
  if (ok && !h->hot.IsHot(options_.hot_min_contended)) ok = false;
  // Criterion 4: no other transaction is waiting.
  if (ok && h->waiter_count.load(std::memory_order_acquire) != 0) ok = false;
  // Criterion 5: the same conditions hold for the parent, if any.
  if (ok && h->id.HasParent()) {
    LockRequest* pr = c->cache().Find(h->id.Parent());
    if (pr == nullptr ||
        pr->status.load(std::memory_order_acquire) != RequestStatus::kGranted) {
      ok = false;
    } else {
      ok = EligibleForInheritance(c, pr, memo, depth + 1);
    }
  }

  memo->emplace_back(r, ok);
  return ok;
}

void LockManager::DiscardInherited(AgentSliState* sli, LockRequest* r,
                                   WakeBatch* wakes,
                                   std::vector<LockId>* reclaims) {
  // Take the request back to kGranted before touching its head: while it
  // stays kInherited a concurrent conflicter can invalidate it, unlinking
  // it and dropping the pin that keeps the head alive — dereferencing
  // r->head would then race with head reclaim/reuse. Winning the CAS makes
  // us the owner again (nobody else transitions out of kGranted), so the
  // linked request's pin safely carries ReleaseOne.
  RequestStatus expect = RequestStatus::kInherited;
  if (r->status.compare_exchange_strong(expect, RequestStatus::kGranted,
                                        std::memory_order_acq_rel)) {
    r->head->inherited_hint.fetch_sub(1, std::memory_order_acq_rel);
    CountEvent(Counter::kSliDiscarded);
    // commit_lsn = 0: the releasing transaction never used the inherited
    // lock, so it is no dependency for later acquirers — the correct
    // horizon was stamped when the request was inherited by its writer.
    ReleaseOne(r, &sli->pool(), wakes, reclaims, 0);
  } else {
    // An invalidator won the race; it already unlinked and unpinned, so
    // only the memory remains to reclaim.
    sli->pool().Free(r);
  }
}

void LockManager::ReleaseInherited(AgentSliState* sli) {
  ScopedComponent comp(Component::kSli);
  WakeBatch wakes;
  LockRequest* r = sli->TakeInherited();
  while (r != nullptr) {
    LockRequest* next = r->agent_next;
    r->agent_next = nullptr;
    const RequestStatus s = r->status.load(std::memory_order_acquire);
    if (s == RequestStatus::kInvalid) {
      sli->pool().Free(r);
    } else if (s == RequestStatus::kInherited) {
      DiscardInherited(sli, r, &wakes, nullptr);
    }
    // kGranted: reclaimed by a transaction that still holds it.
    r = next;
  }
}

AgentSliState::~AgentSliState() {
  if (lock_manager_ != nullptr) lock_manager_->ReleaseInherited(this);
}

void LockManager::ReleaseAll(LockClient* c, AgentSliState* sli,
                             bool allow_inherit, uint64_t commit_lsn) {
  ScopedComponent comp(Component::kLockManager);
  if (sli != nullptr) sli->set_lock_manager(this);
  const bool sli_enabled = options_.sli_mode != SliMode::kOff;
  const bool sli_active = allow_inherit && sli_enabled && sli != nullptr;

  // Each head latch window shrinks to a single summary update: wakeups are
  // collected per release and signalled right after that head's latch
  // drops (never under it), and row-head reclaims are deferred into one
  // bucket pass at the end instead of per release.
  WakeBatch wakes;
  std::vector<LockId> reclaims;

  // Phase 1 (SLI bookkeeping): sweep the agent's inheritance list — free
  // invalidated requests, discard inherited requests this transaction never
  // used (paper §4.4, "do nothing"). Reclaimed ones moved to the
  // private list and are handled in phase 2. Attributed to the SLI
  // component: "locks which are inherited but never used must still be
  // released, and that overhead counts toward SLI, not the lock manager."
  if (sli != nullptr) {
    ScopedComponent sli_comp(Component::kSli);
    LockRequest* r = sli->TakeInherited();
    while (r != nullptr) {
      LockRequest* next = r->agent_next;
      r->agent_next = nullptr;
      const RequestStatus s = r->status.load(std::memory_order_acquire);
      if (s == RequestStatus::kInvalid) {
        sli->pool().Free(r);
      } else if (s == RequestStatus::kInherited) {
        if (sli_enabled && !allow_inherit) {
          // Abort path: the transaction's failure says nothing about the
          // speculation; keep it for the agent's next transaction. (TM1-
          // style workloads abort most transactions by design.)
          sli->PushInherited(r);
        } else {
          DiscardInherited(sli, r, &wakes, &reclaims);
        }
      }
      // kGranted: reclaimed by this transaction; lives in the private list.
      r = next;
    }
  }

  // Phase 2: walk the private list newest-first (paper §3.2) deciding
  // inherit-vs-release per request.
  std::vector<std::pair<LockRequest*, bool>> memo;
  RequestPool* pool = c->pool();
  LockRequest* r = c->TakeHeld();
  while (r != nullptr) {
    LockRequest* next = r->txn_next;
    r->txn_next = nullptr;

    bool inherit = false;
    // Cheap rejections first, keeping row locks (the overwhelming majority
    // in scan-heavy transactions) away from the memoized parent check.
    const bool worth_considering = sli_active && IsHeritableMode(r->mode) &&
                                   r->head->id.level != LockLevel::kRow;
    if (worth_considering) {
      ScopedComponent sli_comp(Component::kSli);
      inherit = EligibleForInheritance(c, r, &memo, 0);
    }

    if (inherit) {
      ScopedComponent sli_comp(Component::kSli);
      r->grant_cycles = 0;  // a reclaim is not a fresh grant
      if (commit_lsn != 0 && IsWriteClassMode(r->mode)) {
        // Inheritance is a logical release: a conflicting acquirer that
        // invalidates this request (e.g. table-S vs inherited IX) still
        // depends on our commit's durability. Stamp before the CAS makes
        // the request inheritable, so observers of either outcome see it.
        r->head->StampCommitLsn(r->mode, commit_lsn);
      }
      r->client.store(nullptr, std::memory_order_release);
      // Raise the hint before the CAS so it can never undercount a request
      // that is already kInherited (overestimates are harmless: they just
      // send a conflicting requester down the precise slow path).
      r->head->inherited_hint.fetch_add(1, std::memory_order_acq_rel);
      // Only the owner transitions out of kGranted, so the CAS cannot fail.
      RequestStatus expect = RequestStatus::kGranted;
      [[maybe_unused]] const bool won = r->status.compare_exchange_strong(
          expect, RequestStatus::kInherited, std::memory_order_acq_rel);
      assert(won);
      sli->PushInherited(r);
      CountEvent(Counter::kSliInherited);
    } else {
      ReleaseOne(r, pool, &wakes, &reclaims, commit_lsn);
    }
    r = next;
  }
  c->cache().Clear();
  if (sli != nullptr) {
    // An abort keeps the requests it never used; its horizon covers theirs,
    // because AdoptInherited noted it.
    sli->set_inherited_dep(std::max(commit_lsn, c->dep_lsn()));
  }

  for (const LockId& id : reclaims) table_.TryReclaim(id);
}

void LockManager::AdoptInherited(LockClient* c, AgentSliState* sli) {
  if (sli == nullptr || sli->inherited_head() == nullptr) return;
  ScopedComponent sli_comp(Component::kSli);
  c->NoteDep(sli->inherited_dep());
  for (LockRequest* r = sli->inherited_head(); r != nullptr;
       r = r->agent_next) {
    if (r->status.load(std::memory_order_acquire) ==
        RequestStatus::kInherited) {
      c->cache().Insert(r->head->id, r);
    }
  }
}

void LockManager::ClassifyAcquisition(const LockId& id, LockMode mode,
                                      bool hot) {
  const bool row = id.level == LockLevel::kRow;
  const bool heritable = IsHeritableMode(mode);
  CountEvent(row ? Counter::kAcqRow : Counter::kAcqHigh);
  CountEvent(heritable ? Counter::kAcqShared : Counter::kAcqExclusive);
  if (hot) {
    CountEvent(Counter::kAcqHot);
    if (row) {
      CountEvent(Counter::kAcqHotRow);
    } else if (heritable) {
      CountEvent(Counter::kAcqHotHeritable);
    }
  }
}

void LockManager::RunDeadlockPassIfDue(uint64_t now_ns) {
  // The caller has waited a whole slice, so a pass stamped less than
  // kDeadlockCheckNs ago began after it enqueued and saw its edge; so does
  // the pass of a waiter that wins the CAS first.
  uint64_t last = last_pass_ns_.load();
  if (last + kDeadlockCheckNs > now_ns) return;
  if (!last_pass_ns_.compare_exchange_strong(last, now_ns)) return;
  RunDeadlockDetection();
}

size_t LockManager::RunDeadlockDetection() {
  CountEvent(Counter::kDeadlockPasses);
  // Snapshot the waits-for graph. Nodes are transactions (by LockClient*);
  // edges follow the queue semantics: a waiter waits on every live granted /
  // converting holder it conflicts with, plus every earlier queued waiter
  // (FIFO grant order). Conversions wait only on granted conflicts.
  struct Node {
    LockClient* client;
    uint64_t txn_id;
    std::vector<LockClient*> out;
  };
  std::unordered_map<LockClient*, Node> graph;

  struct QueueEntry {
    LockClient* client;
    RequestStatus status;
    LockMode held;
    LockMode wanted;
  };
  std::vector<QueueEntry> entries;
  // Every client in the snapshot, pinned under its head latch: the graph
  // is walked, and victims are woken, after the latches are dropped.
  std::vector<LockClient*> pinned;

  // Only heads with a waiting/converting request can contribute an edge,
  // so buckets whose aggregate waiter count is zero are skipped without
  // touching any latch — an idle-table detection pass is a latch-free
  // array sweep.
  table_.ForEachHeadWithWaiters([&](LockHead* h) {
    entries.clear();
    for (LockRequest* r = h->q_head; r != nullptr; r = r->q_next) {
      const RequestStatus s = r->status.load(std::memory_order_acquire);
      LockClient* cl = r->client.load(std::memory_order_acquire);
      if (cl == nullptr) continue;  // inherited/in-limbo
      cl->Pin();
      pinned.push_back(cl);
      const LockMode wanted =
          s == RequestStatus::kConverting ? r->convert_to : r->mode;
      entries.push_back(QueueEntry{cl, s, r->mode, wanted});
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      const QueueEntry& w = entries[i];
      if (w.status != RequestStatus::kWaiting &&
          w.status != RequestStatus::kConverting) {
        continue;
      }
      Node& node = graph.try_emplace(w.client, Node{w.client, 0, {}})
                       .first->second;
      node.txn_id = w.client->txn_id();
      for (size_t j = 0; j < entries.size(); ++j) {
        if (i == j) continue;
        const QueueEntry& o = entries[j];
        if (o.client == w.client) continue;
        bool blocks = false;
        if (o.status == RequestStatus::kGranted ||
            o.status == RequestStatus::kConverting) {
          blocks = !Compatible(o.held, w.wanted);
        } else if (o.status == RequestStatus::kWaiting &&
                   w.status == RequestStatus::kWaiting && j < i) {
          blocks = true;  // FIFO: earlier waiters are granted first
        }
        if (blocks) node.out.push_back(o.client);
      }
    }
  });

  // DFS cycle detection with three-color marking.
  std::unordered_map<LockClient*, int> color;  // 0 white, 1 grey, 2 black
  std::vector<LockClient*> stack;
  size_t victims = 0;

  auto visit = [&](LockClient* start, auto&& self) -> void {
    color[start] = 1;
    stack.push_back(start);
    auto it = graph.find(start);
    if (it != graph.end()) {
      for (LockClient* next : it->second.out) {
        const int c2 = color[next];
        if (c2 == 1) {
          // Cycle: victims = youngest transaction on the stack back to next.
          LockClient* victim = nullptr;
          uint64_t max_id = 0;
          for (auto rit = stack.rbegin(); rit != stack.rend(); ++rit) {
            if ((*rit)->txn_id() >= max_id) {
              max_id = (*rit)->txn_id();
              victim = *rit;
            }
            if (*rit == next) break;
          }
          if (victim != nullptr &&
              !victim->deadlock_victim().exchange(true)) {
            ++victims;
            victim->Wake();
          }
        } else if (c2 == 0) {
          self(next, self);
        }
      }
    }
    stack.pop_back();
    color[start] = 2;
  };

  for (auto& [client, node] : graph) {
    if (color[client] == 0) visit(client, visit);
  }
  for (LockClient* cl : pinned) cl->Unpin();
  return victims;
}

}  // namespace slidb
