// The slidb lock manager: a Shore-MT-style hierarchical lock manager with
// Speculative Lock Inheritance (paper Section 4) implemented as a
// modification of the release and acquire paths.
//
// Concurrency protocol summary:
//  * Lock heads and their FIFO request queues are protected by a per-head
//    spin latch; the hash table buckets by per-bucket latches.
//  * A transaction's lock cache and private list are single-threaded.
//  * SLI transitions are CAS operations on LockRequest::status:
//      - release path (owner agent):  kGranted  → kInherited
//      - reclaim (owner agent):       kInherited → kGranted  (latch-free!)
//      - invalidation (conflicting
//        thread, head latch held):    kInherited → kInvalid  (+ unlink)
//    The CAS arbitrates the reclaim/invalidate race; request memory is only
//    ever freed by the owning agent thread, making the protocol safe without
//    hazard pointers.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/lock/agent_sli.h"
#include "src/lock/lock_client.h"
#include "src/lock/lock_table.h"
#include "src/util/status.h"

namespace slidb {

/// SLI policy. kOff never inherits; kOn inherits every lock that meets the
/// paper's five eligibility criteria (§4.2), criterion 2 being the heat
/// window test HotTracker::IsHot(hot_min_contended).
enum class SliMode : uint8_t { kOff, kOn };

inline const char* SliModeName(SliMode mode) {
  switch (mode) {
    case SliMode::kOff: return "sli_off";
    case SliMode::kOn: return "sli_on";
  }
  return "?";
}

/// Tuning knobs. SLI's five eligibility criteria are fixed rules
/// (LockManager::EligibleForInheritance), and an inherited lock the next
/// transaction does not use is discarded at its commit (the paper's §4.4
/// "do nothing").
struct LockManagerOptions {
  /// Heat threshold: a head is hot when at least this many of the last 16
  /// latch acquisitions on it were contended (paper: tunable threshold).
  /// It feeds SLI criterion 2, the `hot_wait_depth` limit and the Fig. 8
  /// hot-acquisition counters (acq.hot*). 0 makes every head hot, which
  /// waives criterion 2.
  uint32_t hot_min_contended = 4;

  /// Speculative lock inheritance policy; see SliMode.
  SliMode sli_mode = SliMode::kOff;

  /// Extra nanoseconds of work *per queued request* performed inside each
  /// latched lock-queue operation (acquire / upgrade / release). Models the
  /// per-entry traversal and cache-miss cost that makes "the effort
  /// required to grant or release a lock grow with the number of active
  /// transactions" (paper §3.2) on a many-context machine — load a small
  /// host cannot produce physically (see DESIGN.md substitutions). The cost
  /// therefore self-scales: short queues at light load stay cheap, crowded
  /// hot queues at high load get expensive. SLI reclaims bypass the latch
  /// and are exempt, exactly as in the paper. 0 disables the simulation
  /// (unit-test default).
  uint64_t sim_queue_work_ns = 0;

  /// Backstop for lost wakeups / undetected deadlocks. Per-wait budgets are
  /// min(lock_timeout_us, the transaction's remaining deadline) when the
  /// LockClient carries a deadline.
  uint64_t lock_timeout_us = 5'000'000;

  /// Thomasian-style wait-depth restriction, driven by the per-head heat
  /// signal: when nonzero and a head is hot (HotTracker window at
  /// hot_min_contended), a request that would queue behind this many
  /// waiters is cancelled immediately with a retryable Status::Overloaded
  /// instead of deepening the convoy. 0 = off (default).
  uint32_t hot_wait_depth = 0;
};

/// Clients to wake, collected while a head latch is held and drained after
/// it is released so waiters never wake up into a still-latched head (and
/// the latch window stays short). Inline storage covers the common case;
/// deep wake bursts spill to the heap.
class WakeBatch {
 public:
  /// Pins `c` until Flush; call before publishing the grant.
  void Add(LockClient* c) {
    c->Pin();
    if (n_ < kInline) {
      inline_[n_++] = c;
    } else {
      overflow_.push_back(c);
    }
  }

  /// Wake and unpin everything collected so far, and reset. Must be called
  /// with no latches held.
  void Flush();

  bool empty() const { return n_ == 0; }

 private:
  static constexpr size_t kInline = 8;
  LockClient* inline_[kInline];
  size_t n_ = 0;
  std::vector<LockClient*> overflow_;
};

class LockManager {
 public:
  explicit LockManager(LockManagerOptions options = {});

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquire `id` in `mode` for `c`, acquiring ancestor intention locks
  /// automatically and upgrading an existing request when needed. Blocks on
  /// conflicts. Returns OK, Deadlock (victim), or TimedOut.
  Status Lock(LockClient* c, const LockId& id, LockMode mode);

  /// Release every lock `c` holds. When `allow_inherit` is true, sli_mode
  /// is not kOff, and `sli` is non-null, eligible locks pass to `sli`
  /// instead of being released (commit path); aborts call with
  /// allow_inherit = false.
  /// Also garbage-collects `sli`'s invalidated requests and discards
  /// inherited requests the finished transaction never used.
  ///
  /// `commit_lsn` (commit path only; 0 otherwise) stamps every released or
  /// inherited write-mode lock's head as the durability horizon later
  /// acquirers depend on under early lock release — see
  /// LockHead::DepFor and LockClient::NoteDep. `sli` also records the
  /// finished transaction's own horizon, max(commit_lsn, c's dep_lsn),
  /// which AdoptInherited hands to the agent's next transaction.
  void ReleaseAll(LockClient* c, AgentSliState* sli, bool allow_inherit,
                  uint64_t commit_lsn = 0);

  /// Release every request still on `sli`'s inheritance list: the
  /// retirement of an agent whose last transaction has ended. Runs from
  /// ~AgentSliState, so an agent must retire before its lock manager.
  void ReleaseInherited(AgentSliState* sli);

  /// Populate a starting transaction's lock cache with the agent's
  /// inherited requests (paper §4.1: "pre-populates the new transaction's
  /// lock cache"). When any are inherited, `c` also notes the horizon of
  /// the transaction that inherited them: a reclaim is a grant at that
  /// transaction's grant time, so it depends on what that grant noted, and
  /// the latch-free reclaim path then reads no head state.
  void AdoptInherited(LockClient* c, AgentSliState* sli);

  /// Run one deadlock detection pass: snapshot the waits-for graph and
  /// choose the youngest transaction on each cycle as its victim. Waiters
  /// run it themselves (see WaitForGrant); tests call it directly. Returns
  /// the number of victims chosen.
  size_t RunDeadlockDetection();

  const LockManagerOptions& options() const { return options_; }
  /// Live mutation between runs only (Database::SetSliMode switches the
  /// policy this way); agents must not be running.
  LockManagerOptions& mutable_options() { return options_; }

  LockTable& table() { return table_; }

  /// RdCycles a lock waiter spins before parking: the whole expected wait,
  /// `hold_cycles` (the head's hold estimate), when no waiter is `ahead`
  /// of it and the estimate fits under a fixed 40 µs cap; otherwise 0, and
  /// always 0 with one usable CPU or no estimate yet. Spinning for part of
  /// a longer wait would cost CPU and still pay the wake-up, and a waiter
  /// behind others would hold a CPU that the holder and the grantees ahead
  /// of it need.
  uint64_t SpinBudget(uint64_t hold_cycles, uint32_t ahead) const;

 private:
  Status LockInternal(LockClient* c, const LockId& id, LockMode mode,
                      int depth);
  Status EnsureParents(LockClient* c, const LockId& id, LockMode mode,
                       int depth);
  Status AcquireNew(LockClient* c, const LockId& id, LockMode mode);
  Status Upgrade(LockClient* c, LockRequest* r, LockMode mode);
  /// Blocks until `r` is granted, the client is victimized, or the timeout
  /// fires: spins for `spin_cycles` (SpinBudget), then parks on the
  /// client's futex word in 1 ms slices, calling RunDeadlockPassIfDue
  /// after each slice that ends unresolved. On failure, `r` is cleaned up
  /// (unlinked+freed for new requests, reverted for conversions) — unless
  /// it was granted concurrently with the victim decision, in which case
  /// `*granted_anyway` is set and the caller must register the granted
  /// request so the abort path releases it.
  Status WaitForGrant(LockClient* c, LockRequest* r, uint64_t spin_cycles,
                      bool* granted_anyway);

  /// True iff `mode` conflicts with no live request other than `self`.
  /// O(1) against the head's grant summary in the common case; falls back
  /// to a queue walk only when conflicting kInherited requests may need to
  /// be invalidated (head latch must be held).
  bool CanGrant(LockHead* h, const LockRequest* self, LockMode mode);

  /// Queue walk behind CanGrant's slow path: precise per-request conflict
  /// checks plus invalidation of conflicting inherited requests.
  bool CanGrantSlow(LockHead* h, const LockRequest* self, LockMode mode);

  /// Grant queued conversions then FIFO waiters (head latch must be held).
  /// Clients to wake are collected into `wakes`; the caller flushes it
  /// after releasing the latch.
  void GrantWaiters(LockHead* h, WakeBatch* wakes);

  /// Normal release of one granted request (the discard path re-takes
  /// ownership via CAS before calling this). Wakeups are collected into
  /// `wakes` under the latch and flushed after it is released; empty row
  /// heads are queued on `reclaims` when non-null (batched TryReclaim),
  /// else reclaimed inline.
  void ReleaseOne(LockRequest* r, RequestPool* pool, WakeBatch* wakes,
                  std::vector<LockId>* reclaims, uint64_t commit_lsn = 0);

  /// Release one unused inherited request of `sli` (or free it when an
  /// invalidator got there first).
  void DiscardInherited(AgentSliState* sli, LockRequest* r, WakeBatch* wakes,
                        std::vector<LockId>* reclaims);

  /// Charge the simulated per-entry queue cost (head latch must be held).
  void SimulateQueueWork(LockHead* h);

  bool EligibleForInheritance(LockClient* c, LockRequest* r,
                              std::vector<std::pair<LockRequest*, bool>>* memo,
                              int depth);

  void ClassifyAcquisition(const LockId& id, LockMode mode, bool hot);

  /// Run RunDeadlockDetection unless a pass started less than 1 ms before
  /// `now_ns` (NowNanos clock), so passes run at most once a millisecond.
  void RunDeadlockPassIfDue(uint64_t now_ns);

  LockManagerOptions options_;
  LockTable table_;
  const uint64_t spin_cap_cycles_;  ///< kSpinCapNs in RdCycles
  /// Waiters spinning right now; at most UsableCpus() - 1, so a spinner
  /// never takes the last CPU a holder could release on.
  std::atomic<uint32_t> spinners_{0};
  /// NowNanos at the start of the last waiter-run deadlock pass.
  std::atomic<uint64_t> last_pass_ns_{0};
};

}  // namespace slidb
