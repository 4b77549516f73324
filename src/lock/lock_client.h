// LockClient: the per-transaction view of the lock manager — the private
// list of held requests, the lock cache, and the blocking/wake machinery
// used when a request must wait. The transaction manager embeds one
// LockClient in every Transaction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/lock/lock_cache.h"
#include "src/lock/lock_request.h"
#include "src/stats/counters.h"

namespace slidb {

/// Per-transaction lock state. Reset between transactions; owned by exactly
/// one agent thread at a time.
///
/// Lifetime: the deadlock detector may hold a LockClient pointer briefly
/// after a wait resolves, so clients must outlive the LockManager's last
/// detection pass over them — in practice, keep clients alive as long as the
/// LockManager (agents reuse one client for the whole run).
class LockClient {
 public:
  LockClient() = default;
  LockClient(const LockClient&) = delete;
  LockClient& operator=(const LockClient&) = delete;

  /// Prepare for a new transaction. `txn_id` orders transactions for
  /// deadlock victim selection (younger = larger id = preferred victim).
  void StartTxn(uint64_t txn_id, uint32_t agent_id) {
    txn_id_.store(txn_id, std::memory_order_relaxed);
    agent_id_ = agent_id;
    held_head_ = nullptr;
    cache_.Clear();
    dep_lsn_ = 0;
    deadline_ns_ = 0;
    deadlock_victim_.store(false, std::memory_order_relaxed);
    waiting_on_.store(nullptr, std::memory_order_relaxed);
  }

  /// Absolute response deadline (NowNanos clock; 0 = none) for the current
  /// transaction. Set once by TransactionManager::Begin; every blocking
  /// point reads it: lock waits cap their budget at
  /// min(lock_timeout, remaining deadline), the durable-commit wait parks a
  /// DeferredAck instead of blocking past it, and Commit refuses to enter
  /// once it has passed.
  void SetDeadline(uint64_t deadline_ns) { deadline_ns_ = deadline_ns; }
  uint64_t deadline_ns() const { return deadline_ns_; }

  /// Record a durability dependency: the acquired head was last written by
  /// a transaction whose commit record ends at `lsn` (0 = none). Commit
  /// externalizes only once durable >= dep_lsn(), so a caller can never
  /// observe state an early-released, crash-lost writer produced — by
  /// blocking (default) or by deferring the acknowledgement
  /// (TxnOptions::speculative_reads). Each horizon raise is the capture
  /// point of one speculative read: the data may be read and used right
  /// now, ahead of its writer's durability.
  void NoteDep(uint64_t lsn) {
    if (lsn > dep_lsn_) {
      dep_lsn_ = lsn;
      CountEvent(Counter::kTxnSpecReads);
    }
  }
  uint64_t dep_lsn() const { return dep_lsn_; }

  uint64_t txn_id() const { return txn_id_.load(std::memory_order_relaxed); }
  uint32_t agent_id() const { return agent_id_; }

  LockCache& cache() { return cache_; }

  /// Request allocator. Defaults to a private pool; agents that use SLI
  /// share their AgentSliState's pool so inherited requests can migrate
  /// between consecutive transactions of the same agent.
  RequestPool* pool() { return pool_; }
  void SetPool(RequestPool* pool) { pool_ = pool != nullptr ? pool : &own_pool_; }

  /// Private list of held (granted) requests, newest first — the order the
  /// release phase walks at commit (paper §3.2).
  LockRequest* held_head() const { return held_head_; }
  void PushHeld(LockRequest* r) {
    r->txn_next = held_head_;
    held_head_ = r;
  }
  /// Detach and return the whole private list (release-phase consumption).
  LockRequest* TakeHeld() {
    LockRequest* h = held_head_;
    held_head_ = nullptr;
    return h;
  }

  // ---- blocking machinery ----

  std::mutex& wait_mutex() { return wait_mu_; }
  std::condition_variable& wait_cv() { return wait_cv_; }

  /// Request this client is currently blocked on (deadlock detector input).
  std::atomic<LockRequest*>& waiting_on() { return waiting_on_; }

  std::atomic<bool>& deadlock_victim() { return deadlock_victim_; }

  /// True while the owning thread is inside its WaitForGrant window (set
  /// under wait_mu_ before the first predicate check, cleared before the
  /// window exits). Lets Wake() skip the mutex when nobody can be parked.
  void BeginWaitWindow() {
    waiting_.store(true, std::memory_order_relaxed);
    // Pairs with the fence in Wake(): either the waker sees waiting_ set
    // (and takes the mutex), or our predicate check below the fence sees
    // the waker's status store — the wakeup cannot be lost.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  void EndWaitWindow() { waiting_.store(false, std::memory_order_relaxed); }

  /// Wake a blocked client (called by lock releasers and the detector).
  /// Fast path: when no thread can be parked (the waiting flag is unset),
  /// skip the wait mutex entirely — the common release-with-no-waiters
  /// case stays futex-style lock-free.
  void Wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!waiting_.load(std::memory_order_relaxed)) {
      CountEvent(Counter::kLockWakeFast);
      return;
    }
    // The lock ensures the waiter either has not yet checked its predicate
    // or is inside wait(); either way the notification is not lost.
    std::lock_guard<std::mutex> g(wait_mu_);
    wait_cv_.notify_all();
  }

 private:
  /// Atomic: the deadlock detector walks its waits-for graph after the
  /// latches are dropped and may read the id of a client that has already
  /// moved on to its next transaction (a stale id only skews the victim
  /// choice of a cycle that no longer exists).
  std::atomic<uint64_t> txn_id_{0};
  uint64_t dep_lsn_ = 0;  ///< max durability dependency (single-threaded)
  uint64_t deadline_ns_ = 0;  ///< absolute txn deadline; 0 = none
  uint32_t agent_id_ = 0;
  LockRequest* held_head_ = nullptr;
  LockCache cache_;
  RequestPool own_pool_;
  RequestPool* pool_ = &own_pool_;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::atomic<bool> waiting_{false};
  std::atomic<LockRequest*> waiting_on_{nullptr};
  std::atomic<bool> deadlock_victim_{false};
};

}  // namespace slidb
