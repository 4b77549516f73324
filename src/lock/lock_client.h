// LockClient: the per-transaction view of the lock manager — the private
// list of held requests, the lock cache, and the blocking/wake machinery
// used when a request must wait. The transaction manager embeds one
// LockClient in every Transaction.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/lock/lock_cache.h"
#include "src/lock/lock_request.h"
#include "src/stats/counters.h"
#include "src/util/futex.h"

namespace slidb {

/// Per-transaction lock state. Reset between transactions; owned by exactly
/// one agent thread at a time.
///
/// Lifetime: a waker (a granter on its way to Wake(), or another
/// transaction's waiter running a deadlock pass over its waits-for
/// snapshot) may still use a client after the client's waiter saw its
/// grant or victim flag and moved on. Wakers pin the client first (Pin),
/// and the destructor waits until every pin is dropped, so an agent may
/// retire its client while other agents still run the lock manager.
class LockClient {
 public:
  LockClient() = default;
  ~LockClient() {
    while (pins_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
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

  /// Record a durability dependency: what the acquired lock lets this
  /// transaction read was last written by a transaction whose commit record
  /// ends at `lsn` (0 = none; LockHead::DepFor picks it by mode). Commit
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

  /// Request this client is currently blocked on; set for the whole lock
  /// wait (tests poll it to know a waiter has enqueued).
  std::atomic<LockRequest*>& waiting_on() { return waiting_on_; }

  std::atomic<bool>& deadlock_victim() { return deadlock_victim_; }

  /// Sleep on the park word until Wake() or `deadline_ns` (NowNanos clock),
  /// unless `resolved()` already holds. The waiter publishes "parked" and
  /// then re-checks `resolved`, behind a seq_cst fence; Wake() is called
  /// after the waker stored the grant (or the victim flag) and checks
  /// "parked" behind a matching fence. So either the waker sees "parked"
  /// and wakes the word, or the re-check sees the grant: a wake-up cannot
  /// be lost. May return early (a timeout, or a stale waker of an earlier
  /// wait), so callers loop on their predicate.
  template <typename Resolved>
  void Park(Resolved&& resolved, uint64_t deadline_ns) {
    park_word_.store(kParked, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!resolved()) FutexWaitUntil(park_word_, kParked, deadline_ns);
    park_word_.store(kRunning, std::memory_order_relaxed);
  }

  /// Keep this client alive across a wake: taken before the waker
  /// publishes what the waiter polls (the grant, the victim flag), or under
  /// the head latch of a queued request; dropped once the waker is done.
  void Pin() { pins_.fetch_add(1, std::memory_order_relaxed); }
  void Unpin() { pins_.fetch_sub(1, std::memory_order_release); }

  /// True while the owning thread is inside Park().
  bool parked() const {
    return park_word_.load(std::memory_order_relaxed) == kParked;
  }

  /// Wake a blocked client (called by lock releasers and deadlock passes,
  /// after they stored what the waiter polls). A waiter still spinning, or
  /// not waiting at all, costs no syscall (`lock.wake_fast`).
  void Wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (park_word_.load(std::memory_order_relaxed) != kParked ||
        park_word_.exchange(kRunning, std::memory_order_relaxed) !=
            kParked) {
      CountEvent(Counter::kLockWakeFast);
      return;
    }
    FutexWake(park_word_);
  }

 private:
  /// Atomic: a deadlock pass walks its waits-for graph after the latches
  /// are dropped and may read the id of a client that has already moved on
  /// to its next transaction (a stale id only skews the victim
  /// choice of a cycle that no longer exists).
  std::atomic<uint64_t> txn_id_{0};
  uint64_t dep_lsn_ = 0;  ///< max durability dependency (single-threaded)
  uint64_t deadline_ns_ = 0;  ///< absolute txn deadline; 0 = none
  uint32_t agent_id_ = 0;
  LockRequest* held_head_ = nullptr;
  LockCache cache_;
  RequestPool own_pool_;
  RequestPool* pool_ = &own_pool_;

  static constexpr uint32_t kRunning = 0;
  static constexpr uint32_t kParked = 1;
  std::atomic<uint32_t> park_word_{kRunning};
  std::atomic<uint32_t> pins_{0};
  std::atomic<LockRequest*> waiting_on_{nullptr};
  std::atomic<bool> deadlock_victim_{false};
};

}  // namespace slidb
