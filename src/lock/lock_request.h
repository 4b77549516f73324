// Lock request objects: one per (transaction, lock) pair, linked both into
// the lock head's queue and the owning transaction's private list. The SLI
// state machine lives in the atomic `status` field:
//
//   kGranted --release(eligible)--> kInherited --reclaim CAS--> kGranted
//        |                              |
//        +--release(normal)--> freed    +--conflict/orphan CAS--> kInvalid
//                                                  (freed later by owner agent)
#pragma once

#include <atomic>
#include <cstdint>

#include "src/lock/lock_mode.h"

namespace slidb {

struct LockHead;
class LockClient;

/// Life-cycle states of a request. Only the owner agent thread transitions
/// kGranted→kInherited; reclaim (owner) and invalidation (any conflicting
/// thread holding the head latch) race on kInherited via compare-exchange.
enum class RequestStatus : uint8_t {
  kWaiting = 0,  ///< queued, not yet granted
  kConverting,   ///< granted in `mode`, waiting to upgrade to `convert_to`
  kGranted,
  kInherited,    ///< passed to the agent's next transaction, not yet claimed
  kInvalid,      ///< inheritance killed; memory awaits owner-agent GC
};

/// One lock request. Allocated from the owning agent thread's RequestPool;
/// freed only by that same thread (single-owner memory discipline, which is
/// what makes the latch-free reclaim/invalidate CAS protocol safe).
struct LockRequest {
  std::atomic<RequestStatus> status{RequestStatus::kWaiting};
  LockMode mode = LockMode::kNL;        ///< granted mode
  LockMode convert_to = LockMode::kNL;  ///< target mode while kConverting

  /// Owning transaction's lock state; nullptr while the request sits in an
  /// agent's inheritance list between transactions.
  std::atomic<LockClient*> client{nullptr};

  LockHead* head = nullptr;

  /// RdCycles at the grant, stamped only where the hold is measured (a
  /// grant out of the wait queue, or on a head with a hold estimate);
  /// 0 = unstamped. Protected by the head latch.
  uint64_t grant_cycles = 0;

  // Queue links, protected by the head latch.
  LockRequest* q_next = nullptr;
  LockRequest* q_prev = nullptr;

  // Private list link (owner transaction; newest first).
  LockRequest* txn_next = nullptr;

  // Agent inheritance list link.
  LockRequest* agent_next = nullptr;

  void Reset() {
    status.store(RequestStatus::kWaiting, std::memory_order_relaxed);
    mode = LockMode::kNL;
    convert_to = LockMode::kNL;
    client.store(nullptr, std::memory_order_relaxed);
    head = nullptr;
    grant_cycles = 0;
    q_next = q_prev = nullptr;
    txn_next = nullptr;
    agent_next = nullptr;
  }
};

/// Per-agent-thread freelist of LockRequests. Not thread-safe by design:
/// every request is allocated and freed by its owning agent thread.
class RequestPool {
 public:
  RequestPool() = default;
  ~RequestPool();

  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  LockRequest* Alloc() {
    if (free_ != nullptr) {
      LockRequest* r = free_;
      free_ = r->txn_next;
      r->Reset();
      ++live_;
      return r;
    }
    ++allocated_;
    ++live_;
    return new LockRequest();
  }

  void Free(LockRequest* r) {
    r->txn_next = free_;
    free_ = r;
    --live_;
  }

  size_t allocated() const { return allocated_; }
  size_t live() const { return live_; }

 private:
  LockRequest* free_ = nullptr;
  size_t allocated_ = 0;
  size_t live_ = 0;
};

}  // namespace slidb
