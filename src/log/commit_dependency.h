// Deferred commit acknowledgements: the one node through which every wait
// for durability goes.
//
// Under ELR a transaction that observes an early-released writer picks up a
// durability dependency (LockClient::NoteDep): its effects must not become
// visible to the client before that writer's commit record is parseable
// from the durable stream. A synchronous commit parks a DeferredAck and
// sleeps on it (LogManager::WaitDurable); a speculative one parks it and
// returns — an *asynchronous commit dependency*. Either way the log pass
// that advances the durable LSN past it settles the node, so
// externalization moves to the settlement with ELR soundness intact.
//
// Node ownership protocol:
//   1. the owner fills {lsn, park_ns} and pushes the node onto the log's
//      ack queue (the release CAS publishes the plain fields) as kParked
//      (nobody blocks on it), kWaiting or kWaitingUntil (the owner sleeps
//      on it, without or with a deadline);
//   2. the flush-role holder owns it from its acquire exchange until it
//      swaps in kDurable, kLost (shutdown before the horizon hardened: never
//      report it committed) or kLead (the role passes to the waiting
//      owner), stamping settle_ns and dropping every reference first;
//   3. a deadline owner whose budget runs out swaps kWaitingUntil back to
//      kParked and leaves: the node stays queued, so it must be ring-owned;
//   4. the agent reclaims a ring slot once a terminal state is visible,
//      charging the settle-latency / dependency-abort counters there.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/log/log_record.h"
#include "src/stats/counters.h"

namespace slidb {

/// One commit acknowledgement waiting for its durability horizon.
struct DeferredAck {
  enum State : uint32_t {
    kFree = 0,      ///< slot idle, owned by the agent's ring
    kParked,        ///< queued, nobody blocks on it
    kWaiting,       ///< queued, the owner sleeps on it (may be promoted)
    kWaitingUntil,  ///< queued, the owner sleeps on it until a deadline
    kLead,          ///< promoted: the owner now holds the flush role
    kDurable,       ///< horizon hardened: the commit is externalized
    kLost,          ///< horizon never hardened (dependency abort): the commit
                    ///< must not be reported — a crash could un-commit it
  };

  Lsn lsn = 0;             ///< durability horizon to settle at
  uint64_t park_ns = 0;    ///< NowNanos at park (owner)
  uint64_t settle_ns = 0;  ///< NowNanos at settle (role holder)
  uint64_t gap_cycles = 0;  ///< owner's RdCycles since its last wait (0: none)
  std::atomic<uint32_t> state{kFree};
  DeferredAck* next = nullptr;  ///< ack-queue linkage (role-holder-owned)
};

/// Fixed-capacity FIFO of DeferredAck slots, owned by one agent thread.
/// Parking is allocation-free: Acquire hands out the next slot, reclaiming
/// the settled prefix lazily; a full ring blocks on the *oldest* parked ack
/// (natural backpressure — the agent can be at most kSlots commits ahead of
/// the log). Slots are stable memory for the ring's whole lifetime, so the
/// ack queue's pointers stay valid while acks are outstanding: drain (or
/// destroy the LogManager, whose shutdown settles every parked ack) before
/// destroying the ring.
class DeferredAckRing {
 public:
  static constexpr size_t kSlots = 128;

  DeferredAckRing() = default;
  DeferredAckRing(const DeferredAckRing&) = delete;
  DeferredAckRing& operator=(const DeferredAckRing&) = delete;
  ~DeferredAckRing() { Drain(); }

  /// Next free slot for the caller to fill and park. May block (atomic
  /// wait) on the oldest outstanding ack when the ring is full.
  DeferredAck* Acquire() {
    ReclaimSettledPrefix();
    if (tail_ - head_ == kSlots) {
      AwaitSettled(slots_[head_ % kSlots]);
      ReclaimSettledPrefix();
    }
    return &slots_[tail_++ % kSlots];
  }

  /// Wait for every outstanding ack to settle and reclaim all slots. After
  /// this the log holds no pointers into the ring.
  void Drain() {
    while (head_ != tail_) {
      DeferredAck& a = slots_[head_ % kSlots];
      ReclaimOne(a, AwaitSettled(a));
      ++head_;
    }
  }

  size_t outstanding() const { return tail_ - head_; }

 private:
  uint32_t AwaitSettled(DeferredAck& a) {
    uint32_t s = a.state.load(std::memory_order_acquire);
    while (s == DeferredAck::kParked) {
      a.state.wait(DeferredAck::kParked, std::memory_order_acquire);
      s = a.state.load(std::memory_order_acquire);
    }
    return s;
  }

  /// Acks may settle out of FIFO order (horizons are not monotone across
  /// consecutive transactions), so reclamation stops at the first slot
  /// still parked; later settled slots are picked up on a later pass.
  void ReclaimSettledPrefix() {
    while (head_ != tail_) {
      DeferredAck& a = slots_[head_ % kSlots];
      const uint32_t s = a.state.load(std::memory_order_acquire);
      if (s == DeferredAck::kParked) break;
      ReclaimOne(a, s);
      ++head_;
    }
  }

  void ReclaimOne(DeferredAck& a, uint32_t state) {
    if (state == DeferredAck::kDurable) {
      CountEvent(Counter::kTxnDepSettleNs, a.settle_ns - a.park_ns);
    } else if (state == DeferredAck::kLost) {
      CountEvent(Counter::kTxnDepAbortedAcks);
    }
    a.state.store(DeferredAck::kFree, std::memory_order_relaxed);
  }

  DeferredAck slots_[kSlots];
  uint64_t head_ = 0;  ///< oldest outstanding slot (monotone counter)
  uint64_t tail_ = 0;  ///< next slot to hand out (monotone counter)
};

}  // namespace slidb
