// Partitioned hash table of lock heads (paper Figure 2). Buckets are
// individually latched; lock heads are reference-counted (pins) so they can
// be reclaimed when their queues drain without invalidating concurrent
// references.
#pragma once

#include <cstdint>
#include <memory>

#include "src/lock/lock_head.h"
#include "src/util/cacheline.h"
#include "src/util/latch.h"

namespace slidb {

class LockTable {
 public:
  /// `num_buckets` is rounded up to a power of two.
  explicit LockTable(size_t num_buckets = 1 << 14);
  ~LockTable();

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Find or create the head for `id`. The returned head carries one pin
  /// owned by the caller; pair with Unpin() (directly or by transferring
  /// the pin to an enqueued request).
  LockHead* FindOrCreate(const LockId& id);

  void Unpin(LockHead* head) {
    head->pin_count.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Opportunistically retire the head for `id` if its queue is empty and
  /// nobody holds a pin: the head moves to the bucket's freelist (up to
  /// kMaxFreePerBucket) for allocator-free reuse, else is deleted. Safe to
  /// call any time; no-ops when in use.
  void TryReclaim(const LockId& id);

  /// Iterate all heads (stats). `fn` is invoked with the head latch held;
  /// it must not block or acquire other latches.
  template <typename Fn>
  void ForEachHead(Fn&& fn) {
    for (size_t i = 0; i <= bucket_mask_; ++i) {
      Bucket& bucket = *buckets_[i];
      SpinLatchGuard bg(bucket.latch);
      for (LockHead* h = bucket.chain; h != nullptr; h = h->bucket_next) {
        SpinLatchGuard hg(h->latch);
        fn(h);
      }
    }
  }

  /// Like ForEachHead, but skips buckets whose aggregate waiter count
  /// (maintained by LockHead::AddWaiter/RemoveWaiter) is zero — without
  /// taking the bucket latch, let alone any head latch — and, inside a
  /// bucket that does have waiters, skips latching the individual heads
  /// whose own `waiter_count` is zero (one chain of a hot bucket can hold
  /// dozens of uncontended row heads next to the single contended one).
  /// Waits-for edges only exist on heads with a waiting or converting
  /// request, so this visits every head that can contribute one; a waiter
  /// arriving concurrently with either skip check is seen by a later pass,
  /// which that waiter runs itself, or finds already begun, once it has
  /// waited a millisecond (LockManager::WaitForGrant).
  template <typename Fn>
  void ForEachHeadWithWaiters(Fn&& fn) {
    for (size_t i = 0; i <= bucket_mask_; ++i) {
      Bucket& bucket = *buckets_[i];
      if (bucket.waiters.load(std::memory_order_acquire) == 0) continue;
      SpinLatchGuard bg(bucket.latch);
      for (LockHead* h = bucket.chain; h != nullptr; h = h->bucket_next) {
        if (h->waiter_count.load(std::memory_order_acquire) == 0) continue;
        SpinLatchGuard hg(h->latch);
        fn(h);
      }
    }
  }

  /// Number of live heads (O(buckets); for tests and stats).
  size_t CountHeads();

 private:
  /// Row-lock churn creates and retires heads constantly; a small per-bucket
  /// freelist keeps that traffic off the global allocator (and off its
  /// lock). Freelist links reuse `bucket_next`; both lists are protected by
  /// the bucket latch.
  static constexpr size_t kMaxFreePerBucket = 8;

  struct Bucket {
    SpinLatch latch;
    LockHead* chain = nullptr;
    LockHead* free_list = nullptr;
    uint32_t free_count = 0;
    /// Waiting/converting requests across all heads in this bucket
    /// (maintained latch-free via LockHead::bucket_waiters).
    std::atomic<uint32_t> waiters{0};
    /// Max LockHead::last_commit_lsn of every head retired from this
    /// bucket (bucket-latch protected). A freshly created head inherits
    /// it, so the ELR durability horizon survives row-head reclamation:
    /// without this, writer-commit → head reclaim → reader re-create
    /// would silently drop the reader's dependency. Bucket granularity
    /// over-approximates only when two heads share a bucket.
    uint64_t retired_dep = 0;
  };

  Bucket& BucketFor(const LockId& id) {
    return *buckets_[id.Hash() & bucket_mask_];
  }

  // Heap array (not vector): buckets contain latches and are immovable.
  std::unique_ptr<CacheAligned<Bucket>[]> buckets_;
  size_t bucket_mask_;
};

}  // namespace slidb
