#include "src/lock/lock_table.h"

#include <bit>
#include <cassert>

namespace slidb {

namespace {

/// Scrub a freelist head back to fresh-construction state. Runs under the
/// bucket latch with no pins outstanding, so plain stores are safe. The
/// bucket_waiters pointer is left as-is: freelists are per-bucket, so it
/// already points at the right aggregate (and contributed zero when the
/// head was retired).
void ResetHead(LockHead* h, const LockId& id, uint64_t retired_dep) {
  // A row head is reclaimed whenever its queue drains, which a hot row's
  // does between holders; its hold estimate survives when the same lock
  // takes the head back (the bucket freelist is LIFO).
  if (!(h->id == id)) h->hold_cycles = 0;
  h->id = id;
  for (size_t i = 0; i < kNumLockModes; ++i) h->granted_counts[i] = 0;
  h->granted_mask = 0;
  h->queue_len = 0;
  h->waiter_count.store(0, std::memory_order_relaxed);
  h->waiter_hint = nullptr;
  h->converting_count = 0;
  h->inherited_hint.store(0, std::memory_order_relaxed);
  h->hot.Clear();
  h->q_head = h->q_tail = nullptr;
  h->pin_count.store(1, std::memory_order_relaxed);
  h->bucket_next = nullptr;
  // Not scrubbed to zero: a fresh identity must inherit the bucket's
  // retired dependency horizon (see Bucket::retired_dep).
  h->last_commit_lsn.store(retired_dep, std::memory_order_relaxed);
  h->last_ix_commit_lsn.store(0, std::memory_order_relaxed);
}

}  // namespace

LockTable::LockTable(size_t num_buckets) {
  if (num_buckets < 2) num_buckets = 2;
  num_buckets = std::bit_ceil(num_buckets);
  buckets_ = std::make_unique<CacheAligned<Bucket>[]>(num_buckets);
  bucket_mask_ = num_buckets - 1;
}

LockTable::~LockTable() {
  for (size_t i = 0; i <= bucket_mask_; ++i) {
    for (LockHead* h = buckets_[i]->chain; h != nullptr;) {
      LockHead* next = h->bucket_next;
      delete h;
      h = next;
    }
    for (LockHead* h = buckets_[i]->free_list; h != nullptr;) {
      LockHead* next = h->bucket_next;
      delete h;
      h = next;
    }
  }
}

LockHead* LockTable::FindOrCreate(const LockId& id) {
  Bucket& bucket = BucketFor(id);
  SpinLatchGuard g(bucket.latch);
  for (LockHead* h = bucket.chain; h != nullptr; h = h->bucket_next) {
    if (h->id == id) {
      h->pin_count.fetch_add(1, std::memory_order_acq_rel);
      return h;
    }
  }
  LockHead* h;
  if (bucket.free_list != nullptr) {
    h = bucket.free_list;
    bucket.free_list = h->bucket_next;
    --bucket.free_count;
    ResetHead(h, id, bucket.retired_dep);
  } else {
    h = new LockHead();
    h->id = id;
    h->pin_count.store(1, std::memory_order_relaxed);
    h->bucket_waiters = &bucket.waiters;
    h->last_commit_lsn.store(bucket.retired_dep, std::memory_order_relaxed);
  }
  h->bucket_next = bucket.chain;
  bucket.chain = h;
  return h;
}

void LockTable::TryReclaim(const LockId& id) {
  Bucket& bucket = BucketFor(id);
  SpinLatchGuard g(bucket.latch);
  LockHead* prev = nullptr;
  for (LockHead* h = bucket.chain; h != nullptr; prev = h, h = h->bucket_next) {
    if (!(h->id == id)) continue;
    // The bucket latch blocks new pins (FindOrCreate), so a zero pin count
    // is stable here, and an empty queue with no pins means no references.
    if (h->pin_count.load(std::memory_order_acquire) != 0) return;
    {
      SpinLatchGuard hg(h->latch);
      if (!h->QueueEmpty()) return;
    }
    if (prev != nullptr) {
      prev->bucket_next = h->bucket_next;
    } else {
      bucket.chain = h->bucket_next;
    }
    // Fold the dying identity's durability horizon into the bucket before
    // the head (or its stamp) is recycled. Stable read: the queue is empty
    // and unpinned, so no stamping can race.
    const uint64_t stamp = h->last_commit_lsn.load(std::memory_order_relaxed);
    if (stamp > bucket.retired_dep) bucket.retired_dep = stamp;
    // The IX stamp is not folded: only row heads are reclaimed
    // (LockManager::ReleaseOne), and rows never hold IX.
    assert(h->last_ix_commit_lsn.load(std::memory_order_relaxed) == 0);
    if (bucket.free_count < kMaxFreePerBucket) {
      h->bucket_next = bucket.free_list;
      bucket.free_list = h;
      ++bucket.free_count;
    } else {
      delete h;
    }
    return;
  }
}

size_t LockTable::CountHeads() {
  size_t count = 0;
  for (size_t i = 0; i <= bucket_mask_; ++i) {
    SpinLatchGuard g(buckets_[i]->latch);
    for (LockHead* h = buckets_[i]->chain; h != nullptr;
         h = h->bucket_next) {
      ++count;
    }
  }
  return count;
}

}  // namespace slidb
