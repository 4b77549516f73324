#include "src/buffer/buffer_pool.h"

#include <cassert>

#include "src/stats/profiler.h"
#include "src/util/time_util.h"

namespace slidb {

namespace {
/// Page-table shards (a power of two): one spin latch and hash map each.
constexpr size_t kTableShards = 64;
}  // namespace

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) pool_->frames_[frame_idx_].dirty = true;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unfix(frame_idx_, exclusive_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

BufferPool::BufferPool(Volume* volume, BufferPoolOptions options)
    : volume_(volume), options_(options) {
  num_frames_ = options_.num_frames < 8 ? 8 : options_.num_frames;
  frames_ = std::make_unique<Frame[]>(num_frames_);
  pages_ = std::make_unique<Page[]>(num_frames_);
  shards_ = std::make_unique<CacheAligned<Shard>[]>(kTableShards);
  shard_mask_ = kTableShards - 1;
}

BufferPool::~BufferPool() { FlushAll(); }

void BufferPool::ChargeIoDelay() {
  if (options_.simulated_io_delay_us == 0) return;
  ScopedComponent comp(Component::kBuffer);
  const uint64_t t0 = RdCycles();
  SpinForNanos(options_.simulated_io_delay_us * 1000);
  if (ThreadProfile* p = ThreadProfile::Current()) {
    p->AttributeBlocked(t0, RdCycles());
  }
}

Status BufferPool::FixPage(const PageId& id, bool exclusive, PageGuard* out) {
  ScopedComponent comp(Component::kBuffer);
  fixes_.fetch_add(1, std::memory_order_relaxed);

  for (;;) {
    // Fast path: present in the shard map.
    {
      Shard& shard = ShardFor(id);
      SpinLatchGuard g(shard.latch);
      auto it = shard.map.find(id);
      if (it != shard.map.end()) {
        Frame& f = frames_[it->second];
        f.pins.fetch_add(1, std::memory_order_acq_rel);
        f.ref.store(true, std::memory_order_relaxed);
        const size_t idx = it->second;
        g.Unlock();
        if (exclusive) {
          f.content_latch.AcquireExclusive();
        } else {
          f.content_latch.AcquireShared();
        }
        *out = PageGuard(this, idx, &pages_[idx], exclusive);
        return Status::OK();
      }
    }

    // Miss path: bring the page in. One allocator at a time.
    misses_.fetch_add(1, std::memory_order_relaxed);
    SpinLatchGuard alloc(alloc_latch_);
    // Re-check: another thread may have brought it in while we waited.
    {
      Shard& shard = ShardFor(id);
      SpinLatchGuard g(shard.latch);
      if (shard.map.contains(id)) continue;  // retry fast path
    }

    const size_t idx = AllocFrame();
    Frame& f = frames_[idx];

    // Read the page from the volume, paying the simulated seek.
    ChargeIoDelay();
    const Status st = volume_->ReadPage(id, &pages_[idx]);
    if (!st.ok()) {
      // Return the frame as free (valid=false, not in any map).
      return st;
    }

    f.id = id;
    f.dirty = false;
    f.valid = true;
    f.pins.store(1, std::memory_order_release);
    f.ref.store(true, std::memory_order_relaxed);
    {
      Shard& shard = ShardFor(id);
      SpinLatchGuard g(shard.latch);
      shard.map.emplace(id, idx);
    }
    alloc.Unlock();

    if (exclusive) {
      f.content_latch.AcquireExclusive();
    } else {
      f.content_latch.AcquireShared();
    }
    *out = PageGuard(this, idx, &pages_[idx], exclusive);
    return Status::OK();
  }
}

size_t BufferPool::AllocFrame() {
  // Caller holds alloc_latch_.
  if (frames_used_ < num_frames_) {
    return frames_used_++;
  }
  // Clock sweep for an unpinned victim.
  for (size_t scanned = 0; scanned < num_frames_ * 3; ++scanned) {
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % num_frames_;
    Frame& f = frames_[idx];
    if (f.pins.load(std::memory_order_acquire) != 0) continue;
    if (f.ref.exchange(false, std::memory_order_acq_rel)) continue;

    // Candidate: remove from its shard so no new pins can arrive, then
    // re-verify the pin count (a pin could have landed before removal).
    Shard& shard = ShardFor(f.id);
    {
      SpinLatchGuard g(shard.latch);
      if (f.pins.load(std::memory_order_acquire) != 0) continue;
      if (!f.valid) continue;
      shard.map.erase(f.id);
      f.valid = false;
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (f.dirty) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      ChargeIoDelay();
      volume_->WritePage(f.id, pages_[idx]);
      f.dirty = false;
    }
    return idx;
  }
  // Every frame pinned: pathological configuration (pool far too small).
  // Spin-wait for a pin to drop rather than deadlocking.
  for (;;) {
    for (size_t idx = 0; idx < num_frames_; ++idx) {
      Frame& f = frames_[idx];
      if (f.pins.load(std::memory_order_acquire) != 0) continue;
      Shard& shard = ShardFor(f.id);
      SpinLatchGuard g(shard.latch);
      if (f.pins.load(std::memory_order_acquire) != 0 || !f.valid) continue;
      shard.map.erase(f.id);
      f.valid = false;
      g.Unlock();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (f.dirty) {
        writebacks_.fetch_add(1, std::memory_order_relaxed);
        ChargeIoDelay();
        volume_->WritePage(f.id, pages_[idx]);
        f.dirty = false;
      }
      return idx;
    }
  }
}

Status BufferPool::NewPage(uint32_t file_id, PageId* id, PageGuard* out) {
  const uint64_t page_no = volume_->AllocatePage(file_id);
  id->file_id = file_id;
  id->page_no = page_no;
  return FixPage(*id, /*exclusive=*/true, out);
}

void BufferPool::Unfix(size_t frame_idx, bool exclusive) {
  Frame& f = frames_[frame_idx];
  if (exclusive) {
    f.content_latch.ReleaseExclusive();
  } else {
    f.content_latch.ReleaseShared();
  }
  f.pins.fetch_sub(1, std::memory_order_acq_rel);
}

void BufferPool::FlushAll() {
  SpinLatchGuard alloc(alloc_latch_);
  for (size_t idx = 0; idx < frames_used_; ++idx) {
    Frame& f = frames_[idx];
    if (!f.valid || !f.dirty) continue;
    f.content_latch.AcquireShared();
    volume_->WritePage(f.id, pages_[idx]);
    f.dirty = false;
    f.content_latch.ReleaseShared();
    writebacks_.fetch_add(1, std::memory_order_relaxed);
  }
}

BufferPoolStats BufferPool::Stats() const {
  BufferPoolStats s;
  s.fixes = fixes_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.writebacks = writebacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace slidb
