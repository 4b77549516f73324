// Buffer pool: fixed frame set over the Volume with clock eviction, pin
// counts, per-frame reader/writer content latches, and the paper's
// simulated per-I/O latency charged on misses and write-backs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/buffer/page.h"
#include "src/buffer/volume.h"
#include "src/util/cacheline.h"
#include "src/util/latch.h"
#include "src/util/status.h"

namespace slidb {

struct BufferPoolOptions {
  size_t num_frames = 1u << 16;  ///< 64k frames = 512 MB default
  /// Charged once per volume read (miss) and once per write-back. The paper
  /// uses 6 ms to emulate a seek-bound disk array; default 0 keeps unit
  /// tests fast.
  uint64_t simulated_io_delay_us = 0;
};

struct BufferPoolStats {
  uint64_t fixes = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

class BufferPool;

/// RAII handle to a fixed page. Movable, not copyable. Releasing unfixes
/// (unpins + releases the content latch).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_idx, Page* page, bool exclusive)
      : pool_(pool), frame_idx_(frame_idx), page_(page), exclusive_(exclusive) {}
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    Release();
    pool_ = o.pool_;
    frame_idx_ = o.frame_idx_;
    page_ = o.page_;
    exclusive_ = o.exclusive_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return page_ != nullptr; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }

  /// Mark the page dirty (caller must hold it exclusively).
  void MarkDirty();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
  Page* page_ = nullptr;
  bool exclusive_ = false;
};

class BufferPool {
 public:
  BufferPool(Volume* volume, BufferPoolOptions options = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fix (pin + latch) a page. `exclusive` takes the content latch in write
  /// mode. Returns an invalid guard on error (bad page id).
  Status FixPage(const PageId& id, bool exclusive, PageGuard* out);

  /// Allocate a fresh page in `file_id` (via the volume), fix it
  /// exclusively and return both the id and the guard.
  Status NewPage(uint32_t file_id, PageId* id, PageGuard* out);

  /// Flush all dirty pages to the volume (test/shutdown aid).
  void FlushAll();

  BufferPoolStats Stats() const;
  Volume* volume() { return volume_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId id;
    RwLatch content_latch;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> ref{false};
    bool valid = false;  // shard-latch protected
    bool dirty = false;  // content-latch protected
  };

  struct Shard {
    SpinLatch latch;
    std::unordered_map<PageId, size_t> map;  // PageId -> frame index
  };

  Shard& ShardFor(const PageId& id) {
    return *shards_[id.Hash() & shard_mask_];
  }

  void Unfix(size_t frame_idx, bool exclusive);

  /// Find a victim frame with pins == 0, remove it from its shard, write it
  /// back if dirty. Returns frame index. Caller holds alloc_latch_.
  size_t AllocFrame();

  void ChargeIoDelay();

  Volume* volume_;
  BufferPoolOptions options_;

  std::unique_ptr<Frame[]> frames_;
  std::unique_ptr<Page[]> pages_;
  size_t num_frames_;

  std::unique_ptr<CacheAligned<Shard>[]> shards_;
  size_t shard_mask_;

  SpinLatch alloc_latch_;
  size_t frames_used_ = 0;  // alloc-latch protected
  size_t clock_hand_ = 0;   // alloc-latch protected

  std::atomic<uint64_t> fixes_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> writebacks_{0};
};

}  // namespace slidb
