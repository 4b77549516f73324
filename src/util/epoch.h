// Epoch-based deferred reclamation for optimistically-read structures.
//
// Optimistic readers (util/latch.h OptLatch) hold no latch while inside a
// node, so a writer that unlinks the node cannot free it immediately: a
// reader that loaded the pointer before the unlink may still be
// dereferencing the memory (it will fail version validation and restart,
// but only after touching the bytes). Writers therefore Retire() unlinked
// nodes; the manager frees a retiree only once every thread active at
// retirement time has since left its read-side critical section.
//
// Protocol: each operation on a protected structure runs inside an
// EpochManager::Guard, which announces the thread's entry epoch in a
// per-thread slot. Retire() tags the node with the then-current global
// epoch and advances it; a retiree is freed when every announced slot
// epoch is strictly newer than the tag. Announcing a newer epoch means the
// thread's guard began by reading a global-epoch value published *after*
// the unlink (the retire-time fetch_add orders them), so that thread can
// no longer hold a path to the node.
//
// Guards nest (a scan callback may re-enter another tree) and cost two
// uncontended writes to the thread's own cache line — nothing shared — so
// the read path stays write-free on shared memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/util/cacheline.h"
#include "src/util/latch.h"

namespace slidb {

class EpochManager {
 public:
  /// Hard cap on concurrently-registered threads (slot registry size).
  /// Exceeding it aborts with a diagnostic; agent and test thread counts
  /// in this codebase stay far below.
  static constexpr size_t kMaxThreads = 256;

  /// Free a retiree once at least this many are pending (amortizes the
  /// slot scan).
  static constexpr size_t kReclaimBatch = 32;

  EpochManager();
  /// Frees everything still pending. Callers must guarantee no guard is
  /// active and no further Retire() will run (structure teardown time).
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII read-side critical section. Cheap, nestable, thread-safe.
  class Guard {
   public:
    explicit Guard(EpochManager& mgr) : mgr_(&mgr), slot_(ThreadSlot()) {
      mgr_->Enter(slot_);
    }
    ~Guard() { mgr_->Exit(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager* mgr_;
    size_t slot_;
  };

  /// Defer `deleter(ptr)` until all read-side critical sections that could
  /// have observed `ptr` have exited. Call *after* unlinking `ptr` from the
  /// structure. May reclaim other pending retirees inline.
  void Retire(void* ptr, void (*deleter)(void*));

  /// Free every pending retiree whose grace period has elapsed. Safe to
  /// call concurrently with guards and retires. Returns the number freed.
  size_t ReclaimSome();

  /// Retirees not yet freed (approximate under concurrency; exact when
  /// quiesced).
  size_t pending() const { return pending_.load(std::memory_order_acquire); }
  uint64_t total_retired() const {
    return total_retired_.load(std::memory_order_relaxed);
  }
  uint64_t total_freed() const {
    return total_freed_.load(std::memory_order_relaxed);
  }

  /// Process-wide manager shared by all B-trees: one epoch domain, one
  /// slot announcement per thread per operation regardless of tree count.
  static EpochManager& Global();

  /// Stable per-thread slot index in [0, kMaxThreads), claimed on first use
  /// and recycled at thread exit (exposed for tests).
  static size_t ThreadSlot();

 private:
  struct alignas(kCacheLineSize) Slot {
    /// Entry epoch of the thread owning this slot; kIdleEpoch outside any
    /// guard.
    std::atomic<uint64_t> epoch{UINT64_MAX};
    /// Guard nesting depth; owner-thread only (slot handoff between
    /// threads is ordered by the registry's atomics).
    uint32_t depth = 0;
  };

  struct Retiree {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;  ///< global epoch at retire time
    Retiree* next;
  };

  static constexpr uint64_t kIdleEpoch = UINT64_MAX;

  void Enter(size_t slot);
  void Exit(size_t slot);
  /// Oldest epoch announced by any in-guard thread; kIdleEpoch when none.
  uint64_t MinActiveEpoch() const;

  std::atomic<uint64_t> global_epoch_{1};
  std::unique_ptr<Slot[]> slots_;

  SpinLatch retire_latch_;          ///< protects the retiree list
  Retiree* retired_head_ = nullptr;
  std::atomic<size_t> pending_{0};
  std::atomic<uint64_t> total_retired_{0};
  std::atomic<uint64_t> total_freed_{0};
};

}  // namespace slidb
