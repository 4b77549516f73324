// Instrumented latches. Latches (not database locks) protect slidb's critical
// sections; per the paper (Section 2) the *contention* they cause is the
// scalability effect under study, so every latch reports whether an
// acquisition was contended and attributes the wasted cycles to the calling
// thread's active component via the ThreadProfile.
#pragma once

#include <atomic>
#include <cstdint>

#include "src/stats/profiler.h"
#include "src/util/cacheline.h"
#include "src/util/time_util.h"

namespace slidb {

namespace latch_internal {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Yield to the OS scheduler; declared out-of-line to keep <sched.h> out of
/// this header's includers.
void OsYield();

}  // namespace latch_internal

/// Test-and-test-and-set spinlock with bounded exponential backoff and OS
/// yield under heavy oversubscription. Acquire() reports contention so lock
/// heads can feed their hot-lock trackers.
class SpinLatch {
 public:
  SpinLatch() = default;
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

  /// Acquire the latch. Returns true iff the acquisition was contended
  /// (at least one failed attempt). Contended cycles are attributed to the
  /// calling thread's current component as contention.
  bool Acquire() {
    if (TryAcquire()) return false;
    const uint64_t start = RdCycles();
    SlowAcquire();
    const uint64_t end = RdCycles();
    if (ThreadProfile* p = ThreadProfile::Current()) {
      p->AttributeContention(start, end);
    }
    return true;
  }

  bool TryAcquire() {
    return !word_.exchange(1, std::memory_order_acquire);
  }

  void Release() { word_.store(0, std::memory_order_release); }

  bool IsHeld() const { return word_.load(std::memory_order_relaxed) != 0; }

 private:
  void SlowAcquire();

  std::atomic<uint32_t> word_{0};
};

/// RAII guard for SpinLatch. Exposes whether the acquisition was contended.
class SpinLatchGuard {
 public:
  explicit SpinLatchGuard(SpinLatch& latch) : latch_(&latch) {
    contended_ = latch_->Acquire();
  }
  ~SpinLatchGuard() { Unlock(); }

  SpinLatchGuard(const SpinLatchGuard&) = delete;
  SpinLatchGuard& operator=(const SpinLatchGuard&) = delete;

  bool contended() const { return contended_; }

  /// Early release (idempotent).
  void Unlock() {
    if (latch_ != nullptr) {
      latch_->Release();
      latch_ = nullptr;
    }
  }

 private:
  SpinLatch* latch_;
  bool contended_;
};

/// Optimistic version latch (optimistic lock coupling, Leis et al. style).
/// The 64-bit word packs [version | locked | obsolete]: bit 0 marks a node
/// retired from the structure, bit 1 is the writer lock, bits 2+ hold the
/// version, bumped by every WriteUnlock. Readers never store to the word:
/// they snapshot the version, read the protected fields, and re-validate —
/// a mismatch (or the obsolete bit) tells the caller to restart. This is
/// what makes a B-tree probe write-free on shared memory.
///
/// All *OrRestart calls report failure through `restart` (sticky: they only
/// ever set it); callers check after each step and unwind to their restart
/// point. The protocol:
///   readers:  v = ReadLockOrRestart(); ...read fields...; CheckOrRestart(v)
///   writers:  traverse as a reader, then UpgradeToWriteLockOrRestart(v) on
///             exactly the nodes they mutate; WriteUnlock() bumps the
///             version so concurrent readers fail validation and restart.
/// Retiring:  WriteUnlockObsolete() — readers restart instead of revisiting;
///            free the memory via epoch-deferred reclamation (util/epoch.h),
///            never immediately, as optimistic readers may still be inside.
class OptLatch {
 public:
  static constexpr uint64_t kObsoleteBit = 1;
  static constexpr uint64_t kLockedBit = 2;
  static constexpr uint64_t kVersionOne = 4;  ///< +1 in the version field

  OptLatch() = default;
  OptLatch(const OptLatch&) = delete;
  OptLatch& operator=(const OptLatch&) = delete;

  /// Snapshot a stable (unlocked) version; spins while a writer holds the
  /// word. Sets `restart` if the node is obsolete.
  uint64_t ReadLockOrRestart(bool* restart) const {
    uint64_t v = word_.load(std::memory_order_acquire);
    if (v & kLockedBit) v = AwaitUnlocked();
    if (v & kObsoleteBit) *restart = true;
    return v;
  }

  /// Validate that the word is still exactly `v` — no writer locked or
  /// retired the node since the snapshot. The acquire fence orders the
  /// caller's preceding field reads before the re-read (seqlock pattern),
  /// so a successful check proves those reads saw a consistent node.
  void CheckOrRestart(uint64_t v, bool* restart) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    if (word_.load(std::memory_order_relaxed) != v) *restart = true;
  }

  /// Atomically trade a validated read snapshot for the write lock. Fails
  /// (and sets `restart`) if the version moved since the snapshot.
  void UpgradeToWriteLockOrRestart(uint64_t v, bool* restart) {
    uint64_t expected = v;
    if (!word_.compare_exchange_strong(expected, v + kLockedBit,
                                       std::memory_order_acq_rel)) {
      *restart = true;
    }
  }

  /// Acquire the write lock with no prior snapshot (spins through other
  /// writers). Sets `restart` only if the node is obsolete.
  void WriteLockOrRestart(bool* restart) {
    for (;;) {
      uint64_t v = word_.load(std::memory_order_acquire);
      if (v & kLockedBit) v = AwaitUnlocked();
      if (v & kObsoleteBit) {
        *restart = true;
        return;
      }
      if (word_.compare_exchange_weak(v, v + kLockedBit,
                                      std::memory_order_acq_rel)) {
        return;
      }
    }
  }

  /// Release the write lock, bumping the version: adding kLockedBit to a
  /// locked word carries out of the lock bit into the version field.
  void WriteUnlock() { word_.fetch_add(kLockedBit, std::memory_order_release); }

  /// Release and mark obsolete (node leaving the structure) in one step.
  void WriteUnlockObsolete() {
    word_.fetch_add(kLockedBit | kObsoleteBit, std::memory_order_release);
  }

  bool IsLocked() const {
    return (word_.load(std::memory_order_relaxed) & kLockedBit) != 0;
  }
  bool IsObsolete() const {
    return (word_.load(std::memory_order_relaxed) & kObsoleteBit) != 0;
  }

 private:
  /// Spin until the lock bit clears; attributes the wait as contention.
  uint64_t AwaitUnlocked() const;

  std::atomic<uint64_t> word_{kVersionOne};
};

/// Reader-writer spin latch. state > 0: reader count; state == -1: writer.
/// No writer preference (documented trade-off; B-tree traffic in slidb is
/// read-mostly and short).
class RwLatch {
 public:
  RwLatch() = default;
  RwLatch(const RwLatch&) = delete;
  RwLatch& operator=(const RwLatch&) = delete;

  /// Returns true iff contended.
  bool AcquireShared();
  bool AcquireExclusive();
  bool TryAcquireShared();
  bool TryAcquireExclusive();
  void ReleaseShared() { state_.fetch_sub(1, std::memory_order_release); }
  void ReleaseExclusive() { state_.store(0, std::memory_order_release); }

 private:
  std::atomic<int32_t> state_{0};
};

}  // namespace slidb
