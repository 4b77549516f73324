// Write-ahead log with a decentralized commit pipeline.
//
// Append path: writers claim log space with a single atomic fetch-add on a
// packed (record-seq, byte-offset) ticket — no latch — fill their bytes in
// the ring, then publish the record through a per-slot "filled" watermark.
//
// Commit path (leader/follower group commit): a committer whose LSN is not
// yet durable takes the *flush role* and runs a *pass* itself — advance the
// watermark, harden [durable, watermark) through `flush_sink` (plus any
// simulated device latency), publish the durable LSN, settle the parked
// acks it covered. A committer that finds the role taken parks a
// DeferredAck (commit_dependency.h), which the pass settles or promotes to
// lead the next pass; every durability wait goes through that one ack. A
// background flusher runs the same pass on a timer, only for what nobody
// waits on: speculative acks, ring backpressure and the tail.
//
// Record format: log_record.h. Attach a LogDevice (log_device.h) as the
// `flush_sink` for a durable stream that RecoveryManager (recovery.h) can
// replay after a crash.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "src/log/commit_dependency.h"
#include "src/log/log_record.h"
#include "src/log/log_staging.h"
#include "src/util/cacheline.h"
#include "src/util/latch.h"
#include "src/util/status.h"

namespace slidb {

struct LogOptions {
  size_t buffer_bytes = 8u << 20;
  /// Cadence of the background flusher's pass while it finds work; an idle
  /// flusher doubles its wait up to a fixed cap. No synchronous commit
  /// waits on it.
  uint64_t flush_interval_us = 50;
  /// Per-flush simulated device latency (the paper charges 6 ms per I/O for
  /// data pages; log devices are faster — default 0, configurable).
  uint64_t simulated_io_delay_us = 0;

  /// Bound on reserved-but-unconsumed records in flight (rounded up to a
  /// power of two, clamped to [2, 2^19] — strictly below the 2^20 seq-tag
  /// space so slot tags stay unambiguous). Sizes the publish-slot array; a
  /// writer whose slot is still occupied helps consume the publish queue
  /// and otherwise waits (slot backpressure). 0 = auto: scale with the
  /// ring (buffer_bytes / 128) so the in-flight runway covers a scheduler
  /// quantum even when one writer is preempted mid-fill.
  size_t reservation_slots = 0;

  /// Device-write hook: each pass calls it for each contiguous byte range
  /// as the range becomes durable (ring wrap may split one flush into two
  /// calls; `start_lsn` is the log offset of `data[0]`). It gates
  /// durability: the durable LSN only advances after the sink returns.
  /// DatabaseOptions::log_path installs a SegmentedLogDevice here, whose
  /// Append syncs the range before it returns; tests install capture and
  /// crash sinks to verify the exact durable byte stream.
  /// Called by the flush-role holder (a committing agent or the background
  /// flusher) with no internal locks held. Calls never overlap, and each
  /// hand-over of the role is a release/acquire edge.
  std::function<void(const uint8_t* data, size_t len, Lsn start_lsn)>
      flush_sink;
};

/// Statistics snapshot.
struct LogStats {
  uint64_t appended_bytes = 0;  ///< published (contiguously filled) bytes
  uint64_t reserved_bytes = 0;  ///< claimed bytes, filled or not
  uint64_t records = 0;
  uint64_t flushes = 0;
};

class LogManager {
 public:
  explicit LogManager(LogOptions options = {});
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Append one record; returns its end LSN. May block (ring-space or
  /// publish-slot backpressure) until a pass frees space.
  Lsn Append(uint64_t txn_id, LogRecordType type, const void* payload,
             uint32_t payload_len);

  /// Publish every record staged in `staging` since the previous call;
  /// returns the batch's end LSN (the end of its last record). The buffer
  /// keeps the records (a transaction's undo log) until its owner clears
  /// it. The whole batch costs ONE ticket fetch-add and one publish-slot
  /// handoff (it may split into a few reservations only when it exceeds
  /// half the ring), and each record is sealed on its own, as Append seals
  /// one. Record order within the batch is preserved; with nothing new
  /// staged it publishes nothing and returns appended_lsn().
  Lsn AppendBatch(LogStagingBuffer* staging);

  /// Block until everything up to `lsn` is durable (group commit), through
  /// a stack-local ack: WaitDurable(&ack, 0).
  void WaitDurable(Lsn lsn);

  /// Wait until `ack->lsn` (filled by the caller, with `park_ns`) is
  /// durable. The caller leads a pass when the flush role is free, and
  /// otherwise parks `ack` for the running pass to settle or to promote it
  /// to lead the next one. With a deadline (absolute, NowNanos clock; 0 =
  /// none) the caller leads only when the measured pass time fits its
  /// remaining budget, and waits at the latest until the deadline: then it
  /// returns false with `ack` still parked, to settle like a speculative
  /// ack — so a deadline wait needs a ring-owned ack (DeferredAckRing).
  /// Returns true with `ack` in a terminal state otherwise.
  bool WaitDurable(DeferredAck* ack, uint64_t deadline_ns);

  /// Asynchronous alternative to WaitDurable (speculative commits): park
  /// `ack` — its `lsn` and `park_ns` already filled by the caller — on the
  /// ack queue and return immediately. The pass that makes its LSN durable
  /// settles it (kParked -> kDurable), or shutdown settles it as kLost if
  /// the horizon never hardens. Fast path: when the LSN is already durable
  /// the ack settles inline as kDurable and this returns false — nothing
  /// was parked. The node must stay alive until it reaches a terminal
  /// state; DeferredAckRing provides that lifetime.
  bool ParkDeferred(DeferredAck* ack);

  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }
  /// End of the contiguously *published* prefix (every record below it is
  /// completely filled; a pass may harden up to here).
  Lsn appended_lsn() const {
    return watermark_.load(std::memory_order_acquire);
  }
  /// End of the *reserved* prefix (claimed by writers, possibly still being
  /// filled). reserved_lsn() >= appended_lsn() >= durable_lsn().
  Lsn reserved_lsn() const;

  LogStats Stats() const;

 private:
  // Reservation ticket layout: low kSeqShift bits = byte offset (16 TB of
  // log — the documented capacity limit), high 20 bits = record sequence
  // number. One fetch-add claims both, so slot order always equals LSN
  // order. The sequence number wraps modulo 2^20; all tag comparisons are
  // therefore performed in that modular space (kSeqMask), which is
  // unambiguous because at most `reservation_slots` (< 2^20 by the ctor
  // clamp, in practice a live thread each) appends are ever in flight
  // between two uses of the same residue.
  static constexpr int kSeqShift = 44;
  static constexpr uint64_t kOffsetMask = (uint64_t{1} << kSeqShift) - 1;
  static constexpr uint64_t kSeqMask = (uint64_t{1} << (64 - kSeqShift)) - 1;

  /// One publish slot (bounded-MPMC style). `tag` sequences ownership in
  /// modular seq space: a writer with record seq `s` may fill the slot only
  /// when tag == s (stores tag = s + 1 after writing `end`); the consumer
  /// (a pass, or a writer helping from backpressure) consumes when
  /// tag == s + 1 and re-arms with tag = s + slots,
  /// readmitting the writer of the next round. The tag's release/acquire
  /// pairs order the plain `end` field and the ring bytes.
  ///
  /// Cache-line aligned: adjacent record sequences map to adjacent slots,
  /// so unpadded slots (4 per line) put concurrent publishers on the same
  /// line — false sharing on real SMP. The slot array stays bounded via
  /// `reservation_slots` (auto-scale buffer/128, hard clamp 2^19 → at most
  /// 32 MB of slots for the largest admissible ring).
  struct alignas(kCacheLineSize) PublishSlot {
    std::atomic<uint64_t> tag{0};
    uint64_t end = 0;
  };

  /// Claim `total` bytes and their publish slot (sequence in `*seq`),
  /// waiting out ring-space and slot backpressure; returns the start LSN.
  Lsn Reserve(size_t total, uint64_t* seq);
  /// Publish a filled reservation ending at `end`; returns `end`.
  Lsn Publish(uint64_t seq, Lsn end, uint64_t records);
  /// Seal one record into the ring at `at`, the only way a record gets
  /// there: write the lsn into the unsealed header at `hdr` (in place, so a
  /// staged header comes out sealed), checksum the header tail, fold the
  /// payload's CRC into its ring copy, then copy the header. Returns the
  /// record's wire bytes.
  size_t SealIntoRing(uint8_t* hdr, const void* payload, Lsn at);
  void CopyIntoRing(Lsn at, const void* src, size_t len);
  /// CopyIntoRing fused with a CRC32C extension over the copied bytes.
  uint32_t CopyIntoRingCrc(Lsn at, const void* src, size_t len, uint32_t crc);
  /// One backpressure pause: kick the flusher, yield, charge blocked time.
  void BackpressurePause();

  void FlusherLoop();
  /// Wake the background flusher for work nobody waits on.
  void KickFlusher();
  /// Consume contiguously published slots and advance `watermark_`.
  /// Returns true iff it advanced. Caller must hold `publish_latch_`.
  bool AdvanceWatermarkLocked();
  /// AdvanceWatermarkLocked unless another thread is consuming; true only
  /// when the watermark moved. Writers call it from slot backpressure
  /// (cooperative publish), so publication never waits for a pass.
  bool TryAdvanceWatermark();
  void EmitToSink(Lsn from, Lsn to);

  /// Settle `ack` as kDurable now if its LSN is already durable.
  bool SettledInline(DeferredAck* ack);

  // ---- the flush role (role holder only, except the first two) ----
  bool TryTakeRole();
  /// Push `ack` onto the ack queue as `state`; seq_cst, to pair with the
  /// queue re-check in HandOffRole.
  void Enqueue(DeferredAck* ack, uint32_t state);
  /// Accumulate (committers only), pass, settle, hand off.
  void LeadPass(bool committer);
  /// Harden [durable, watermark); false when there was nothing to harden.
  bool RunPass();
  void AbsorbIncoming();  ///< incoming_ -> pending_, folding gap samples
  void FoldGap(uint64_t gap_cycles);
  /// Settle the pending acks the durable LSN covers (with `shutdown`, the
  /// rest as kLost); returns how many waiting owners it saw.
  uint32_t SettleAcks(bool shutdown);
  /// Promote a waiting owner the last pass left uncovered, or release.
  void HandOffRole();

  LogOptions options_;
  size_t slot_mask_ = 0;
  std::unique_ptr<uint8_t[]> ring_;
  /// Publish slots, indexed by record seq & slot_mask_ (see PublishSlot).
  std::unique_ptr<PublishSlot[]> slots_;

  std::atomic<uint64_t> ticket_{0};
  std::atomic<Lsn> watermark_{0};
  std::atomic<Lsn> durable_lsn_{0};
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> flushes_{0};

  /// Taken with an acquire exchange; released with a seq_cst store or
  /// handed to a promoted owner by the kLead store.
  std::atomic<bool> role_{false};
  /// Ack queue: a Treiber stack any thread pushes onto, folded into the
  /// role holder's private list.
  std::atomic<DeferredAck*> incoming_{nullptr};
  DeferredAck* pending_ = nullptr;
  /// Accumulation rule, in RdCycles: a pass's device leg (atomic: deadline
  /// waiters read it), committers' time between commits, and how many
  /// committers the last pass saw waiting.
  std::atomic<uint64_t> pass_cycles_{0};
  uint64_t gap_cycles_ = 0;
  uint32_t cohort_ = 0;

  /// Serializes the consumer role (watermark advance). Held briefly by each
  /// pass and by writers helping from slot backpressure.
  SpinLatch publish_latch_;
  uint64_t next_seq_ = 0;  ///< protected by publish_latch_

  std::mutex flush_mu_;
  std::condition_variable flush_cv_;  // waking the background flusher
  /// Set by KickFlusher, taken by the flusher: a kick whose notify lands
  /// outside the flusher's wait still counts at its next wake-up.
  std::atomic<bool> kicked_{false};
  bool stop_ = false;
  std::thread flusher_;
};

}  // namespace slidb
