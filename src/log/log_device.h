// Log devices: the durable end of the WAL. Log passes — run by whichever
// thread holds the flush role, one at a time — hand contiguous, LSN-ordered
// byte ranges to LogOptions::flush_sink; a LogDevice is the object behind
// that seam that actually persists them. Two implementations:
//
//   * SegmentedLogDevice — the one on-disk device: fixed-size segment files
//     under a path prefix (DatabaseOptions::log_path), rotated write-new-
//     then-rename with parent-directory fsync, organized into GENERATIONS
//     (one per process lifetime of the log stream). Recovery stitches a
//     generation's segments by header metadata, and completed checkpoints
//     let old segments be recycled (unlinked), so log storage is bounded by
//     checkpoint cadence instead of history.
//   * InMemoryLogDevice — a deterministic byte vector with crash injection
//     (stop accepting bytes at an arbitrary point, emulating power loss mid
//     device write). The recovery test harness and benches build on it.
//
// Durability contract: Append returns only once its bytes are durable
// (SegmentedLogDevice fsyncs every append), so flush_sink blocks the pass
// until the range is durable, and the LogManager advances durable_lsn only
// after the sink returns — a committer released by WaitDurable knows its
// bytes reached the device (or the device lied, which is what the crash
// tests emulate).
//
// Fail-stop contract: a REPORTED write/fsync/close failure poisons the
// device — every later Append fails too, and the flush_sink adapter aborts
// the process. Acking durability past a failed write would be silent,
// unbounded loss; the classic WAL answer is to panic (see AttachLogDevice).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/log/log_record.h"
#include "src/util/status.h"

namespace slidb {

struct LogOptions;  // log_manager.h

class LogDevice {
 public:
  virtual ~LogDevice() = default;

  /// Persist `len` bytes whose first byte is log offset `lsn`: contiguous,
  /// strictly increasing ranges, from the flush-role holder, never
  /// overlapping. Must not return before the bytes are durable (or dropped).
  virtual Status Append(const uint8_t* data, size_t len, Lsn lsn) = 0;

  /// Bytes durably stored (the length of the valid-until-torn prefix a
  /// recovery scan will see). This is an END offset: with recycling the
  /// stream starts at base_lsn(), not 0.
  virtual uint64_t DurableBytes() const = 0;

  /// Read the durable stream back for recovery. The first byte of `out`
  /// sits at log offset base_lsn().
  virtual Status ReadAll(std::vector<uint8_t>* out) const = 0;

  /// Log offset of the first byte ReadAll returns (nonzero once segments
  /// below a completed checkpoint were recycled).
  virtual Lsn base_lsn() const { return 0; }

  /// The caller (checkpointer) guarantees no future recovery will read
  /// below `lsn` — storage for earlier bytes may be reclaimed. Default:
  /// keep everything.
  virtual void RecycleBelow(Lsn lsn) { (void)lsn; }
};

/// Test seam: make the next `count` fsync calls issued by SegmentedLogDevice
/// report failure (as if the disk died), without touching the real file.
/// Process-global; pass 0 to disarm. Returns the previous value.
int SetLogSyncFailureInjection(int count);

/// Deterministic in-memory device with crash injection. Thread-safe; log
/// passes write while test threads arm crashes and read the stream back.
class InMemoryLogDevice : public LogDevice {
 public:
  Status Append(const uint8_t* data, size_t len, Lsn lsn) override;
  uint64_t DurableBytes() const override;
  Status ReadAll(std::vector<uint8_t>* out) const override;

  /// Crash after `extra_bytes` more bytes are accepted: the write in flight
  /// at that point is torn mid-record and everything later is dropped on
  /// the floor, exactly like power loss during a device DMA.
  void CrashAfter(uint64_t extra_bytes);

  /// True once a crash point has been hit (some write was cut short).
  bool crashed() const;

 private:
  mutable std::mutex mu_;
  std::vector<uint8_t> bytes_;
  uint64_t accept_limit_ = UINT64_MAX;  ///< total bytes accepted before crash
  bool crashed_ = false;
};

/// Rotating fixed-size segment files: `<prefix>.gen<G>.seg<N>`, each
/// opening with a 64-byte header naming its generation, segment number,
/// and payload capacity. Log offset L of generation G lives in segment
/// L / payload_capacity at file offset 64 + L % payload_capacity. Every
/// Append fsyncs the current segment before it returns, and rotation syncs
/// the finished segment before the next one opens.
///
/// Each process lifetime writes a FRESH generation (highest existing + 1),
/// created lazily at the first append, so recovery can read the previous
/// generation's stream before a single new byte lands. A generation that
/// succeeds an existing one is born TENTATIVE (header flag): until
/// MarkGenerationAuthoritative() clears the flag — which Database does
/// after recovery's opening checkpoint is durable — a later recovery
/// ignores it and falls back to the newest authoritative generation. That
/// closes the crash-during-recovery window: the old log stays the source
/// of truth until the new one provably carries the recovered state.
///
/// Segment creation is write-new-then-rename (header written and fsync'd
/// into a temp file, rename into place, parent directory fsync'd), so a
/// crash never leaves a half-created segment under a live name. Recycling
/// (RecycleBelow) unlinks whole segments below the last completed
/// checkpoint's redo-start; a recycled generation is recognized by its
/// missing low segments and is authoritative by construction (recycling
/// only runs after the opening checkpoint completed).
class SegmentedLogDevice : public LogDevice {
 public:
  /// Enumerates existing generations under `prefix` without modifying
  /// anything. `segment_bytes` is the per-segment PAYLOAD capacity and must
  /// be nonzero.
  static Status Open(const std::string& prefix, uint64_t segment_bytes,
                     std::unique_ptr<SegmentedLogDevice>* out);
  ~SegmentedLogDevice() override;

  SegmentedLogDevice(const SegmentedLogDevice&) = delete;
  SegmentedLogDevice& operator=(const SegmentedLogDevice&) = delete;

  Status Append(const uint8_t* data, size_t len, Lsn lsn) override;
  uint64_t DurableBytes() const override;
  Status ReadAll(std::vector<uint8_t>* out) const override;
  Lsn base_lsn() const override;
  void RecycleBelow(Lsn lsn) override;

  /// Clear the write generation's tentative flag (in seg0's header, synced
  /// in place) and delete every older generation's files. Call exactly when
  /// the new generation is self-contained — its opening checkpoint (or
  /// snapshot) is durable. No-op if the generation is already
  /// authoritative; with nothing appended yet it creates seg0 first.
  Status MarkGenerationAuthoritative();

  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }
  /// True while the write generation succeeds an existing log and has not
  /// been marked authoritative: a later recovery would not read it.
  bool tentative() const { return tentative_.load(std::memory_order_acquire); }
  uint64_t write_generation() const { return write_gen_; }

  /// Read the newest authoritative generation's stitched stream (for
  /// recovery, before any new writes). `*base_lsn` is the offset of the
  /// first returned byte (nonzero when low segments were recycled);
  /// `*generation` the generation read, or kLsnNone when none exists
  /// (empty stream returned).
  static Status ReadLog(const std::string& prefix, std::vector<uint8_t>* out,
                        Lsn* base_lsn, uint64_t* generation = nullptr);

 private:
  SegmentedLogDevice(std::string prefix, uint64_t segment_bytes)
      : prefix_(std::move(prefix)), seg_payload_(segment_bytes) {}

  Status Poison(const char* what);
  /// Create segment `seg_no` of the write generation (write-new-then-
  /// rename) and make it the current write segment.
  Status OpenSegment(uint64_t seg_no);
  /// First append only: delete stale tentative generations above the read
  /// generation, then create seg0.
  Status PrepareGeneration();
  std::string SegPath(uint64_t gen, uint64_t seg_no) const;

  const std::string prefix_;
  const uint64_t seg_payload_;

  uint64_t write_gen_ = 0;      ///< generation this device appends to
  std::atomic<bool> tentative_{false};  ///< see tentative()
  bool prepared_ = false;  ///< the flush-role holder only; calls never overlap
  int cur_fd_ = -1;             ///< current write segment
  uint64_t cur_seg_ = 0;

  mutable std::mutex mu_;       ///< guards base_seg_/trim_lsn_ vs recycling
  uint64_t base_seg_ = 0;       ///< lowest retained segment (write gen)
  Lsn trim_lsn_ = 0;            ///< stream resumes here after recycling
  std::atomic<uint64_t> written_{0};
  std::atomic<bool> poisoned_{false};
};

/// Install `device` as `options`' flush_sink. The device must outlive the
/// LogManager constructed from the options.
void AttachLogDevice(LogOptions* options, LogDevice* device);

}  // namespace slidb
