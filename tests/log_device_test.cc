// Durable log device tests: segment rotation and stitching, crash-safe
// generation hand-off (tentative → authoritative), checkpoint-driven
// recycling, and the fail-stop fsync contract (a reported sync failure
// poisons the device).
//
// Everything here drives the device DIRECTLY — no Database, no flusher —
// so injected fsync failures surface as Status, not as the flush-sink
// adapter's process abort (recovery_test's RecoveryEngineDeathTest drives
// that path).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/log/log_device.h"
#include "src/stats/counters.h"

namespace slidb {
namespace {

/// Per-test scratch prefix; removes every segment/tmp file it might have
/// produced on destruction (best-effort, tests also clean as they go).
struct ScratchLog {
  std::string prefix;

  explicit ScratchLog(const char* name) : prefix(name) { Cleanup(); }
  ~ScratchLog() { Cleanup(); }

  void Cleanup() {
    for (uint64_t gen = 0; gen < 8; ++gen) {
      for (uint64_t seg = 0; seg < 64; ++seg) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), ".gen%llu.seg%llu",
                      static_cast<unsigned long long>(gen),
                      static_cast<unsigned long long>(seg));
        std::remove((prefix + buf).c_str());
        std::remove((prefix + buf + ".tmp").c_str());
      }
    }
  }

  bool SegExists(uint64_t gen, uint64_t seg) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".gen%llu.seg%llu",
                  static_cast<unsigned long long>(gen),
                  static_cast<unsigned long long>(seg));
    FILE* f = std::fopen((prefix + buf).c_str(), "rb");
    if (f != nullptr) std::fclose(f);
    return f != nullptr;
  }
};

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return out;
}

TEST(SegmentedDeviceTest, RotationSpansSegmentsAndRoundTrips) {
  ScratchLog fs("slidb_segdev_rotate.log");
  constexpr uint64_t kSeg = 128;  // payload bytes per segment
  const std::vector<uint8_t> data = Pattern(5 * kSeg + 37, 3);
  {
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    std::unique_ptr<SegmentedLogDevice> dev;
    ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
    // Append in odd-sized chunks so writes straddle segment boundaries.
    size_t done = 0;
    while (done < data.size()) {
      const size_t chunk = std::min<size_t>(97, data.size() - done);
      ASSERT_TRUE(dev->Append(data.data() + done, chunk, done).ok());
      done += chunk;
    }
    EXPECT_EQ(dev->DurableBytes(), data.size());
    EXPECT_EQ(dev->base_lsn(), 0u);
    EXPECT_EQ(counters.Get(Counter::kLogSegmentsCreated), 6u);
    std::vector<uint8_t> back;
    ASSERT_TRUE(dev->ReadAll(&back).ok());
    EXPECT_EQ(back, data);
  }
  // Reopen path: ReadLog stitches the whole generation back.
  std::vector<uint8_t> stitched;
  Lsn base = ~0ULL;
  uint64_t gen = 0;
  ASSERT_TRUE(SegmentedLogDevice::ReadLog(fs.prefix, &stitched, &base, &gen)
                  .ok());
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(gen, 0u);  // first generation on a clean directory
  EXPECT_EQ(stitched, data);
}

TEST(SegmentedDeviceTest, RecycleBelowUnlinksWholeSegmentsAndShiftsBase) {
  ScratchLog fs("slidb_segdev_recycle.log");
  constexpr uint64_t kSeg = 128;
  const std::vector<uint8_t> data = Pattern(4 * kSeg, 11);
  std::unique_ptr<SegmentedLogDevice> dev;
  ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
  ASSERT_TRUE(dev->Append(data.data(), data.size(), 0).ok());

  CounterSet counters;
  ScopedCounterSet routed(&counters);
  // Recycle below LSN 2.5 segments: whole segments strictly below go
  // (segments 0 and 1), and segment 2's header records the trim LSN — the
  // base shifts to the exact recycle point, not the segment boundary,
  // because a record may straddle into the kept segment.
  const Lsn kTrim = 2 * kSeg + kSeg / 2;
  dev->RecycleBelow(kTrim);
  EXPECT_EQ(counters.Get(Counter::kLogSegmentsRecycled), 2u);
  EXPECT_FALSE(fs.SegExists(0, 0));
  EXPECT_FALSE(fs.SegExists(0, 1));
  EXPECT_TRUE(fs.SegExists(0, 2));
  EXPECT_EQ(dev->base_lsn(), kTrim);

  // ReadAll returns the retained suffix; ReadLog agrees and reports base.
  std::vector<uint8_t> back;
  ASSERT_TRUE(dev->ReadAll(&back).ok());
  const std::vector<uint8_t> tail(data.begin() + kTrim, data.end());
  EXPECT_EQ(back, tail);
  dev.reset();
  std::vector<uint8_t> stitched;
  Lsn base = 0;
  ASSERT_TRUE(SegmentedLogDevice::ReadLog(fs.prefix, &stitched, &base).ok());
  EXPECT_EQ(base, kTrim);
  EXPECT_EQ(stitched, tail);
}

TEST(SegmentedDeviceTest, TentativeGenerationFallsBackUntilAuthoritative) {
  ScratchLog fs("slidb_segdev_tentative.log");
  constexpr uint64_t kSeg = 256;
  const std::vector<uint8_t> old_data = Pattern(100, 21);
  {  // Generation 0: the established log.
    std::unique_ptr<SegmentedLogDevice> dev;
    ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
    ASSERT_TRUE(dev->Append(old_data.data(), old_data.size(), 0).ok());
  }
  const std::vector<uint8_t> new_data = Pattern(60, 42);
  {  // Generation 1 appends but crashes before the authority mark.
    std::unique_ptr<SegmentedLogDevice> dev;
    ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
    EXPECT_EQ(dev->write_generation(), 1u);
    ASSERT_TRUE(dev->Append(new_data.data(), new_data.size(), 0).ok());
    // Recycling is refused while tentative: the old generation is still
    // the source of truth and gen-1 may be discarded wholesale.
    dev->RecycleBelow(kSeg);
    EXPECT_TRUE(fs.SegExists(1, 0));
  }
  {  // Recovery after the crash must read generation 0, not the orphan.
    std::vector<uint8_t> stream;
    Lsn base = 0;
    uint64_t gen = 0;
    ASSERT_TRUE(SegmentedLogDevice::ReadLog(fs.prefix, &stream, &base, &gen)
                    .ok());
    EXPECT_EQ(gen, 0u);
    EXPECT_EQ(stream, old_data);
  }
  {  // Generation 2 completes the hand-off: append, then mark.
    std::unique_ptr<SegmentedLogDevice> dev;
    ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
    EXPECT_EQ(dev->write_generation(), 2u);
    ASSERT_TRUE(dev->Append(new_data.data(), new_data.size(), 0).ok());
    ASSERT_TRUE(dev->MarkGenerationAuthoritative().ok());
    // Predecessors are gone the moment the mark is durable.
    EXPECT_FALSE(fs.SegExists(0, 0));
    EXPECT_FALSE(fs.SegExists(1, 0));
  }
  std::vector<uint8_t> stream;
  Lsn base = 0;
  uint64_t gen = 0;
  ASSERT_TRUE(SegmentedLogDevice::ReadLog(fs.prefix, &stream, &base, &gen)
                  .ok());
  EXPECT_EQ(gen, 2u);
  EXPECT_EQ(stream, new_data);
}

TEST(SegmentedDeviceTest, AuthorityMarkWithoutAppendsMaterializesGeneration) {
  // An empty (or fully torn) predecessor leaves recovery nothing to replay,
  // so no append ever prepares the new generation. The mark must still
  // take: otherwise the generation stays tentative and a later crash falls
  // back to the stale predecessor, losing every commit made since.
  ScratchLog fs("slidb_segdev_emptymark.log");
  constexpr uint64_t kSeg = 256;
  {  // Predecessor generation exists but holds zero payload bytes.
    std::unique_ptr<SegmentedLogDevice> dev;
    ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
    const uint8_t byte = 0;
    ASSERT_TRUE(dev->Append(&byte, 0, 0).ok());  // forces seg0 creation
  }
  const std::vector<uint8_t> data = Pattern(50, 77);
  {
    std::unique_ptr<SegmentedLogDevice> dev;
    ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, kSeg, &dev).ok());
    ASSERT_TRUE(dev->MarkGenerationAuthoritative().ok());
    ASSERT_TRUE(dev->Append(data.data(), data.size(), 0).ok());
  }
  std::vector<uint8_t> stream;
  Lsn base = 0;
  uint64_t gen = 0;
  ASSERT_TRUE(SegmentedLogDevice::ReadLog(fs.prefix, &stream, &base, &gen)
                  .ok());
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(stream, data);
}

// ---- fail-stop on fsync failure ---------------------------------------------

TEST(FailStopTest, SegmentedDeviceFsyncFailurePoisonsAndReportsError) {
  ScratchLog fs("slidb_failstop_seg.log");
  std::unique_ptr<SegmentedLogDevice> dev;
  ASSERT_TRUE(SegmentedLogDevice::Open(fs.prefix, 256, &dev).ok());
  const std::vector<uint8_t> data = Pattern(64, 1);
  ASSERT_TRUE(dev->Append(data.data(), data.size(), 0).ok());
  EXPECT_EQ(dev->DurableBytes(), 64u);

  CounterSet counters;
  ScopedCounterSet routed(&counters);
  SetLogSyncFailureInjection(1);
  const Status st = dev->Append(data.data(), data.size(), 64);
  SetLogSyncFailureInjection(0);
  EXPECT_TRUE(st.IsIoError());
  EXPECT_TRUE(dev->poisoned());
  // The failed range must NOT count as durable: acking it would be silent
  // data loss, the exact thing fail-stop exists to prevent.
  EXPECT_EQ(dev->DurableBytes(), 64u);
  EXPECT_EQ(counters.Get(Counter::kLogSyncFailures), 1u);
  // Poison is sticky: the device never accepts another byte.
  EXPECT_TRUE(dev->Append(data.data(), data.size(), 128).IsIoError());
}

}  // namespace
}  // namespace slidb
