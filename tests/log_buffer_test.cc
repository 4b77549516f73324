// Tests for the WAL (group commit, durability ordering) and the buffer pool
// (pin/fix semantics, eviction, write-back, simulated I/O accounting).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/log/log_manager.h"
#include "tests/held_pass_script.h"

namespace slidb {
namespace {

TEST(LogTest, LsnsAreMonotonic) {
  LogManager log;
  Lsn prev = 0;
  for (int i = 0; i < 100; ++i) {
    const Lsn lsn = log.Append(1, LogRecordType::kUpdate, "abc", 3);
    EXPECT_GT(lsn, prev);
    prev = lsn;
  }
}

TEST(LogTest, WaitDurableBlocksUntilFlushed) {
  LogOptions o;
  o.flush_interval_us = 100;
  LogManager log(o);
  const Lsn lsn = log.Append(1, LogRecordType::kCommit, nullptr, 0);
  log.WaitDurable(lsn);
  EXPECT_GE(log.durable_lsn(), lsn);
}

TEST(LogTest, GroupCommitBatchesFlushes) {
  LogOptions o;
  o.flush_interval_us = 2000;  // coarse background passes
  LogManager log(o);
  constexpr int kThreads = 4;
  constexpr int kCommitsEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCommitsEach; ++i) {
        const Lsn lsn = log.Append(1, LogRecordType::kCommit, nullptr, 0);
        log.WaitDurable(lsn);
        EXPECT_GE(log.durable_lsn(), lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  const LogStats stats = log.Stats();
  EXPECT_EQ(stats.records, kThreads * kCommitsEach);
  EXPECT_LE(stats.flushes, stats.records);
  // Batching itself, forced by a script instead of hoping the free-running
  // threads overlap (each hardens its own record in microseconds, so on
  // some runs they never do): three commits queued behind a held pass
  // share one flush, on any number of CPUs.
  const HeldPassResult held = RunHeldPassScript(o.flush_interval_us);
  EXPECT_EQ(held.records, 4u);
  EXPECT_EQ(held.flushes, 2u);
}

TEST(LogTest, DeferredAckSettlesWhenHorizonHardens) {
  CounterSet counters;
  ScopedCounterSet routed(&counters);
  DeferredAckRing ring;
  LogOptions o;
  o.flush_interval_us = 100;
  LogManager log(o);
  const Lsn lsn = log.Append(1, LogRecordType::kCommit, nullptr, 0);
  DeferredAck* ack = ring.Acquire();
  ack->lsn = lsn;
  ack->park_ns = 1;  // any nonzero epoch; settle_ns is stamped by a pass
  // Whether it parks or settles inline depends on pass timing; either
  // way the terminal state must be kDurable and Drain must not hang.
  log.ParkDeferred(ack);
  ring.Drain();
  EXPECT_GE(log.durable_lsn(), lsn);
  EXPECT_EQ(ring.outstanding(), 0u);
  EXPECT_EQ(counters.Get(Counter::kTxnDepAbortedAcks), 0u);
}

TEST(LogTest, DeferredAckAlreadyDurableSettlesInline) {
  LogManager log;
  const Lsn lsn = log.Append(1, LogRecordType::kCommit, nullptr, 0);
  log.WaitDurable(lsn);
  DeferredAckRing ring;
  DeferredAck* ack = ring.Acquire();
  ack->lsn = lsn;
  ack->park_ns = 1;
  EXPECT_FALSE(log.ParkDeferred(ack)) << "durable horizon must not park";
  EXPECT_EQ(ack->state.load(), DeferredAck::kDurable);
  ring.Drain();
}

TEST(LogTest, DeferredAckLostWhenHorizonNeverHardens) {
  // The dependency-abort edge of the state machine: an ack whose horizon
  // is never published cannot settle as kDurable — the shutdown drain must
  // settle it as kLost (reporting it committed would externalize state
  // recovery cannot reproduce), and the ring reclaim must count it.
  CounterSet counters;
  ScopedCounterSet routed(&counters);
  DeferredAckRing ring;
  {
    LogOptions o;
    o.flush_interval_us = 50;
    LogManager log(o);
    DeferredAck* ack = ring.Acquire();
    ack->lsn = 1u << 20;  // beyond anything ever appended
    ack->park_ns = 1;
    EXPECT_TRUE(log.ParkDeferred(ack));
    // LogManager teardown: the shutdown drain settles the ack.
  }
  ring.Drain();
  EXPECT_EQ(ring.outstanding(), 0u);
  EXPECT_EQ(counters.Get(Counter::kTxnDepAbortedAcks), 1u);
}

TEST(LogTest, RingWrapAroundUnderPressure) {
  LogOptions o;
  o.buffer_bytes = 1 << 12;  // 4 KB ring forces wrap + space waits
  o.flush_interval_us = 50;
  LogManager log(o);
  uint8_t payload[256];
  std::memset(payload, 0xAB, sizeof(payload));
  for (int i = 0; i < 200; ++i) {
    log.Append(1, LogRecordType::kUpdate, payload, sizeof(payload));
  }
  const Lsn lsn = log.Append(1, LogRecordType::kCommit, nullptr, 0);
  log.WaitDurable(lsn);
  EXPECT_GE(log.durable_lsn(), lsn);
  EXPECT_EQ(log.Stats().records, 201u);
}

TEST(VolumeTest, FilesAndPages) {
  Volume vol;
  const uint32_t f1 = vol.CreateFile();
  const uint32_t f2 = vol.CreateFile();
  EXPECT_NE(f1, f2);
  EXPECT_EQ(vol.PageCount(f1), 0u);
  const uint64_t p0 = vol.AllocatePage(f1);
  const uint64_t p1 = vol.AllocatePage(f1);
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(vol.PageCount(f1), 2u);
  EXPECT_EQ(vol.PageCount(f2), 0u);

  Page page;
  page.Zero();
  page.bytes[0] = 42;
  ASSERT_TRUE(vol.WritePage(PageId{f1, p1}, page).ok());
  Page readback;
  ASSERT_TRUE(vol.ReadPage(PageId{f1, p1}, &readback).ok());
  EXPECT_EQ(readback.bytes[0], 42);
  EXPECT_TRUE(vol.ReadPage(PageId{f1, 99}, &readback).IsInvalidArgument());
  EXPECT_TRUE(vol.ReadPage(PageId{7, 0}, &readback).IsInvalidArgument());
}

TEST(BufferPoolTest, FixMissThenHit) {
  Volume vol;
  BufferPoolOptions o;
  o.num_frames = 16;
  BufferPool pool(&vol, o);
  const uint32_t f = vol.CreateFile();
  PageId id;
  {
    PageGuard guard;
    ASSERT_TRUE(pool.NewPage(f, &id, &guard).ok());
    guard.page()->bytes[100] = 7;
    guard.MarkDirty();
  }
  {
    PageGuard guard;
    ASSERT_TRUE(pool.FixPage(id, false, &guard).ok());
    EXPECT_EQ(guard.page()->bytes[100], 7);
  }
  const BufferPoolStats stats = pool.Stats();
  EXPECT_GE(stats.fixes, 2u);
  // Second fix must hit.
  EXPECT_LT(stats.misses, stats.fixes);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  Volume vol;
  BufferPoolOptions o;
  o.num_frames = 8;  // tiny pool to force eviction
  BufferPool pool(&vol, o);
  const uint32_t f = vol.CreateFile();

  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    PageId id;
    PageGuard guard;
    ASSERT_TRUE(pool.NewPage(f, &id, &guard).ok());
    guard.page()->bytes[0] = static_cast<uint8_t>(i);
    guard.MarkDirty();
    ids.push_back(id);
  }
  // All pages must read back correctly even though most were evicted.
  for (int i = 0; i < 32; ++i) {
    PageGuard guard;
    ASSERT_TRUE(pool.FixPage(ids[i], false, &guard).ok());
    EXPECT_EQ(guard.page()->bytes[0], static_cast<uint8_t>(i));
  }
  const BufferPoolStats stats = pool.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.writebacks, 0u);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  Volume vol;
  BufferPoolOptions o;
  o.num_frames = 8;
  BufferPool pool(&vol, o);
  const uint32_t f = vol.CreateFile();

  PageId pinned_id;
  PageGuard pinned;
  ASSERT_TRUE(pool.NewPage(f, &pinned_id, &pinned).ok());
  pinned.page()->bytes[0] = 0xEE;
  pinned.MarkDirty();

  // Thrash the pool while holding the pin.
  for (int i = 0; i < 64; ++i) {
    PageId id;
    PageGuard guard;
    ASSERT_TRUE(pool.NewPage(f, &id, &guard).ok());
  }
  // Our pinned frame must still hold our page content.
  EXPECT_EQ(pinned.page()->bytes[0], 0xEE);
  pinned.Release();
}

TEST(BufferPoolTest, ConcurrentFixesAreCoherent) {
  Volume vol;
  BufferPoolOptions o;
  o.num_frames = 32;
  BufferPool pool(&vol, o);
  const uint32_t f = vol.CreateFile();
  PageId id;
  {
    PageGuard guard;
    ASSERT_TRUE(pool.NewPage(f, &id, &guard).ok());
    std::memset(guard.page()->bytes, 0, kPageSize);
    guard.MarkDirty();
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        PageGuard guard;
        ASSERT_TRUE(pool.FixPage(id, /*exclusive=*/true, &guard).ok());
        // Read-modify-write of a counter in the page: latch must serialize.
        uint64_t v;
        std::memcpy(&v, guard.page()->bytes, sizeof(v));
        ++v;
        std::memcpy(guard.page()->bytes, &v, sizeof(v));
        guard.MarkDirty();
      }
    });
  }
  for (auto& th : threads) th.join();

  PageGuard guard;
  ASSERT_TRUE(pool.FixPage(id, false, &guard).ok());
  uint64_t v;
  std::memcpy(&v, guard.page()->bytes, sizeof(v));
  EXPECT_EQ(v, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(BufferPoolTest, SimulatedIoDelayCharged) {
  Volume vol;
  BufferPoolOptions o;
  o.num_frames = 8;
  o.simulated_io_delay_us = 2000;  // 2 ms per I/O
  BufferPool pool(&vol, o);
  const uint32_t f = vol.CreateFile();
  const uint64_t page_no = vol.AllocatePage(f);

  const uint64_t t0 = NowMicros();
  PageGuard guard;
  ASSERT_TRUE(pool.FixPage(PageId{f, page_no}, false, &guard).ok());
  const uint64_t took_us = NowMicros() - t0;
  EXPECT_GE(took_us, 1500u);  // miss paid ~2 ms
  guard.Release();

  const uint64_t t1 = NowMicros();
  PageGuard guard2;
  ASSERT_TRUE(pool.FixPage(PageId{f, page_no}, false, &guard2).ok());
  const uint64_t hit_us = NowMicros() - t1;
  EXPECT_LT(hit_us, 1500u);  // hit pays nothing
}

}  // namespace
}  // namespace slidb
