// Unit tests for the utility substrate: Status, latches, RNG, histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/latch.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/time_util.h"

namespace slidb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::KeyExists().IsKeyExists());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::IoError().IsIoError());
  EXPECT_TRUE(Status::Overloaded().IsOverloaded());
}

TEST(StatusTest, ForcesAbortSemantics) {
  EXPECT_TRUE(Status::Deadlock().ForcesAbort());
  EXPECT_TRUE(Status::Aborted().ForcesAbort());
  EXPECT_TRUE(Status::TimedOut().ForcesAbort());
  EXPECT_TRUE(Status::Overloaded().ForcesAbort());
  EXPECT_FALSE(Status::NotFound().ForcesAbort());
  EXPECT_FALSE(Status::OK().ForcesAbort());
}

TEST(StatusTest, RetryableClassification) {
  // The driver's retry loop keys off this: deadlock victims, lock/deadline
  // timeouts, and admission sheds are worth re-running; everything else
  // (including benchmark-specified Aborted) is final.
  EXPECT_TRUE(Status::Deadlock().retryable());
  EXPECT_TRUE(Status::TimedOut().retryable());
  EXPECT_TRUE(Status::Overloaded().retryable());
  EXPECT_FALSE(Status::Aborted().retryable());
  EXPECT_FALSE(Status::NotFound().retryable());
  EXPECT_FALSE(Status::IoError().retryable());
  EXPECT_FALSE(Status::OK().retryable());
}

TEST(StatusTest, MessagePropagates) {
  Status s = Status::Corruption("page 17 checksum");
  EXPECT_EQ(s.ToString(), "Corruption: page 17 checksum");
  EXPECT_EQ(s.message(), "page 17 checksum");
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    SLIDB_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

TEST(SpinLatchTest, UncontendedAcquireReportsNoContention) {
  SpinLatch latch;
  EXPECT_FALSE(latch.Acquire());
  EXPECT_TRUE(latch.IsHeld());
  latch.Release();
  EXPECT_FALSE(latch.IsHeld());
}

TEST(SpinLatchTest, TryAcquireFailsWhenHeld) {
  SpinLatch latch;
  ASSERT_TRUE(latch.TryAcquire());
  EXPECT_FALSE(latch.TryAcquire());
  latch.Release();
  EXPECT_TRUE(latch.TryAcquire());
  latch.Release();
}

TEST(SpinLatchTest, MutualExclusionUnderContention) {
  SpinLatch latch;
  int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        latch.Acquire();
        ++counter;
        latch.Release();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(RwLatchTest, ManyReadersOneWriter) {
  RwLatch latch;
  EXPECT_FALSE(latch.AcquireShared());
  EXPECT_FALSE(latch.TryAcquireExclusive());
  EXPECT_TRUE(latch.TryAcquireShared());
  latch.ReleaseShared();
  latch.ReleaseShared();
  EXPECT_TRUE(latch.TryAcquireExclusive());
  EXPECT_FALSE(latch.TryAcquireShared());
  latch.ReleaseExclusive();
}

TEST(RwLatchTest, WriterExcludesWritersUnderContention) {
  RwLatch latch;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        latch.AcquireExclusive();
        ++counter;
        latch.ReleaseExclusive();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  const double p = static_cast<double>(hits) / kN;
  EXPECT_NEAR(p, 0.25, 0.01);
}

TEST(RngTest, NuRandWithinBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NuRand(255, 1, 3000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 3000u);
  }
}

TEST(RngTest, StringsRespectLengthBounds) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const std::string a = rng.AlphaString(3, 9);
    EXPECT_GE(a.size(), 3u);
    EXPECT_LE(a.size(), 9u);
    const std::string d = rng.DigitString(15, 15);
    EXPECT_EQ(d.size(), 15u);
    for (char ch : d) EXPECT_TRUE(ch >= '0' && ch <= '9');
  }
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  Rng rng(17);
  ZipfGenerator zipf(1000, 0.99);
  int low = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    if (v <= 10) ++low;
  }
  // With theta=0.99 the top-10 of 1000 should draw far more than 1% of mass.
  EXPECT_GT(low, kN / 10);
}

TEST(ZipfTest, ThetaOneIsValid) {
  // theta == 1.0 is the harmonic case where the quantile formula's
  // alpha = 1/(1-theta) is singular; the generator clamps theta by a small
  // epsilon and must keep producing in-range, properly skewed draws.
  Rng rng(19);
  ZipfGenerator zipf(1000, 1.0);
  EXPECT_NEAR(zipf.theta(), 1.0, 1e-3);
  int low = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    if (v <= 10) ++low;
  }
  EXPECT_GT(low, kN / 10);
}

TEST(ZipfTest, MassConcentrationGrowsWithTheta) {
  // The contention bench's sweep axis: higher theta must put strictly more
  // mass on the top ranks (theta=0 degenerates to uniform).
  constexpr double kThetas[] = {0.0, 0.6, 0.9, 0.99, 1.2};
  constexpr int kN = 40000;
  double prev = -1.0;
  for (double theta : kThetas) {
    Rng rng(23);
    ZipfGenerator zipf(1000, theta);
    int top = 0;
    for (int i = 0; i < kN; ++i) {
      if (zipf.Next(rng) <= 10) ++top;
    }
    const double frac = static_cast<double>(top) / kN;
    EXPECT_GT(frac, prev) << "theta=" << theta;
    prev = frac;
  }
}

TEST(ScrambledZipfTest, ScrambleIsBijection) {
  // Scramble must be a permutation of [1, n] — every key hit by exactly one
  // rank — including domains far from a power of two (cycle walking) and
  // the degenerate n=1.
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{5}, uint64_t{64},
                           uint64_t{1000}, uint64_t{65539}}) {
    ScrambledZipfGenerator gen(n, 0.99);
    std::vector<uint64_t> keys;
    keys.reserve(n);
    for (uint64_t rank = 1; rank <= n; ++rank) {
      const uint64_t key = gen.Scramble(rank);
      ASSERT_GE(key, 1u) << "n=" << n << " rank=" << rank;
      ASSERT_LE(key, n) << "n=" << n << " rank=" << rank;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    ASSERT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "duplicate key for n=" << n;
  }
}

TEST(ScrambledZipfTest, NextDrawsWithinRangeAndFavorsHotKey) {
  Rng rng(29);
  ScrambledZipfGenerator gen(1000, 1.2);
  const uint64_t hot = gen.Scramble(1);
  int hot_hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t v = gen.Next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    if (v == hot) ++hot_hits;
  }
  // Rank 1 under theta=1.2 carries far more than the uniform 1/1000.
  EXPECT_GT(hot_hits, kN / 50);
}

TEST(ScrambledZipfTest, HotRanksScatterAcrossKeySpace) {
  // The point of scrambling: the popular ranks must not map to adjacent
  // ids co-located on a single 64-entry B+-tree leaf, which would conflate
  // page/latch contention with the lock contention the scenarios target.
  ScrambledZipfGenerator gen(100'000, 0.99);
  uint64_t lo = UINT64_MAX, hi = 0;
  for (uint64_t rank = 1; rank <= 8; ++rank) {
    const uint64_t key = gen.Scramble(rank);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  EXPECT_GT(hi - lo, 64u);
}

TEST(ScrambledZipfTest, SaltChangesThePermutation) {
  ScrambledZipfGenerator a(4096, 0.99, /*salt=*/1);
  ScrambledZipfGenerator b(4096, 0.99, /*salt=*/2);
  int differs = 0;
  for (uint64_t rank = 1; rank <= 4096; ++rank) {
    if (a.Scramble(rank) != b.Scramble(rank)) ++differs;
  }
  EXPECT_GT(differs, 2048);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, PercentileMonotone) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.Add(rng.Uniform(1, 1 << 20));
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(0.999));
}

TEST(TimeTest, CyclesAdvance) {
  const uint64_t a = RdCycles();
  SpinForNanos(100000);
  const uint64_t b = RdCycles();
  EXPECT_GT(b, a);
}

TEST(TimeTest, CalibrationSane) {
  const double r = CyclesPerNano();
  EXPECT_GT(r, 0.01);
  EXPECT_LT(r, 100.0);
}

}  // namespace
}  // namespace slidb
