// Slotted page, heap file, and hash index tests. The hash index section
// stress-covers the optimistic (OptLatch-validated) read path and runs
// under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/storage/hash_index.h"
#include "src/storage/heap_file.h"
#include "src/storage/slotted_page.h"
#include "src/util/rng.h"

namespace slidb {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(SlottedPageTest, InsertAndGet) {
  Page page;
  SlottedPage::Init(&page);
  const int slot = SlottedPage::Insert(&page, Bytes("hello"));
  ASSERT_GE(slot, 0);
  const auto rec = SlottedPage::Get(&page, static_cast<uint16_t>(slot));
  ASSERT_EQ(rec.size(), 5u);
  EXPECT_EQ(std::memcmp(rec.data(), "hello", 5), 0);
  EXPECT_EQ(SlottedPage::LiveCount(&page), 1u);
}

TEST(SlottedPageTest, FillsUntilFull) {
  Page page;
  SlottedPage::Init(&page);
  const std::string rec(100, 'x');
  int inserted = 0;
  while (SlottedPage::Insert(&page, Bytes(rec)) >= 0) ++inserted;
  // 8KB / (100 + 4-byte slot) ≈ 78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_EQ(SlottedPage::LiveCount(&page), inserted);
}

TEST(SlottedPageTest, UpdateInPlace) {
  Page page;
  SlottedPage::Init(&page);
  const int slot = SlottedPage::Insert(&page, Bytes("abcdef"));
  ASSERT_GE(slot, 0);
  ASSERT_TRUE(SlottedPage::Update(&page, slot, Bytes("ABCDEF")).ok());
  const auto rec = SlottedPage::Get(&page, slot);
  EXPECT_EQ(std::memcmp(rec.data(), "ABCDEF", 6), 0);
  // Growth is rejected.
  EXPECT_TRUE(SlottedPage::Update(&page, slot, Bytes("toolongrecord"))
                  .IsNotSupported());
}

TEST(SlottedPageTest, DeleteLeavesStableHole) {
  Page page;
  SlottedPage::Init(&page);
  const int s0 = SlottedPage::Insert(&page, Bytes("one"));
  const int s1 = SlottedPage::Insert(&page, Bytes("two"));
  ASSERT_TRUE(SlottedPage::Delete(&page, s0).ok());
  EXPECT_TRUE(SlottedPage::Get(&page, s0).empty());
  // s1 unaffected.
  EXPECT_EQ(std::memcmp(SlottedPage::Get(&page, s1).data(), "two", 3), 0);
  // Double delete fails.
  EXPECT_TRUE(SlottedPage::Delete(&page, s0).IsNotFound());
  // New inserts do NOT reuse the hole (undo stability).
  const int s2 = SlottedPage::Insert(&page, Bytes("three"));
  EXPECT_NE(s2, s0);
}

TEST(SlottedPageTest, InsertAtRestoresHole) {
  Page page;
  SlottedPage::Init(&page);
  const int s0 = SlottedPage::Insert(&page, Bytes("payload"));
  ASSERT_TRUE(SlottedPage::Delete(&page, s0).ok());
  ASSERT_TRUE(SlottedPage::InsertAt(&page, s0, Bytes("payload")).ok());
  const auto rec = SlottedPage::Get(&page, s0);
  EXPECT_EQ(std::memcmp(rec.data(), "payload", 7), 0);
  // InsertAt on a live slot fails.
  EXPECT_TRUE(SlottedPage::InsertAt(&page, s0, Bytes("x")).IsKeyExists());
}

TEST(SlottedPageTest, CompactPreservesRecordsAndRids) {
  Page page;
  SlottedPage::Init(&page);
  std::vector<int> slots;
  for (int i = 0; i < 20; ++i) {
    slots.push_back(SlottedPage::Insert(
        &page, Bytes(std::string(50, static_cast<char>('a' + i)))));
  }
  // Punch holes in even slots.
  for (int i = 0; i < 20; i += 2) {
    ASSERT_TRUE(SlottedPage::Delete(&page, slots[i]).ok());
  }
  const size_t before = SlottedPage::FreeSpace(&page);
  SlottedPage::Compact(&page);
  EXPECT_GT(SlottedPage::FreeSpace(&page), before);
  for (int i = 1; i < 20; i += 2) {
    const auto rec = SlottedPage::Get(&page, slots[i]);
    ASSERT_EQ(rec.size(), 50u);
    EXPECT_EQ(rec[0], static_cast<uint8_t>('a' + i));
  }
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&vol_, MakeOptions()), heap_(&pool_) {}

  static BufferPoolOptions MakeOptions() {
    BufferPoolOptions o;
    o.num_frames = 256;
    return o;
  }

  Volume vol_;
  BufferPool pool_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, InsertReadRoundTrip) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert(Bytes("record-1"), &rid).ok());
  std::string out;
  ASSERT_TRUE(heap_.Read(rid, &out).ok());
  EXPECT_EQ(out, "record-1");
}

TEST_F(HeapFileTest, ReadIntoChecksSize) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert(Bytes("12345678"), &rid).ok());
  char buf[8];
  ASSERT_TRUE(heap_.ReadInto(rid, buf, 8).ok());
  EXPECT_TRUE(heap_.ReadInto(rid, buf, 4).IsInvalidArgument());
}

TEST_F(HeapFileTest, SpillsAcrossPages) {
  const std::string rec(1000, 'r');
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    Rid rid;
    ASSERT_TRUE(heap_.Insert(Bytes(rec), &rid).ok());
    rids.push_back(rid);
  }
  EXPECT_GT(heap_.page_count(), 10u);  // ~7 per page
  std::string out;
  for (const Rid& rid : rids) {
    ASSERT_TRUE(heap_.Read(rid, &out).ok());
    EXPECT_EQ(out.size(), 1000u);
  }
}

TEST_F(HeapFileTest, UpdateAndDelete) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert(Bytes("vvvvv"), &rid).ok());
  ASSERT_TRUE(heap_.Update(rid, Bytes("wwwww")).ok());
  std::string out;
  ASSERT_TRUE(heap_.Read(rid, &out).ok());
  EXPECT_EQ(out, "wwwww");
  ASSERT_TRUE(heap_.Delete(rid).ok());
  EXPECT_TRUE(heap_.Read(rid, &out).IsNotFound());
}

TEST_F(HeapFileTest, ScanVisitsAllLiveRecords) {
  std::set<uint64_t> inserted;
  for (int i = 0; i < 50; ++i) {
    Rid rid;
    ASSERT_TRUE(
        heap_.Insert(Bytes("rec" + std::to_string(i)), &rid).ok());
    inserted.insert(rid.ToU64());
  }
  size_t seen = 0;
  ASSERT_TRUE(heap_
                  .Scan([&](Rid rid, std::span<const uint8_t> rec) {
                    EXPECT_TRUE(inserted.count(rid.ToU64()));
                    EXPECT_FALSE(rec.empty());
                    ++seen;
                  })
                  .ok());
  EXPECT_EQ(seen, 50u);
}

TEST_F(HeapFileTest, ConcurrentInsertersGetDistinctRids) {
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::vector<uint64_t>> rids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kEach; ++i) {
        const std::string rec(rng.Uniform(20, 200), 'x');
        Rid rid;
        ASSERT_TRUE(heap_.Insert(Bytes(rec), &rid).ok());
        rids[t].push_back(rid.ToU64());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> all;
  for (const auto& v : rids) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kEach);
}

TEST(RidTest, PackUnpackRoundTrip) {
  const Rid rid{123456, 789};
  const Rid back = Rid::FromU64(rid.ToU64());
  EXPECT_EQ(back, rid);
}

// ---- hash index (optimistic read path) --------------------------------------

TEST(HashIndexTest, BasicMultimapSemantics) {
  HashIndex idx(4);
  ASSERT_TRUE(idx.Insert(10, 100).ok());
  ASSERT_TRUE(idx.Insert(10, 101).ok());
  ASSERT_TRUE(idx.Insert(11, 200).ok());
  EXPECT_TRUE(idx.Insert(10, 100).IsKeyExists());  // exact duplicate pair
  EXPECT_EQ(idx.size(), 3u);

  uint64_t v = 0;
  ASSERT_TRUE(idx.Lookup(10, &v).ok());
  EXPECT_TRUE(v == 100 || v == 101);
  ASSERT_TRUE(idx.Lookup(11, &v).ok());
  EXPECT_EQ(v, 200u);
  EXPECT_TRUE(idx.Lookup(12, &v).IsNotFound());

  std::vector<uint64_t> all;
  idx.LookupAll(10, &all);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<uint64_t>{100, 101}));

  ASSERT_TRUE(idx.Remove(10, 100).ok());
  EXPECT_TRUE(idx.Remove(10, 100).IsNotFound());
  EXPECT_TRUE(idx.Remove(12, 1).IsNotFound());
  EXPECT_EQ(idx.size(), 2u);
  idx.LookupAll(10, &all);
  EXPECT_EQ(all, (std::vector<uint64_t>{101}));
}

TEST(HashIndexTest, GrowthKeepsEveryEntry) {
  // One shard forces long chains and repeated table doublings (the epoch-
  // retired bucket-array swap); every entry must survive every resize.
  HashIndex idx(1);
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(idx.Insert(k, k * 2 + 1).ok());
    if (k % 3 == 0) {
      ASSERT_TRUE(idx.Insert(k, k * 2 + 2).ok());
    }
  }
  uint64_t v = 0;
  std::vector<uint64_t> all;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(idx.Lookup(k, &v).ok()) << k;
    idx.LookupAll(k, &all);
    EXPECT_EQ(all.size(), k % 3 == 0 ? 2u : 1u) << k;
  }
  EXPECT_TRUE(idx.Lookup(kKeys + 1, &v).IsNotFound());
}

TEST(HashIndexTest, ConcurrentInsertBurstKeepsLoadFactorBounded) {
  // Regression for writer-local grow accounting: concurrent inserters into
  // one shard each used to trigger growth off their own insert only, so a
  // burst that all sampled a stale pre-grow table could leave the shard far
  // past its target load factor. The shared atomic occupancy count plus the
  // grow-until-met loop bound the final state regardless of interleaving.
  HashIndex idx(1);  // single shard concentrates the burst
  constexpr int kThreads = 4;
  constexpr uint64_t kEach = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t base = static_cast<uint64_t>(t) * 1'000'000;
      for (uint64_t i = 0; i < kEach; ++i) {
        ASSERT_TRUE(idx.Insert(base + i, i).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.size(), static_cast<uint64_t>(kThreads) * kEach);
  // kGrowLoadFactor = 2: the last insert's grow loop leaves mean chain
  // length at or under two.
  EXPECT_LE(idx.MaxShardLoadFactor(), 2.0);
  uint64_t v = 0;
  for (int t = 0; t < kThreads; ++t) {
    const uint64_t base = static_cast<uint64_t>(t) * 1'000'000;
    for (uint64_t i = 0; i < kEach; i += 97) {
      ASSERT_TRUE(idx.Lookup(base + i, &v).ok()) << base + i;
      EXPECT_EQ(v, i);
    }
  }
}

TEST(HashIndexTest, ConcurrentReadersSeeConsistentEntries) {
  // Writers churn disjoint key ranges (insert then remove evens) while
  // readers hammer the whole space through the optimistic path. Assertions
  // are interleaving-independent: a returned value must always be the one
  // the key was inserted with, and the final state must match exactly.
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr uint64_t kPerWriter = 4000;

  HashIndex idx(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const uint64_t base = static_cast<uint64_t>(w) * 1'000'000;
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(idx.Insert(base + i, (base + i) ^ 0xABCDu).ok());
      }
      for (uint64_t i = 0; i < kPerWriter; i += 2) {
        ASSERT_TRUE(idx.Remove(base + i, (base + i) ^ 0xABCDu).ok());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(7919 * (r + 1));
      std::vector<uint64_t> all;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key =
            (rng.Next() % kWriters) * 1'000'000 + rng.Next() % kPerWriter;
        uint64_t v = 0;
        if (idx.Lookup(key, &v).ok()) {
          EXPECT_EQ(v, key ^ 0xABCDu);  // never a torn or foreign value
        }
        idx.LookupAll(key, &all);
        for (const uint64_t got : all) EXPECT_EQ(got, key ^ 0xABCDu);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(idx.size(), uint64_t{static_cast<uint64_t>(kWriters)} *
                            (kPerWriter / 2));
  uint64_t v = 0;
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t base = static_cast<uint64_t>(w) * 1'000'000;
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      const bool want = (i % 2) == 1;  // evens were removed
      EXPECT_EQ(idx.Lookup(base + i, &v).ok(), want) << base + i;
      if (want) {
        EXPECT_EQ(v, (base + i) ^ 0xABCDu);
      }
    }
  }
}

}  // namespace
}  // namespace slidb
