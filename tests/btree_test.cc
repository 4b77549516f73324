// B+-tree tests: ordering, duplicates, splits, scans, invariants, and
// concurrent stress. A parameterized sweep covers size regimes around node
// split boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "src/storage/btree.h"
#include "src/util/rng.h"

namespace slidb {
namespace {

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  uint64_t v;
  EXPECT_TRUE(tree.Lookup(1, &v).IsNotFound());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, SingleInsertLookup) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(42, 4200).ok());
  uint64_t v = 0;
  ASSERT_TRUE(tree.Lookup(42, &v).ok());
  EXPECT_EQ(v, 4200u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, DuplicatePairRejectedDistinctValueAllowed) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(7, 100).ok());
  EXPECT_TRUE(tree.Insert(7, 100).IsKeyExists());
  ASSERT_TRUE(tree.Insert(7, 200).ok());
  std::vector<uint64_t> values;
  tree.LookupAll(7, &values);
  EXPECT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 100u);  // ordered by (key, value)
  EXPECT_EQ(values[1], 200u);
}

TEST(BTreeTest, RemoveExactPair) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(7, 100).ok());
  ASSERT_TRUE(tree.Insert(7, 200).ok());
  ASSERT_TRUE(tree.Remove(7, 100).ok());
  EXPECT_TRUE(tree.Remove(7, 100).IsNotFound());
  uint64_t v;
  ASSERT_TRUE(tree.Lookup(7, &v).ok());
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(tree.size(), 1u);
}

class BTreeSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(BTreeSizeSweep, SequentialInsertAllFound) {
  const int n = GetParam();
  BTree tree;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i, i * 10).ok()) << i;
  }
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  EXPECT_TRUE(tree.CheckInvariants());
  for (int i = 0; i < n; ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(tree.Lookup(i, &v).ok()) << i;
    EXPECT_EQ(v, static_cast<uint64_t>(i) * 10);
  }
}

TEST_P(BTreeSizeSweep, ReverseInsertAllFound) {
  const int n = GetParam();
  BTree tree;
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_TRUE(tree.Insert(i, i + 1).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants());
  // Full scan yields sorted order.
  uint64_t prev = 0;
  size_t count = 0;
  tree.Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t) {
    if (count > 0) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, static_cast<size_t>(n));
}

TEST_P(BTreeSizeSweep, RandomInsertRemoveConsistent) {
  const int n = GetParam();
  BTree tree;
  Rng rng(n);
  std::set<uint64_t> model;
  for (int i = 0; i < n; ++i) {
    const uint64_t k = rng.Uniform(0, n * 2);
    if (model.insert(k).second) {
      ASSERT_TRUE(tree.Insert(k, k).ok());
    }
  }
  // Remove a random half.
  std::vector<uint64_t> keys(model.begin(), model.end());
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    ASSERT_TRUE(tree.Remove(keys[i], keys[i]).ok());
    model.erase(keys[i]);
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), model.size());
  for (uint64_t k : model) {
    uint64_t v;
    ASSERT_TRUE(tree.Lookup(k, &v).ok()) << k;
  }
}

// Sizes straddle the 64-entry leaf boundary, two levels, and three levels.
INSTANTIATE_TEST_SUITE_P(Sizes, BTreeSizeSweep,
                         ::testing::Values(1, 63, 64, 65, 128, 1000, 5000,
                                           20000),
                         ::testing::PrintToStringParamName());

TEST(BTreeTest, RangeScanBounds) {
  BTree tree;
  for (uint64_t i = 0; i < 1000; i += 2) {  // even keys only
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  std::vector<uint64_t> seen;
  tree.Scan(100, 200, [&](uint64_t k, uint64_t) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 51u);  // 100,102,...,200
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 200u);

  // Scan bounds on odd (absent) endpoints.
  seen.clear();
  tree.Scan(101, 199, [&](uint64_t k, uint64_t) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 49u);
  EXPECT_EQ(seen.front(), 102u);
  EXPECT_EQ(seen.back(), 198u);
}

TEST(BTreeTest, ScanEarlyStop) {
  BTree tree;
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  int visits = 0;
  tree.Scan(0, UINT64_MAX, [&](uint64_t, uint64_t) {
    return ++visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(BTreeTest, ReverseScanNewestFirst) {
  BTree tree;
  // TPC-C pattern: key = (customer << 20) | order_id; find newest order.
  const uint64_t cust = 77;
  for (uint64_t o = 1; o <= 30; ++o) {
    ASSERT_TRUE(tree.Insert((cust << 20) | o, o).ok());
  }
  uint64_t newest = 0;
  tree.ScanReverse(cust << 20, (cust << 20) | 0xfffff,
                   [&](uint64_t, uint64_t v) {
                     newest = v;
                     return false;  // first (= newest) only
                   });
  EXPECT_EQ(newest, 30u);
}

// ---- reverse scan (bounded-memory chunked re-descent) ----

TEST(BTreeReverseScanTest, FullReverseScanIsForwardReversed) {
  // Multi-level tree with duplicate keys: the reverse scan must deliver
  // exactly the forward (key, value) sequence, reversed.
  BTree tree;
  Rng rng(71);
  for (uint64_t i = 0; i < 5000; ++i) {
    // Random keys collide; (key, value) pairs stay unique via the value.
    ASSERT_TRUE(tree.Insert(rng.Uniform(0, 2000), i).ok());
  }
  std::vector<std::pair<uint64_t, uint64_t>> fwd, rev;
  tree.Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
    fwd.emplace_back(k, v);
    return true;
  });
  tree.ScanReverse(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
    rev.emplace_back(k, v);
    return true;
  });
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(fwd, rev);
}

TEST(BTreeReverseScanTest, BoundsInclusiveOnAbsentEndpoints) {
  BTree tree;
  for (uint64_t i = 0; i < 1000; i += 2) {  // even keys only
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  std::vector<uint64_t> seen;
  tree.ScanReverse(100, 200, [&](uint64_t k, uint64_t) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 51u);  // 200,198,...,100
  EXPECT_EQ(seen.front(), 200u);
  EXPECT_EQ(seen.back(), 100u);

  seen.clear();
  tree.ScanReverse(101, 199, [&](uint64_t k, uint64_t) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 49u);
  EXPECT_EQ(seen.front(), 198u);
  EXPECT_EQ(seen.back(), 102u);
}

TEST(BTreeReverseScanTest, ManyDuplicatesDescendByValue) {
  // One key spanning ~150 leaves: the chunked walk crosses many same-key
  // leaves via the fence cursor and must emit values strictly descending.
  BTree tree;
  constexpr uint64_t kVals = 10000;
  ASSERT_TRUE(tree.Insert(8, 0).ok());
  ASSERT_TRUE(tree.Insert(10, 0).ok());
  for (uint64_t v = 0; v < kVals; ++v) {
    ASSERT_TRUE(tree.Insert(9, v).ok());
  }
  uint64_t expect = kVals - 1;
  size_t count = 0;
  tree.ScanReverse(9, 9, [&](uint64_t k, uint64_t v) {
    EXPECT_EQ(k, 9u);
    EXPECT_EQ(v, expect);
    --expect;
    ++count;
    return true;
  });
  EXPECT_EQ(count, kVals);
}

TEST(BTreeReverseScanTest, EarlyStop) {
  BTree tree;
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  int visits = 0;
  tree.ScanReverse(0, UINT64_MAX, [&](uint64_t k, uint64_t) {
    EXPECT_EQ(k, 999u - visits);
    return ++visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(BTreeReverseScanTest, EmptyRangesVisitNothing) {
  BTree empty;
  int visits = 0;
  empty.ScanReverse(0, UINT64_MAX, [&](uint64_t, uint64_t) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);

  BTree tree;
  for (uint64_t i = 0; i <= 1000; i += 10) {  // multiples of ten
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  tree.ScanReverse(101, 109, [&](uint64_t, uint64_t) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(BTreeConcurrentTest, ConcurrentInsertersDisjointRanges) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr int kEach = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        const uint64_t k = static_cast<uint64_t>(t) * kEach + i;
        ASSERT_TRUE(tree.Insert(k, k * 2).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(kThreads) * kEach);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < kThreads * kEach; ++k) {
    uint64_t v;
    ASSERT_TRUE(tree.Lookup(k, &v).ok()) << k;
    ASSERT_EQ(v, k * 2);
  }
}

TEST(BTreeConcurrentTest, ConcurrentMixedReadersWriters) {
  BTree tree;
  for (uint64_t i = 0; i < 10000; i += 2) ASSERT_TRUE(tree.Insert(i, i).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    for (uint64_t i = 1; i < 10000; i += 2) {
      ASSERT_TRUE(tree.Insert(i, i).ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t);
      // A minimum read count guarantees coverage even on a single-CPU host
      // where the writer can finish before any reader is first scheduled.
      for (uint64_t i = 0; i < 500 || !stop.load(); ++i) {
        const uint64_t k = rng.Uniform(0, 9998) & ~1ULL;  // existing even key
        uint64_t v;
        ASSERT_TRUE(tree.Lookup(k, &v).ok());
        ASSERT_EQ(v, k);
        reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(tree.size(), 10000u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeConcurrentTest, ConcurrentSameKeyDifferentValues) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr int kEach = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        ASSERT_TRUE(
            tree.Insert(5, static_cast<uint64_t>(t) * kEach + i).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<uint64_t> values;
  tree.LookupAll(5, &values);
  EXPECT_EQ(values.size(), static_cast<size_t>(kThreads) * kEach);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace slidb
