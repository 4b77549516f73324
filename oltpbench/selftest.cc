// Self-test of the benchmark's own statistics on synthetic samples:
// percentile selection, the sample reservoir, medians, per-sub-window CPU
// accounting and the failure base. Exits non-zero on the first mismatch;
// run.py runs it after every build, before any measurement.
#include <cmath>
#include <cstdio>
#include <vector>

#include "oltpbench/stats.h"
#include "src/util/rng.h"

namespace oltpbench {
namespace {

int failures = 0;
int checks = 0;

void Expect(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<uint32_t> v;
  slidb::Rng rng(3);
  for (uint32_t i = 1; i <= 100; ++i) v.push_back(i);
  for (size_t i = v.size() - 1; i > 0; --i) {
    std::swap(v[i], v[rng.Uniform(0, i)]);
  }
  Expect(Percentile(v, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(v, 1.0) == 100, "p100 of 1..100 is 100");
  Expect(Percentile(v, 0.01) == 1, "p1 of 1..100 is 1");
  Expect(Percentile(v, 0.505) == 51, "nearest rank rounds the rank up");

  std::vector<uint32_t> one{7};
  Expect(Percentile(one, 0.5) == 7 && Percentile(one, 0.99) == 7,
         "a single sample is every percentile");
  std::vector<uint32_t> none;
  Expect(Percentile(none, 0.5) == 0, "no samples give 0");
  std::vector<uint32_t> dup{5, 5, 5, 9};
  Expect(Percentile(dup, 0.75) == 5 && Percentile(dup, 0.76) == 9,
         "duplicates keep their ranks");

  std::vector<uint32_t> some_failed{10, 20, 30, kFailedSample, kFailedSample};
  Expect(Percentile(some_failed, 0.5) == 30,
         "failed transactions rank above every completed one");
  std::vector<uint32_t> most_failed{10, kFailedSample, kFailedSample};
  Expect(Percentile(most_failed, 0.5) == kFailedSample,
         "a failed majority moves the median to the failure value");
}

void TestReservoir() {
  Reservoir r(100);
  slidb::Rng rng(5);
  for (uint32_t i = 0; i < 50; ++i) r.Add(i, rng.Next());
  bool in_order = r.kept().size() == 50;
  for (uint32_t i = 0; in_order && i < 50; ++i) in_order = r.kept()[i] == i;
  Expect(in_order, "below capacity every sample is kept in order");

  Reservoir big(1000);
  for (uint32_t i = 0; i < 100'000; ++i) big.Add(i, rng.Next());
  Expect(big.seen() == 100'000, "the reservoir counts every sample");
  Expect(big.kept().size() == 1000, "the reservoir keeps its capacity");
  double sum = 0;
  bool in_range = true;
  for (uint32_t v : big.kept()) {
    sum += v;
    in_range = in_range && v < 100'000;
  }
  Expect(in_range, "kept samples come from the stream");
  // A uniform sample of 0..99999 has mean 49999.5 with standard error
  // ~913 at n = 1000; the fixed seed makes this deterministic.
  Expect(std::fabs(sum / 1000 - 49'999.5) < 4 * 913,
         "the reservoir samples the stream uniformly");
}

void TestMedian() {
  Expect(Near(Median({3, 1, 2}), 2), "median of an odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even count");
  Expect(Near(Median({}), 0), "median of nothing is 0");
}

void TestCpuAccounting() {
  const std::vector<CpuMark> marks = {{0, 0},
                                      {2'000'000, 1'500'000},
                                      {5'000'000, 4'000'000},
                                      {6'000'000, 4'500'000}};
  const std::vector<uint64_t> completed = {1000, 0, 250};
  const auto all = CpuPerTxn(marks, completed, {0, 1, 2});
  Expect(all.size() == 2, "a sub-window with no completions has no ratio");
  Expect(all.size() == 2 && Near(all[0].process_us_per_txn, 2.0) &&
             Near(all[0].agent_us_per_txn, 1.5) &&
             Near(all[0].background_us_per_txn, 0.5),
         "CPU per transaction of sub-window 0");
  Expect(all.size() == 2 && Near(all[1].process_us_per_txn, 4.0) &&
             Near(all[1].agent_us_per_txn, 2.0) &&
             Near(all[1].background_us_per_txn, 2.0),
         "CPU per transaction of sub-window 2");
  const auto only_last = CpuPerTxn(marks, completed, {2, 3});
  Expect(only_last.size() == 1 && Near(only_last[0].process_us_per_txn, 4.0),
         "only the chosen sub-windows count, within the marks");
}

void TestFailureBase() {
  Outcomes o;
  o.committed = 90;
  o.rolled_back = 8;
  o.failed = 2;
  Expect(o.completed() == 98, "rollbacks the spec mandates are completed");
  Expect(o.attempted() == 100, "attempted is completed plus failed");
  const Outcomes ok = ReportedOutcomes(o, true);
  Expect(ok.attempted() == 100 && ok.failed == 2,
         "a passing check keeps the engine failures");
  const Outcomes bad = ReportedOutcomes(o, false);
  Expect(bad.attempted() == 100 && bad.failed == 100 && bad.completed() == 0,
         "a failed check fails every transaction it covers");
  Outcomes sum;
  sum += o;
  sum += o;
  Expect(sum.committed == 180 && sum.rolled_back == 16 && sum.failed == 4,
         "outcomes add up across agents");
}

}  // namespace
}  // namespace oltpbench

int main() {
  oltpbench::TestPercentile();
  oltpbench::TestReservoir();
  oltpbench::TestMedian();
  oltpbench::TestCpuAccounting();
  oltpbench::TestFailureBase();
  if (oltpbench::failures != 0) {
    std::fprintf(stderr, "selftest: %d of %d checks failed\n",
                 oltpbench::failures, oltpbench::checks);
    return 1;
  }
  std::fprintf(stderr, "selftest: %d checks passed\n", oltpbench::checks);
  return 0;
}
