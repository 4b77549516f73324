// Grant-path microbenchmark: acquire+release latency of one probe
// transaction against a lock whose queue already holds N compatible
// requests from other transactions.
//
// This is the direct measurement of the paper's §3.2 pathology — "the
// effort required to grant or release a lock grows with the number of
// active transactions" — and of this repo's fix: with conflict detection
// answered from the per-head grant summary (one AND against the cached
// mode bitset) and releases skipping the queue walk when nobody waits, the
// curve must be flat in queue depth where the seed implementation was
// linear.
//
// Emits a human table on stdout and, with --json=FILE, a BENCH_*.json
// record: {"bench":"micro_grant_path","results":[{"series":…,"depth":…,
// "ns_per_op":…,"cangrant_fast":…,"cangrant_slow":…}…]}.
#include <memory>
#include <vector>

#include "bench_common.h"
#include "src/lock/lock_manager.h"
#include "src/stats/counters.h"
#include "src/util/time_util.h"

namespace slidb::bench {
namespace {

struct Series {
  const char* name;
  LockMode holder_mode;  ///< mode the N queued transactions hold
  LockMode probe_mode;   ///< compatible mode the measured probe requests
};

struct Sample {
  const char* series;
  int depth;
  double ns_per_op;
  uint64_t fast;
  uint64_t slow;
};

Sample RunOne(const Series& series, int depth, uint64_t iters) {
  LockManagerOptions o;
  // Measure the real code path, not the simulated many-context load.
  o.sim_queue_work_ns = 0;
  LockManager lm(o);
  const LockId target = LockId::Table(0, 1);

  // Build the queue: `depth` transactions holding `holder_mode`.
  std::vector<std::unique_ptr<LockClient>> holders;
  uint64_t txn = 1;
  for (int i = 0; i < depth; ++i) {
    holders.push_back(std::make_unique<LockClient>());
    holders.back()->StartTxn(txn++, static_cast<uint32_t>(i));
    if (!lm.Lock(holders.back().get(), target, series.holder_mode).ok()) {
      std::fprintf(stderr, "holder %d failed to acquire\n", i);
      std::abort();
    }
  }

  LockClient probe;
  CounterSet counters;
  ScopedCounterSet routed(&counters);

  // Warm up (first FindOrCreate, cache effects), then measure.
  for (uint64_t i = 0; i < iters / 10 + 1; ++i) {
    probe.StartTxn(txn++, 99);
    (void)lm.Lock(&probe, target, series.probe_mode);
    lm.ReleaseAll(&probe, nullptr, false);
  }
  const CounterSet before = counters;
  const uint64_t start_us = NowMicros();
  for (uint64_t i = 0; i < iters; ++i) {
    probe.StartTxn(txn++, 99);
    (void)lm.Lock(&probe, target, series.probe_mode);
    lm.ReleaseAll(&probe, nullptr, false);
  }
  const uint64_t elapsed_us = NowMicros() - start_us;
  const CounterSet delta = counters.Delta(before);

  for (auto& h : holders) lm.ReleaseAll(h.get(), nullptr, false);

  Sample s;
  s.series = series.name;
  s.depth = depth;
  s.ns_per_op = static_cast<double>(elapsed_us) * 1000.0 /
                static_cast<double>(iters);
  s.fast = delta.Get(Counter::kCanGrantFast);
  s.slow = delta.Get(Counter::kCanGrantSlow);
  return s;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  const uint64_t iters = args.quick ? 20'000 : 200'000;
  std::vector<int> depths = {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
  if (args.quick) depths = {0, 1, 4, 16, 64};

  // Both series keep the queue fully compatible with the probe, so every
  // probe acquire is grantable: S readers probed by another S, and the
  // intention-mode crowd (the SLI sweet spot) probed by IX.
  const Series all_series[] = {
      {"S_over_S", LockMode::kS, LockMode::kS},
      {"IX_over_IS", LockMode::kIS, LockMode::kIX},
  };

  TablePrinter table({"series", "depth", "ns/op", "cangrant_fast",
                      "cangrant_slow"});
  std::vector<Sample> samples;
  for (const Series& series : all_series) {
    for (int depth : depths) {
      const Sample s = RunOne(series, depth, iters);
      samples.push_back(s);
      table.Row({s.series, Fmt("%d", s.depth), Fmt("%.1f", s.ns_per_op),
                 Fmt("%llu", static_cast<unsigned long long>(s.fast)),
                 Fmt("%llu", static_cast<unsigned long long>(s.slow))});
    }
  }

  // Flatness report: latency at max depth over latency at depth 0. The
  // seed's linear queue walks put this in the tens; the summary-based path
  // should hold it near 1.
  for (const Series& series : all_series) {
    double at0 = 0, atmax = 0;
    int maxd = 0;
    for (const Sample& s : samples) {
      if (s.series != static_cast<const char*>(series.name)) continue;
      if (s.depth == 0) at0 = s.ns_per_op;
      if (s.depth >= maxd) {
        maxd = s.depth;
        atmax = s.ns_per_op;
      }
    }
    std::printf("# %s: depth-%d/depth-0 latency ratio = %.2fx\n", series.name,
                maxd, at0 > 0 ? atmax / at0 : 0.0);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("micro_grant_path");
  WriteProvenance(json, args);
  json.Key("iters").Value(iters);
  json.Key("results").BeginArray();
  for (const Sample& s : samples) {
    json.BeginObject();
    json.Key("series").Value(s.series);
    json.Key("depth").Value(static_cast<int64_t>(s.depth));
    json.Key("ns_per_op").Value(s.ns_per_op);
    json.Key("cangrant_fast").Value(s.fast);
    json.Key("cangrant_slow").Value(s.slow);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!args.json_path.empty()) {
    if (!json.WriteTo(args.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace slidb::bench

int main(int argc, char** argv) { return slidb::bench::Main(argc, argv); }
