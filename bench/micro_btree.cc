// B-tree probe microbenchmark for the optimistic-lock-coupling (OLC) index.
//
// The paper's method is to find and kill the next centralized critical
// section; after the lock manager and the log, the index read path was it.
// OLC readers validate node versions instead of latching — zero stores to
// shared node memory on the conflict-free path — so probe throughput
// should scale with hardware contexts.
//
// Two sections:
//   probe: read-only Lookup throughput across a thread ladder.
//   mixed: read/write ratio sweep (insert/remove churn) at one thread and
//          at the ladder's most contended point — measures restart cost
//          under conflicts, the regime OLC trades for its read-path win.
//
// Emits a table on stdout and, with --json=FILE, BENCH_btree.json:
// {"bench":"micro_btree",<provenance>,"probe":[{"mode":"olc","threads":…,
//  "mops":…,"restarts":…}…],"mixed":[{"mode":"olc","threads":…,
//  "write_pct":…,…}…]}.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "src/stats/counters.h"
#include "src/storage/btree.h"
#include "src/util/rng.h"
#include "src/util/time_util.h"

namespace slidb::bench {
namespace {

struct Sample {
  int threads;
  int write_pct;  // 0 for the probe section
  double mops;
  double ns_per_op;
  uint64_t restarts;
  uint64_t leaf_reclaims;
};

Sample RunOne(int threads, int write_pct, uint64_t keys, double warmup_s,
              double duration_s) {
  BTree tree;
  for (uint64_t i = 0; i < keys; ++i) {
    if (!tree.Insert(i, i).ok()) std::abort();
  }

  std::atomic<bool> warm{true};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> ops(static_cast<size_t>(threads), 0);
  std::vector<CounterSet> counters(static_cast<size_t>(threads));

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ScopedCounterSet routed(&counters[t]);
      Rng rng(1234 + static_cast<uint64_t>(t));
      // Writer churn: alternate insert/remove of thread-private values so
      // the tree size stays bounded while leaves split and drain.
      std::vector<std::pair<uint64_t, uint64_t>> mine;
      uint64_t seq = 0;
      uint64_t local = 0;
      bool counted = false;
      for (;;) {
        if (stop.load(std::memory_order_relaxed)) break;
        if (!counted && !warm.load(std::memory_order_relaxed)) {
          local = 0;  // measurement window opens: discard warm-up ops
          counted = true;
        }
        const bool write =
            write_pct > 0 &&
            rng.Uniform(0, 99) < static_cast<uint64_t>(write_pct);
        if (write) {
          if (mine.size() < 64 || (seq & 1) == 0) {
            const uint64_t k = rng.Uniform(0, keys - 1);
            const uint64_t v =
                keys + (static_cast<uint64_t>(t) << 32) + seq;
            if (tree.Insert(k, v).ok()) mine.emplace_back(k, v);
          } else {
            const auto victim = mine[rng.Uniform(0, mine.size() - 1)];
            if (tree.Remove(victim.first, victim.second).ok()) {
              mine.erase(std::find(mine.begin(), mine.end(), victim));
            }
          }
          ++seq;
        } else {
          uint64_t v;
          (void)tree.Lookup(rng.Uniform(0, keys - 1), &v);
        }
        ++local;
      }
      ops[t] = local;
    });
  }

  // Sleep (not spin): the coordinator must not steal a hardware context
  // from the workers on small hosts.
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const uint64_t start_us = NowMicros();
  warm.store(false);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  stop.store(true);
  const uint64_t elapsed_us = NowMicros() - start_us;
  for (auto& w : workers) w.join();

  uint64_t total_ops = 0;
  CounterSet total;
  for (int t = 0; t < threads; ++t) {
    total_ops += ops[t];
    total.Merge(counters[t]);
  }

  Sample s;
  s.threads = threads;
  s.write_pct = write_pct;
  s.mops = static_cast<double>(total_ops) / static_cast<double>(elapsed_us);
  s.ns_per_op = total_ops > 0 ? static_cast<double>(elapsed_us) * 1000.0 *
                                    threads / static_cast<double>(total_ops)
                              : 0.0;
  s.restarts = total.Get(Counter::kBtreeRestarts);
  s.leaf_reclaims = total.Get(Counter::kBtreeLeafReclaims);
  return s;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  const uint64_t keys = args.quick ? 50'000 : 200'000;
  const double warmup = args.quick ? 0.05 : args.warmup_s;
  const double window = args.quick ? 0.15 : args.duration_s;
  std::vector<int> ladder = ThreadLadder(args.max_threads);
  if (args.quick && ladder.size() > 4) {
    ladder = {ladder[0], ladder[1], ladder[ladder.size() / 2],
              ladder.back()};
  }
  std::vector<Sample> probe, mixed;

  TablePrinter table(
      {"section", "threads", "write%", "Mops/s", "ns/op(thread)",
       "restarts", "leaf_reclaims"});
  for (int threads : ladder) {
    const Sample s = RunOne(threads, 0, keys, warmup, window);
    probe.push_back(s);
    table.Row({"probe", Fmt("%d", s.threads), "0", Fmt("%.2f", s.mops),
               Fmt("%.0f", s.ns_per_op),
               Fmt("%llu", static_cast<unsigned long long>(s.restarts)),
               "-"});
  }
  // Mixed ratios at the most contended ladder point (plus single-thread
  // for the uncontended floor).
  const int contended = ladder.back();
  const std::vector<int> mixed_threads =
      contended > 1 ? std::vector<int>{1, contended} : std::vector<int>{1};
  for (int threads : mixed_threads) {
    for (int write_pct : {5, 50}) {
      const Sample s = RunOne(threads, write_pct, keys, warmup, window);
      mixed.push_back(s);
      table.Row(
          {"mixed", Fmt("%d", s.threads), Fmt("%d", s.write_pct),
           Fmt("%.2f", s.mops), Fmt("%.0f", s.ns_per_op),
           Fmt("%llu", static_cast<unsigned long long>(s.restarts)),
           Fmt("%llu", static_cast<unsigned long long>(s.leaf_reclaims))});
    }
  }

  // Headline: read-path scaling from one thread to max parallelism.
  if (probe.front().mops > 0) {
    std::printf("# probe @%d threads: %.2f Mops/s (%.2fx the 1-thread "
                "rate)\n",
                probe.back().threads, probe.back().mops,
                probe.back().mops / probe.front().mops);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("micro_btree");
  WriteProvenance(json, args);
  json.Key("keys").Value(keys);
  json.Key("probe").BeginArray();
  for (const Sample& s : probe) {
    json.BeginObject();
    json.Key("mode").Value("olc");
    json.Key("threads").Value(static_cast<int64_t>(s.threads));
    json.Key("mops").Value(s.mops);
    json.Key("ns_per_op").Value(s.ns_per_op);
    json.Key("restarts").Value(s.restarts);
    json.EndObject();
  }
  json.EndArray();
  json.Key("mixed").BeginArray();
  for (const Sample& s : mixed) {
    json.BeginObject();
    json.Key("mode").Value("olc");
    json.Key("threads").Value(static_cast<int64_t>(s.threads));
    json.Key("write_pct").Value(static_cast<int64_t>(s.write_pct));
    json.Key("mops").Value(s.mops);
    json.Key("restarts").Value(s.restarts);
    json.Key("leaf_reclaims").Value(s.leaf_reclaims);
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
