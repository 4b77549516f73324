// Contention-scenario matrix: the purpose-built skewed workloads from
// src/workload/contention.h with SLI off vs on (the paper's Figures 9/10),
// across a Zipf-theta sweep (zipf-mix) and the three hotspot scenarios
// (flash-sale, auction, social-feed).
//
// Each row reports throughput plus what the heat machinery saw: hot-head
// counts from the HotTracker windows, cumulative contended-head counts
// (stable after an idle tail, used by CI), and the SLI outcome counters
// (inherited / reclaimed / invalidated / discarded).
//
// Emits a human table on stdout and, with --json=FILE, the
// BENCH_contention.json record consumed by CI's bench smoke job.
#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "fig_common.h"
#include "src/workload/contention.h"

namespace slidb::bench {
namespace {

constexpr SliMode kModes[] = {SliMode::kOff, SliMode::kOn};
constexpr double kThetaSweep[] = {0.0, 0.6, 0.9, 0.99, 1.2};
constexpr ContentionScenario kHotspots[] = {ContentionScenario::kFlashSale,
                                            ContentionScenario::kAuction,
                                            ContentionScenario::kSocialFeed};

struct ContentionSample {
  std::string scenario;
  double theta = 0;
  const char* mode = "";
  int agents = 0;
  double tps = 0;
  uint64_t commits = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t lock_waits = 0;
  ContentionHeatReport heat;
  uint64_t inherits = 0;
  uint64_t reclaims = 0;
  uint64_t invalidated = 0;
  uint64_t discarded = 0;
};

constexpr int kReps = 3;

/// One matrix cell = one database + loaded scenario, both SLI modes
/// measured against it. Modes are interleaved round-robin at window
/// granularity (off, on, off, on, ...) and each mode keeps its
/// median window: on a small shared host the background load swings by 2-3x
/// on a minutes scale, so back-to-back windows are the only ones that are
/// comparable — sequential per-mode runs would measure the neighbors, not
/// the policy. SetSliMode between windows is the documented between-runs
/// mutation; RunWorkload joins every agent before returning.
std::vector<ContentionSample> RunCell(ContentionOptions copts, int agents,
                                      const BenchArgs& args) {
  DatabaseOptions o = BenchDbOptions(/*sli=*/false);
  // Small-host threshold: with 2-4 driver threads a hot head sees fewer
  // contended latch acquisitions per window than the paper's 64-context
  // Niagara, so trigger earlier.
  o.lock.hot_min_contended = 2;

  Database db(o);
  ContentionWorkload workload(copts);
  workload.Load(db);

  DriverOptions dopts;
  dopts.num_agents = agents;
  dopts.duration_s = args.duration_s;
  dopts.warmup_s = args.warmup_s;
  dopts.seed = args.seed;

  // Discarded warm-up window: the first moments after a load run on cold
  // allocators, an unwarmed buffer pool, and an empty lock table, which
  // would systematically depress whichever mode goes first.
  {
    DriverOptions wopts = dopts;
    wopts.duration_s = std::min(0.5, args.duration_s);
    wopts.warmup_s = 0.0;
    (void)RunWorkload(db, workload, wopts);
  }

  constexpr size_t kNumModes = std::size(kModes);
  DriverResult reps[kNumModes][kReps];
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t m = 0; m < kNumModes; ++m) {
      db.SetSliMode(kModes[m]);
      reps[m][rep] = RunWorkload(db, workload, dopts);
    }
  }
  // Cumulative over the cell's whole run; identical for both rows by
  // construction (heat is a property of the workload, not the policy).
  const ContentionHeatReport heat = ContentionWorkload::MeasureHeat(db);

  std::vector<ContentionSample> out;
  for (size_t m = 0; m < kNumModes; ++m) {
    std::sort(std::begin(reps[m]), std::end(reps[m]),
              [](const DriverResult& a, const DriverResult& b) {
                return a.tps < b.tps;
              });
    const DriverResult& r = reps[m][kReps / 2];
    ContentionSample s;
    s.scenario = ContentionScenarioName(copts.scenario);
    s.theta = copts.theta;
    s.mode = SliModeName(kModes[m]);
    s.agents = agents;
    s.tps = r.tps;
    s.commits = r.commits;
    s.deadlock_aborts = r.deadlock_aborts;
    s.lock_waits = r.counters.Get(Counter::kLockWaits);
    s.heat = heat;
    s.inherits = r.counters.Get(Counter::kSliInherited);
    s.reclaims = r.counters.Get(Counter::kSliReclaimed);
    s.invalidated = r.counters.Get(Counter::kSliInvalidated);
    s.discarded = r.counters.Get(Counter::kSliDiscarded);
    out.push_back(std::move(s));
  }
  return out;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  int agents = args.quick ? 2 : 4;
  if (args.max_threads > 0 && agents > args.max_threads) {
    agents = args.max_threads;
  }

  ContentionOptions base;
  base.num_items = args.quick ? 5'000 : 20'000;

  std::vector<ContentionSample> samples;
  TablePrinter table({"scenario", "theta", "sli", "tps", "commits",
                      "hot_heads", "cont_frac", "inherits", "reclaims"});
  const auto add_row = [&](const ContentionSample& s) {
    samples.push_back(s);
    table.Row(
        {s.scenario, Fmt("%.2f", s.theta), s.mode, Fmt("%.0f", s.tps),
         Fmt("%llu", static_cast<unsigned long long>(s.commits)),
         Fmt("%llu", static_cast<unsigned long long>(s.heat.hot_heads)),
         Fmt("%.3f", s.heat.contended_fraction),
         Fmt("%llu", static_cast<unsigned long long>(s.inherits)),
         Fmt("%llu", static_cast<unsigned long long>(s.reclaims))});
  };

  std::printf("== zipf-mix theta sweep (%d agents) ==\n", agents);
  for (double theta : kThetaSweep) {
    ContentionOptions copts = base;
    copts.scenario = ContentionScenario::kZipfMix;
    copts.theta = theta;
    for (ContentionSample& s : RunCell(copts, agents, args)) {
      add_row(s);
    }
  }

  std::printf("\n== hotspot scenarios (%d agents) ==\n", agents);
  for (ContentionScenario sc : kHotspots) {
    ContentionOptions copts = base;
    copts.scenario = sc;
    for (ContentionSample& s : RunCell(copts, agents, args)) {
      add_row(s);
    }
  }

  // Headline: on vs off at the skewed end of the sweep.
  const auto find_tps = [&](const char* scenario, double theta,
                            const char* mode) {
    for (const ContentionSample& s : samples) {
      if (s.scenario == scenario && s.theta == theta &&
          std::strcmp(s.mode, mode) == 0) {
        return s.tps;
      }
    }
    return 0.0;
  };
  for (double theta : {0.99, 1.2}) {
    const double off = find_tps("zipf_mix", theta, "sli_off");
    const double on = find_tps("zipf_mix", theta, "sli_on");
    if (off > 0) {
      std::printf("# zipf-mix theta=%.2f: on/off = %.2fx (%.0f vs %.0f tps)\n",
                  theta, on / off, on, off);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("macro_contention");
  WriteProvenance(json, args);
  json.Key("agents").Value(agents);
  json.Key("num_items").Value(base.num_items);
  json.Key("rows").BeginArray();
  for (const ContentionSample& s : samples) {
    json.BeginObject();
    json.Key("scenario").Value(s.scenario);
    json.Key("theta").Value(s.theta);
    json.Key("mode").Value(s.mode);
    json.Key("agents").Value(s.agents);
    json.Key("tps").Value(s.tps);
    json.Key("commits").Value(s.commits);
    json.Key("deadlock_aborts").Value(s.deadlock_aborts);
    json.Key("lock_waits").Value(s.lock_waits);
    json.Key("heat").BeginObject();
    json.Key("heads").Value(s.heat.heads);
    json.Key("hot_heads").Value(s.heat.hot_heads);
    json.Key("contended_heads").Value(s.heat.contended_heads);
    json.Key("total_acquires").Value(s.heat.total_acquires);
    json.Key("total_contended").Value(s.heat.total_contended);
    json.Key("contended_fraction").Value(s.heat.contended_fraction);
    json.EndObject();
    json.Key("sli").BeginObject();
    json.Key("inherits").Value(s.inherits);
    json.Key("reclaims").Value(s.reclaims);
    json.Key("invalidated").Value(s.invalidated);
    json.Key("discarded").Value(s.discarded);
    json.EndObject();
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
