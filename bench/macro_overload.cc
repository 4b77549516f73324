// Open-loop overload sweep: offered load × governor on/off over the PR-9
// contention scenarios. The question the matrix answers is the robustness
// one — what happens when offered load EXCEEDS capacity? Closed-loop
// harnesses cannot even ask it (their arrival rate adapts to whatever the
// system sustains), so this bench first calibrates closed-loop capacity per
// scenario, then replays Poisson arrivals at {0.5, 1, 2, 4}× that capacity
// with a per-transaction response deadline and retry-with-backoff, with the
// overload governor off (the "fast until it falls over" baseline) and on
// (admission tokens + bounded entry queue + hot-head wait-depth limiting).
//
// Reported per cell: goodput (commits that met their deadline), raw tps,
// commit p50/p99 measured from the SCHEDULED arrival (so queueing delay
// under overload is visible), and every shed/cancel/deadline counter the
// governor machinery maintains. Governor-off at high load shows the
// collapse — goodput sags and p99 runs away with the backlog — while
// governor-on sheds the excess at the door and stays flat.
//
// Emits a human table on stdout and, with --json=FILE, the
// BENCH_overload.json record consumed by CI's bench smoke job.
#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "fig_common.h"
#include "src/workload/contention.h"

namespace slidb::bench {
namespace {

constexpr double kOfferedFracs[] = {0.5, 1.0, 2.0, 4.0};
/// Response-time SLA measured from the scheduled arrival.
constexpr uint64_t kDeadlineUs = 20'000;
/// Hot-head wait-depth limit when the governor is on (Thomasian's d).
/// Must sit below max_inflight - 1 or the admission gate makes the depth
/// unreachable (at most max_inflight - 1 waiters can ever form).
constexpr uint32_t kHotWaitDepth = 2;

struct OverloadSample {
  std::string scenario;
  double frac = 0;
  double offered_tps = 0;
  const char* mode = "";
  int agents = 0;
  double tps = 0;
  double goodput_tps = 0;
  uint64_t commits = 0;
  uint64_t goodput_commits = 0;
  uint64_t deadline_misses = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t gov_sheds = 0;
  uint64_t gov_queue_timeouts = 0;
  uint64_t wait_depth_cancels = 0;
  uint64_t deadline_aborts = 0;
  uint64_t lock_deadline_cancels = 0;
  uint64_t retries = 0;
  uint64_t retries_exhausted = 0;
  double abort_rate = 0;
};

struct CellConfig {
  int agents = 8;
  uint32_t max_inflight = 2;
  uint32_t max_queue = 1;
};

/// Size the governor strictly below the agent count: the shed path only
/// exists when arrivals can outnumber tokens + queue slots, and the bench
/// must demonstrate it on any host. But not too far below — capacity is
/// calibrated closed-loop with ALL agents, and tokens sized off the (often
/// tiny) core count throttle governed service well under that capacity,
/// which reads as the governor losing even at loads it should carry.
/// Half the agent pool keeps service near calibrated capacity on an
/// oversubscribed host (the extra agents mostly overlap lock/log waits)
/// while leaving the other half to demonstrate shedding.
CellConfig MakeCellConfig(int agents) {
  CellConfig c;
  c.agents = agents;
  c.max_inflight = std::max(2u, static_cast<uint32_t>(agents) / 2);
  c.max_queue = std::max(1u, c.max_inflight / 4);
  return c;
}

/// One scenario = one database, calibrated once (closed loop, governor
/// off), then swept offered-load × governor with back-to-back windows so
/// the off/on rows of each load point see the same neighborhood of
/// background noise (same rationale as macro_contention's interleaving).
std::vector<OverloadSample> RunScenario(ContentionOptions copts,
                                        const CellConfig& cell,
                                        const BenchArgs& args) {
  DatabaseOptions o = BenchDbOptions(/*sli=*/false);
  // Small-host heat threshold, as in macro_contention: the wait-depth
  // limiter treats a head as hot on little contention.
  o.lock.hot_min_contended = 2;

  Database db(o);
  ContentionWorkload workload(copts);
  workload.Load(db);

  const double duration = args.quick ? std::min(0.4, args.duration_s)
                                     : args.duration_s;
  const double warmup = args.quick ? std::min(0.1, args.warmup_s)
                                   : args.warmup_s;

  // Discarded warm-up window (cold allocators, empty lock table).
  {
    DriverOptions wopts;
    wopts.num_agents = cell.agents;
    wopts.duration_s = std::min(0.3, duration);
    wopts.warmup_s = 0;
    wopts.seed = args.seed;
    (void)RunWorkload(db, workload, wopts);
  }

  // Capacity calibration: closed loop, no deadline, no governor.
  DriverOptions calib;
  calib.num_agents = cell.agents;
  calib.duration_s = std::max(0.3, duration / 2);
  calib.warmup_s = warmup;
  calib.seed = args.seed + 1;
  const DriverResult cap = RunWorkload(db, workload, calib);
  const double capacity = std::max(cap.tps, 100.0);
  std::printf("# %s: closed-loop capacity %.0f tps (%d agents)\n",
              ContentionScenarioName(copts.scenario), capacity, cell.agents);

  std::vector<OverloadSample> out;
  uint64_t run_seed = args.seed;
  for (const double frac : kOfferedFracs) {
    for (const bool governor_on : {false, true}) {
      if (governor_on) {
        db.governor().SetOptions(
            GovernorOptions{cell.max_inflight, cell.max_queue});
        db.lock_manager().mutable_options().hot_wait_depth = kHotWaitDepth;
      } else {
        db.governor().SetOptions(GovernorOptions{});
        db.lock_manager().mutable_options().hot_wait_depth = 0;
      }

      DriverOptions dopts;
      dopts.num_agents = cell.agents;
      dopts.duration_s = duration;
      dopts.warmup_s = warmup;
      dopts.seed = ++run_seed * 7919;
      dopts.offered_tps = frac * capacity;
      dopts.txn_deadline_us = kDeadlineUs;
      dopts.use_governor = governor_on;
      dopts.retry.max_attempts = 3;
      dopts.retry.backoff_base_us = 100;
      dopts.retry.backoff_cap_us = 2'000;
      const DriverResult r = RunWorkload(db, workload, dopts);

      OverloadSample s;
      s.scenario = ContentionScenarioName(copts.scenario);
      s.frac = frac;
      s.offered_tps = dopts.offered_tps;
      s.mode = governor_on ? "gov_on" : "gov_off";
      s.agents = cell.agents;
      s.tps = r.tps;
      s.goodput_tps = r.goodput_tps;
      s.commits = r.commits;
      s.goodput_commits = r.goodput_commits;
      s.deadline_misses = r.deadline_misses;
      s.p50_ms = static_cast<double>(r.latency_ns.Percentile(0.50)) / 1e6;
      s.p99_ms = static_cast<double>(r.latency_ns.Percentile(0.99)) / 1e6;
      s.gov_sheds = r.gov_sheds;
      s.gov_queue_timeouts = r.counters.Get(Counter::kGovQueueTimeouts);
      s.wait_depth_cancels = r.wait_depth_cancels;
      s.deadline_aborts = r.deadline_aborts;
      s.lock_deadline_cancels =
          r.counters.Get(Counter::kLockDeadlineCancels);
      s.retries = r.retries;
      s.retries_exhausted = r.retries_exhausted;
      s.abort_rate = r.AbortRate();
      out.push_back(std::move(s));
    }
  }
  // Restore defaults so the database is inert if reused.
  db.governor().SetOptions(GovernorOptions{});
  db.lock_manager().mutable_options().hot_wait_depth = 0;
  return out;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  int agents = 8;
  if (args.max_threads > 0 && agents > args.max_threads) {
    agents = std::max(2, args.max_threads);
  }
  const CellConfig cell = MakeCellConfig(agents);

  ContentionOptions zipf;
  zipf.scenario = ContentionScenario::kZipfMix;
  zipf.theta = 0.99;
  zipf.num_items = args.quick ? 5'000 : 20'000;

  ContentionOptions flash;
  flash.scenario = ContentionScenario::kFlashSale;
  flash.num_items = zipf.num_items;
  // Half the arrivals buy: a strong X-conflict stream on the single
  // hottest head, the regime wait-depth limiting exists for.
  flash.write_fraction = 0.5;

  std::vector<OverloadSample> samples;
  TablePrinter table({"scenario", "frac", "governor", "offered", "tps",
                      "goodput", "p99_ms", "sheds", "depth_cxl", "dl_aborts",
                      "retries"});
  const auto add_rows = [&](std::vector<OverloadSample> rows) {
    for (OverloadSample& s : rows) {
      table.Row({s.scenario, Fmt("%.1fx", s.frac), s.mode,
                 Fmt("%.0f", s.offered_tps), Fmt("%.0f", s.tps),
                 Fmt("%.0f", s.goodput_tps), Fmt("%.2f", s.p99_ms),
                 Fmt("%llu", static_cast<unsigned long long>(
                                 s.gov_sheds + s.gov_queue_timeouts)),
                 Fmt("%llu",
                     static_cast<unsigned long long>(s.wait_depth_cancels)),
                 Fmt("%llu", static_cast<unsigned long long>(
                                 s.deadline_aborts + s.lock_deadline_cancels)),
                 Fmt("%llu", static_cast<unsigned long long>(s.retries))});
      samples.push_back(std::move(s));
    }
  };

  std::printf("== open-loop overload sweep (%d agents, deadline %.0f ms, "
              "inflight %u, queue %u) ==\n",
              cell.agents, kDeadlineUs / 1e3, cell.max_inflight,
              cell.max_queue);
  add_rows(RunScenario(zipf, cell, args));
  add_rows(RunScenario(flash, cell, args));

  // Headline: graceful degradation — governor-on goodput at the highest
  // offered load vs its own peak, and vs the governor-off row.
  for (const char* scenario : {"zipf_mix", "flash_sale"}) {
    double on_peak = 0, on_last = 0, off_last = 0;
    for (const OverloadSample& s : samples) {
      if (s.scenario != scenario) continue;
      if (std::strcmp(s.mode, "gov_on") == 0) {
        on_peak = std::max(on_peak, s.goodput_tps);
        if (s.frac == 4.0) on_last = s.goodput_tps;
      } else if (s.frac == 4.0) {
        off_last = s.goodput_tps;
      }
    }
    if (on_peak > 0) {
      std::printf("# %s @4x: governor goodput %.0f (%.0f%% of its peak); "
                  "governor-off %.0f\n",
                  scenario, on_last, 100.0 * on_last / on_peak, off_last);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("macro_overload");
  WriteProvenance(json, args);
  json.Key("agents").Value(cell.agents);
  json.Key("max_inflight").Value(static_cast<uint64_t>(cell.max_inflight));
  json.Key("max_queue").Value(static_cast<uint64_t>(cell.max_queue));
  json.Key("deadline_us").Value(kDeadlineUs);
  json.Key("hot_wait_depth").Value(static_cast<uint64_t>(kHotWaitDepth));
  json.Key("rows").BeginArray();
  for (const OverloadSample& s : samples) {
    json.BeginObject();
    json.Key("scenario").Value(s.scenario);
    json.Key("frac").Value(s.frac);
    json.Key("offered_tps").Value(s.offered_tps);
    json.Key("mode").Value(s.mode);
    json.Key("agents").Value(s.agents);
    json.Key("tps").Value(s.tps);
    json.Key("goodput_tps").Value(s.goodput_tps);
    json.Key("commits").Value(s.commits);
    json.Key("goodput_commits").Value(s.goodput_commits);
    json.Key("deadline_misses").Value(s.deadline_misses);
    json.Key("p50_ms").Value(s.p50_ms);
    json.Key("p99_ms").Value(s.p99_ms);
    json.Key("gov_sheds").Value(s.gov_sheds);
    json.Key("gov_queue_timeouts").Value(s.gov_queue_timeouts);
    json.Key("wait_depth_cancels").Value(s.wait_depth_cancels);
    json.Key("deadline_aborts").Value(s.deadline_aborts);
    json.Key("lock_deadline_cancels").Value(s.lock_deadline_cancels);
    json.Key("retries").Value(s.retries);
    json.Key("retries_exhausted").Value(s.retries_exhausted);
    json.Key("abort_rate").Value(s.abort_rate);
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
