// Telecom HLR example: the workload class that motivates the paper —
// masses of very short transactions against a Home Location Register
// (TM1 / NDBB). Runs the full mix with and without SLI and prints the
// work/contention breakdown for both, reproducing the Fig 6 → Fig 10
// transition in miniature.
//
//   $ ./example_telecom_hlr [agents]
#include <cstdio>
#include <cstdlib>

#include "src/workload/driver.h"
#include "src/workload/tm1.h"

using namespace slidb;

int main(int argc, char** argv) {
  const int agents = argc > 1 ? std::atoi(argv[1]) : 8;

  DatabaseOptions options;
  options.lock.sim_queue_work_ns = 100;  // emulate a many-context machine
  Database db(options);

  Tm1Options tm1_options;
  tm1_options.subscribers = 10'000;
  Tm1Workload workload(tm1_options);
  std::printf("loading %llu subscribers...\n",
              static_cast<unsigned long long>(tm1_options.subscribers));
  workload.Load(db);

  DriverOptions dopts;
  dopts.num_agents = agents;
  dopts.duration_s = 1.0;
  dopts.warmup_s = 0.3;

  std::printf("\n=== baseline (SLI off), %d agents ===\n", agents);
  const DriverResult base = RunWorkload(db, workload, dopts);
  std::printf("throughput: %.0f txn/s (%.1f%% user aborts by design)\n",
              base.tps, 100.0 * base.UserAbortRate());
  std::printf("%s", base.profile.ToString().c_str());

  db.SetSliMode(SliMode::kOn);
  std::printf("\n=== SLI on, %d agents ===\n", agents);
  const DriverResult sli = RunWorkload(db, workload, dopts);
  std::printf("throughput: %.0f txn/s (%+.1f%% vs baseline)\n", sli.tps,
              base.tps > 0 ? 100.0 * (sli.tps - base.tps) / base.tps : 0.0);
  std::printf("%s", sli.profile.ToString().c_str());

  std::printf("\nSLI outcomes: inherited=%llu reclaimed=%llu "
              "invalidated=%llu discarded=%llu\n",
              static_cast<unsigned long long>(
                  sli.counters.Get(Counter::kSliInherited)),
              static_cast<unsigned long long>(
                  sli.counters.Get(Counter::kSliReclaimed)),
              static_cast<unsigned long long>(
                  sli.counters.Get(Counter::kSliInvalidated)),
              static_cast<unsigned long long>(
                  sli.counters.Get(Counter::kSliDiscarded)));
  return 0;
}
