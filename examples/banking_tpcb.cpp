// Banking example: TPC-B debit/credit over branches, tellers, accounts and
// history, demonstrating ACID behaviour under concurrency: after any number
// of concurrent transfers the account/teller/branch totals must agree.
//
//   $ ./example_banking_tpcb [agents] [seconds]
#include <cstdio>
#include <cstdlib>

#include "src/workload/driver.h"
#include "src/workload/tpcb.h"

using namespace slidb;

int main(int argc, char** argv) {
  const int agents = argc > 1 ? std::atoi(argv[1]) : 4;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 1.0;

  DatabaseOptions options;
  options.lock.sli_mode = SliMode::kOn;  // banking wants every µs of headroom
  Database db(options);

  TpcbOptions bank;
  bank.branches = 8;
  bank.tellers_per_branch = 10;
  bank.accounts_per_branch = 5'000;
  TpcbWorkload workload(bank);
  std::printf("loading %u branches / %u tellers / %u accounts...\n",
              bank.branches, bank.branches * bank.tellers_per_branch,
              bank.branches * bank.accounts_per_branch);
  workload.Load(db);

  DriverOptions dopts;
  dopts.num_agents = agents;
  dopts.duration_s = seconds;
  dopts.warmup_s = 0.2;
  const DriverResult result = RunWorkload(db, workload, dopts);

  std::printf("\n%d agents, %.1fs: %.0f transfers/s, p95 latency %.0f us\n",
              agents, seconds, result.tps,
              static_cast<double>(result.latency_ns.Percentile(0.95)) / 1000);

  // The audit: money is conserved across all three ledgers.
  auto auditor = db.CreateAgent(424242);
  int64_t accounts_total, tellers_total, branches_total;
  const bool consistent = workload.CheckBalanceInvariant(
      db, *auditor, &accounts_total, &tellers_total, &branches_total);
  std::printf("audit: accounts=%lld tellers=%lld branches=%lld -> %s\n",
              static_cast<long long>(accounts_total),
              static_cast<long long>(tellers_total),
              static_cast<long long>(branches_total),
              consistent ? "CONSISTENT" : "BROKEN");
  return consistent ? 0 : 1;
}
