// Retail example: the TPC-C "small mix" the paper analyses (Payment /
// New Order / Order Status at 46.7/48.9/4.3) on a multi-warehouse store,
// comparing SLI off vs on and verifying order-id consistency afterwards.
//
//   $ ./example_retail_tpcc [agents]
#include <cstdio>
#include <cstdlib>

#include "src/workload/driver.h"
#include "src/workload/tpcc.h"

using namespace slidb;

int main(int argc, char** argv) {
  const int agents = argc > 1 ? std::atoi(argv[1]) : 4;

  DatabaseOptions options;
  options.lock.sim_queue_work_ns = 100;
  Database db(options);

  TpccOptions store;
  store.warehouses = 4;
  store.districts_per_warehouse = 10;
  store.customers_per_district = 300;
  store.items = 1'000;
  store.initial_orders_per_district = 30;
  TpccWorkload workload(store, TpccWorkload::Mix::kSmall);
  std::printf("loading %u warehouses x %u districts x %u customers...\n",
              store.warehouses, store.districts_per_warehouse,
              store.customers_per_district);
  workload.Load(db);

  DriverOptions dopts;
  dopts.num_agents = agents;
  dopts.duration_s = 1.0;
  dopts.warmup_s = 0.3;

  const DriverResult base = RunWorkload(db, workload, dopts);
  std::printf("\nbaseline: %.0f txn/s (%llu deadlock retries)\n", base.tps,
              static_cast<unsigned long long>(base.deadlock_aborts));

  db.SetSliMode(SliMode::kOn);
  const DriverResult sli = RunWorkload(db, workload, dopts);
  std::printf("with SLI: %.0f txn/s (%+.1f%%)\n", sli.tps,
              base.tps > 0 ? 100.0 * (sli.tps - base.tps) / base.tps : 0.0);

  auto auditor = db.CreateAgent(99);
  const bool ok = workload.CheckConsistency(db, *auditor);
  std::printf("order-id consistency check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
