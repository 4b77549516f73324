// Quickstart: create a database, run transactions, toggle Speculative Lock
// Inheritance, and read the built-in statistics.
//
//   $ ./example_quickstart
#include <cstdio>
#include <cstring>

#include "src/engine/database.h"

using namespace slidb;

int main() {
  // 1. A database with SLI available but disabled (the paper's baseline).
  //    Heat threshold 0 counts every lock as hot; see step 7.
  DatabaseOptions options;
  options.lock.sli_mode = SliMode::kOff;
  options.lock.hot_min_contended = 0;
  Database db(options);

  // 2. Schema: one table with a hash primary index.
  const TableId accounts = db.CreateTable("accounts");
  const IndexId pk = db.CreateIndex(accounts, "pk", IndexKind::kHash,
                                    /*unique=*/true);

  // 3. An agent executes transactions back-to-back. SLI passes locks
  //    between consecutive transactions of the same agent.
  auto agent = db.CreateAgent(/*seed=*/1);

  // 4. Insert a few rows transactionally.
  db.Begin(agent.get());
  for (int64_t id = 0; id < 10; ++id) {
    int64_t balance = 100 * id;
    Rid rid;
    if (!db.Insert(agent.get(), accounts,
                   {reinterpret_cast<const uint8_t*>(&balance),
                    sizeof(balance)},
                   &rid)
             .ok()) {
      std::fprintf(stderr, "insert failed\n");
      return 1;
    }
    db.IndexInsert(agent.get(), pk, static_cast<uint64_t>(id), rid.ToU64());
  }
  if (!db.Commit(agent.get()).ok()) return 1;
  std::printf("loaded 10 rows\n");

  // 5. Read-modify-write with explicit X locking (SELECT ... FOR UPDATE).
  db.Begin(agent.get());
  uint64_t rid_u64;
  db.IndexLookup(pk, 7, &rid_u64);
  const Rid rid = Rid::FromU64(rid_u64);
  int64_t balance;
  db.LockRowExclusive(agent.get(), accounts, rid);
  db.Read(agent.get(), accounts, rid, &balance, sizeof(balance));
  balance += 42;
  db.Update(agent.get(), accounts, rid,
            {reinterpret_cast<const uint8_t*>(&balance), sizeof(balance)});
  db.Commit(agent.get());
  std::printf("account 7 balance is now %lld\n",
              static_cast<long long>(balance));

  // 6. Abort rolls everything back.
  db.Begin(agent.get());
  int64_t scratch = -1;
  db.LockRowExclusive(agent.get(), accounts, rid);
  db.Update(agent.get(), accounts, rid,
            {reinterpret_cast<const uint8_t*>(&scratch), sizeof(scratch)});
  db.Abort(agent.get());
  db.Begin(agent.get());
  db.Read(agent.get(), accounts, rid, &balance, sizeof(balance));
  db.Commit(agent.get());
  std::printf("after abort, account 7 balance is still %lld\n",
              static_cast<long long>(balance));

  // 7. Turn on SLI and watch locks flow between transactions: route the
  //    counters to a local set so we can print them. In production SLI only
  //    inherits *hot* locks (criterion 2) — with a single quiet agent
  //    nothing ever becomes hot, so this demo waives that criterion with
  //    the heat threshold 0 set in step 1.
  db.SetSliMode(SliMode::kOn);
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    for (int i = 0; i < 20; ++i) {
      db.Begin(agent.get());
      db.Read(agent.get(), accounts, rid, &balance, sizeof(balance));
      db.Commit(agent.get());
    }
  }
  std::printf("\nwith SLI on, 20 read transactions produced:\n%s",
              counters.ToString().c_str());
  std::printf(
      "\n(reclaimed = lock requests served by inheritance instead of the\n"
      " lock manager — the paper's fast path)\n");
  return 0;
}
