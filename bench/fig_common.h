// Shared setup for the per-figure harnesses: database construction, the
// paper's workload roster, and breakdown-row formatting.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/engine/database.h"
#include "src/workload/driver.h"
#include "src/workload/tm1.h"
#include "src/workload/tpcb.h"
#include "src/workload/tpcc.h"

namespace slidb::bench {

/// A workload from the paper's evaluation roster (§5.1), paired with a
/// fresh database sized for this machine (scaled down from the paper's
/// Niagara-II datasets; see DESIGN.md).
struct PaperWorkload {
  std::string label;
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> workload;
};

inline DatabaseOptions BenchDbOptions(bool sli) {
  DatabaseOptions o;
  o.lock.sli_mode = sli ? SliMode::kOn : SliMode::kOff;
  o.lock.lock_timeout_us = 5'000'000;
  // Simulate the queue-traversal cost of a loaded many-context machine
  // (DESIGN.md substitution; SimQueueWorkNs() reads the --sim=NS flag).
  o.lock.sim_queue_work_ns = SimQueueWorkNs();
  // Committers harden the log themselves; the background pass only settles
  // speculative acks, so a short cadence keeps their settle latency low.
  o.log.flush_interval_us = 10;
  o.buffer.num_frames = 1u << 15;  // 256 MB
  return o;
}

inline std::unique_ptr<PaperWorkload> MakeTm1(const std::string& label,
                                              Tm1Workload::Mix mix,
                                              Tm1TxnType type, bool quick,
                                              bool sli) {
  auto pw = std::make_unique<PaperWorkload>();
  pw->label = label;
  pw->db = std::make_unique<Database>(BenchDbOptions(sli));
  Tm1Options opts;
  opts.subscribers = quick ? 2'000 : 20'000;
  pw->workload = std::make_unique<Tm1Workload>(opts, mix, type);
  pw->workload->Load(*pw->db);
  return pw;
}

inline std::unique_ptr<PaperWorkload> MakeTpcb(bool quick, bool sli) {
  auto pw = std::make_unique<PaperWorkload>();
  pw->label = "TPC-B";
  pw->db = std::make_unique<Database>(BenchDbOptions(sli));
  TpcbOptions opts;
  opts.branches = quick ? 4 : 16;
  opts.tellers_per_branch = 10;
  opts.accounts_per_branch = quick ? 1'000 : 10'000;
  pw->workload = std::make_unique<TpcbWorkload>(opts);
  pw->workload->Load(*pw->db);
  return pw;
}

inline std::unique_ptr<PaperWorkload> MakeTpcc(const std::string& label,
                                               TpccWorkload::Mix mix,
                                               TpccTxnType type, bool quick,
                                               bool sli) {
  auto pw = std::make_unique<PaperWorkload>();
  pw->label = label;
  pw->db = std::make_unique<Database>(BenchDbOptions(sli));
  TpccOptions opts;
  // Enough warehouses that Payment's w_ytd row conflicts stay moderate at
  // the default 8-agent load (the paper used 300 warehouses for 64
  // contexts; true row conflicts are not what Fig 11 measures).
  opts.warehouses = quick ? 4 : 8;
  opts.districts_per_warehouse = 10;
  opts.customers_per_district = quick ? 300 : 1'000;
  opts.items = quick ? 1'000 : 10'000;
  opts.initial_orders_per_district = quick ? 30 : 100;
  pw->workload = std::make_unique<TpccWorkload>(opts, mix, type);
  pw->workload->Load(*pw->db);
  return pw;
}

/// Lazy factory for one roster entry. A database owns a log-flusher thread
/// and a 256 MB buffer pool, so benches must construct one at a time —
/// never the whole roster at once.
struct RosterEntry {
  std::string label;
  std::function<std::unique_ptr<PaperWorkload>(bool sli)> make;
};

/// The ten transactions / mixes of Figure 6 and friends.
/// `which`: bitmask — 1 = TM1 singles, 2 = mixes, 4 = TPC-B, 8 = TPC-C.
inline std::vector<RosterEntry> PaperRoster(bool quick, int which = 15) {
  std::vector<RosterEntry> roster;
  using Mix = Tm1Workload::Mix;
  using TMix = TpccWorkload::Mix;
  const auto tm1 = [quick](const char* label, Mix mix, Tm1TxnType type) {
    return RosterEntry{label, [=](bool sli) {
                         return MakeTm1(label, mix, type, quick, sli);
                       }};
  };
  const auto tpcc = [quick](const char* label, TMix mix, TpccTxnType type) {
    return RosterEntry{label, [=](bool sli) {
                         return MakeTpcc(label, mix, type, quick, sli);
                       }};
  };
  if (which & 1) {
    roster.push_back(tm1("getSub", Mix::kSingle,
                         Tm1TxnType::kGetSubscriberData));
    roster.push_back(tm1("getDest", Mix::kSingle,
                         Tm1TxnType::kGetNewDestination));
    roster.push_back(tm1("getAccess", Mix::kSingle,
                         Tm1TxnType::kGetAccessData));
    roster.push_back(tm1("updateSub", Mix::kSingle,
                         Tm1TxnType::kUpdateSubscriberData));
    roster.push_back(tm1("updateLoc", Mix::kSingle,
                         Tm1TxnType::kUpdateLocation));
  }
  if (which & 2) {
    roster.push_back(tm1("ForwardMix", Mix::kForward,
                         Tm1TxnType::kGetNewDestination));
    roster.push_back(tm1("NDBB-Mix", Mix::kFull,
                         Tm1TxnType::kGetSubscriberData));
  }
  if (which & 4) {
    roster.push_back(RosterEntry{
        "TPC-B", [quick](bool sli) { return MakeTpcb(quick, sli); }});
  }
  if (which & 8) {
    roster.push_back(tpcc("Payment", TMix::kSingle, TpccTxnType::kPayment));
    roster.push_back(tpcc("NewOrder", TMix::kSingle, TpccTxnType::kNewOrder));
    roster.push_back(
        tpcc("OrderStatus", TMix::kSingle, TpccTxnType::kOrderStatus));
    roster.push_back(tpcc("Delivery", TMix::kSingle, TpccTxnType::kDelivery));
    roster.push_back(
        tpcc("StockLevel", TMix::kSingle, TpccTxnType::kStockLevel));
    roster.push_back(tpcc("SmallMix", TMix::kSmall, TpccTxnType::kPayment));
    roster.push_back(tpcc("TPCC-Mix", TMix::kFull, TpccTxnType::kPayment));
  }
  return roster;
}

/// Percentage of CPU time (work + contention) by category, matching the
/// four-way split in Figures 1, 6, 10 plus the SLI component.
struct BreakdownRow {
  double lockmgr_work = 0, lockmgr_cont = 0;
  double sli_pct = 0;
  double log_pct = 0;
  double other_work = 0, other_cont = 0;
};

inline BreakdownRow ComputeBreakdown(const ProfileSnapshot& p) {
  BreakdownRow row;
  const double cpu = static_cast<double>(p.TotalCpu());
  if (cpu == 0) return row;
  const auto pct = [&](uint64_t v) { return 100.0 * static_cast<double>(v) / cpu; };
  const size_t lm = static_cast<size_t>(Component::kLockManager);
  const size_t sli = static_cast<size_t>(Component::kSli);
  const size_t log = static_cast<size_t>(Component::kLog);
  row.lockmgr_work = pct(p.work[lm]);
  row.lockmgr_cont = pct(p.contention[lm]);
  row.sli_pct = pct(p.work[sli] + p.contention[sli]);
  row.log_pct = pct(p.work[log] + p.contention[log]);
  double other_work = 0, other_cont = 0;
  for (size_t i = 0; i < kNumComponents; ++i) {
    if (i == lm || i == sli || i == log) continue;
    other_work += static_cast<double>(p.work[i]);
    other_cont += static_cast<double>(p.contention[i]);
  }
  row.other_work = 100.0 * other_work / cpu;
  row.other_cont = 100.0 * other_cont / cpu;
  return row;
}

/// Run a thread ladder and return the result with the highest throughput
/// (the paper reports breakdowns "at peak performance", Fig 6).
inline DriverResult RunAtPeak(Database& db, Workload& w, const BenchArgs& args,
                              int* peak_threads) {
  DriverResult best;
  int best_threads = 1;
  for (int threads : ThreadLadder(args.max_threads)) {
    DriverOptions dopts;
    dopts.num_agents = threads;
    dopts.duration_s = args.duration_s;
    dopts.warmup_s = args.warmup_s;
    dopts.seed = args.seed;
    const DriverResult r = RunWorkload(db, w, dopts);
    if (r.tps > best.tps) {
      best = r;
      best_threads = threads;
    }
  }
  *peak_threads = best_threads;
  return best;
}

}  // namespace slidb::bench
