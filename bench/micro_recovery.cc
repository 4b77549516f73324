// Recovery-replay microbenchmark: how fast the system comes back.
//
// Recovery time bounds the availability story the durable log buys us: a
// crashed node serves nothing until redo finishes. This bench builds a
// realistic TPC-B-style log through the real engine (checksummed records,
// heap + index redo payloads), then measures the two recovery phases
// separately:
//
//   scan:   validate-only pass — CRC32C + self-LSN checks over the whole
//           stream and committed-set construction (MB/s, records/s).
//   replay: full recovery — scan plus redo of every committed mutation
//           into fresh storage (records/s, txns/s).
//
// Two further sections cover bounded restart and the durable device:
//
//   bounded_restart: the same history with periodic fuzzy checkpoints —
//           recovery anchors on the last complete checkpoint and redoes
//           only the tail, so restart cost is bounded by checkpoint
//           cadence instead of history length. Reports the redo fraction
//           and the wall-clock speedup over the uncheckpointed replay.
//   segmented_append: real-disk append throughput of 4 KiB appends through
//           SegmentedLogDevice at the default segment capacity — the
//           device Database opens for DatabaseOptions::log_path, which
//           fsyncs every append before it returns.
//
// Emits a table on stdout and, with --json=FILE, BENCH_recovery.json:
// {"bench":"micro_recovery","log_bytes":…,"records":…,
//  "scan":[{"mb_per_s":…,"records_per_s":…}],
//  "replay":[{"mb_per_s":…,"records_per_s":…,"txns_per_s":…}],
//  "bounded_restart":{"redo_fraction":…,"speedup":…,…},
//  "segmented_append":{"append_bytes":…,"appends":…,"mb_per_s":…,
//                      "appends_per_s":…}}.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/engine/database.h"
#include "src/log/log_device.h"
#include "src/log/recovery.h"
#include "src/util/rng.h"
#include "src/util/time_util.h"

namespace slidb::bench {
namespace {

struct Workload {
  std::vector<uint8_t> stream;
  uint64_t records = 0;
  uint64_t committed = 0;
  uint64_t redo_bytes = 0;   ///< bytes redo actually walks (anchor-aware)
  uint64_t redo_start = 0;   ///< redo-start LSN of the last checkpoint
  uint64_t checkpoints = 0;  ///< complete checkpoints in the stream
};

/// Run a TPC-B-style history through the real engine, capturing the exact
/// durable byte stream the log passes emit. `checkpoint_every` > 0 takes a
/// fuzzy checkpoint every that-many transactions.
Workload BuildLog(uint64_t txns, uint64_t seed,
                  uint64_t checkpoint_every = 0) {
  InMemoryLogDevice device;
  Workload out;
  {
    DatabaseOptions o;
    o.buffer.num_frames = 4096;
    o.log.flush_interval_us = 20;
    AttachLogDevice(&o.log, &device);
    Database db(o);
    const TableId accounts = db.CreateTable("accounts");
    const IndexId by_id =
        db.CreateIndex(accounts, "by_id", IndexKind::kBTree, false);
    auto agent = db.CreateAgent(seed);
    Rng rng(seed);

    constexpr uint64_t kAccounts = 1024;
    std::vector<Rid> rids(kAccounts);
    struct Account {
      uint64_t id;
      uint64_t balance;
      char filler[84];  // ~100 B rows, the TPC-B ballpark
    };
    db.Begin(agent.get());
    for (uint64_t i = 0; i < kAccounts; ++i) {
      Account a{i, 10'000, {}};
      if (!db.Insert(agent.get(), accounts,
                     {reinterpret_cast<const uint8_t*>(&a), sizeof(a)},
                     &rids[i])
               .ok()) {
        std::abort();
      }
      if (!db.IndexInsert(agent.get(), by_id, i, rids[i].ToU64()).ok()) {
        std::abort();
      }
    }
    if (!db.Commit(agent.get()).ok()) std::abort();
    ++out.committed;

    for (uint64_t i = 0; i < txns; ++i) {
      if (checkpoint_every != 0 && i != 0 && i % checkpoint_every == 0) {
        if (!db.CheckpointNow().ok()) std::abort();
      }
      db.Begin(agent.get());
      // One TPC-B-ish transaction: debit one account, credit another.
      for (int leg = 0; leg < 2; ++leg) {
        const Rid rid = rids[rng.Next() % kAccounts];
        Account a{};
        if (!db.Read(agent.get(), accounts, rid, &a, sizeof(a)).ok()) {
          std::abort();
        }
        a.balance += leg == 0 ? -10 : 10;
        if (!db.Update(agent.get(), accounts, rid,
                       {reinterpret_cast<const uint8_t*>(&a), sizeof(a)})
                 .ok()) {
          std::abort();
        }
      }
      if (!db.Commit(agent.get()).ok()) std::abort();
      ++out.committed;
    }
  }  // teardown drains the log into the device
  if (!device.ReadAll(&out.stream).ok()) std::abort();
  RecoveryManager rm(out.stream);
  const RecoveryReport& r = rm.Scan();
  out.records = r.records_scanned;
  out.redo_bytes = r.redo_bytes;
  out.redo_start = r.redo_start_lsn;
  out.checkpoints = r.checkpoint_anchored ? 1 : 0;
  return out;
}

struct Sample {
  double mb_per_s;
  double records_per_s;
  double txns_per_s;
  double secs_per_iter;
  uint64_t iters;
};

Sample MeasureScan(const Workload& w, double window_s) {
  const uint64_t start = NowMicros();
  const auto deadline =
      start + static_cast<uint64_t>(window_s * 1'000'000.0);
  uint64_t iters = 0;
  do {
    // Non-owning view: the scan is measured, not a per-pass stream copy.
    RecoveryManager rm(w.stream.data(), w.stream.size());
    if (rm.Scan().records_scanned != w.records) std::abort();
    ++iters;
  } while (NowMicros() < deadline);
  const double secs =
      static_cast<double>(NowMicros() - start) / 1'000'000.0;
  Sample s{};
  s.iters = iters;
  s.secs_per_iter = secs / static_cast<double>(iters);
  s.mb_per_s = static_cast<double>(w.stream.size()) * iters / secs / 1e6;
  s.records_per_s = static_cast<double>(w.records) * iters / secs;
  s.txns_per_s = static_cast<double>(w.committed) * iters / secs;
  return s;
}

Sample MeasureReplay(const Workload& w, double window_s) {
  const uint64_t start = NowMicros();
  const auto deadline =
      start + static_cast<uint64_t>(window_s * 1'000'000.0);
  uint64_t iters = 0;
  uint64_t measured_us = 0;  // scan+redo only; target setup is not recovery
  do {
    Volume volume;
    BufferPoolOptions po;
    po.num_frames = 4096;
    BufferPool pool(&volume, po);
    Catalog catalog;
    const TableId t =
        catalog.AddTable("accounts", std::make_unique<HeapFile>(&pool));
    catalog.AddIndex(t, "by_id", IndexKind::kBTree, false);
    RecoveryManager rm(w.stream.data(), w.stream.size());
    const uint64_t t0 = NowMicros();
    if (!rm.Replay(&catalog).ok()) std::abort();
    measured_us += NowMicros() - t0;
    if (rm.report().records_replayed == 0) std::abort();
    ++iters;
  } while (NowMicros() < deadline);
  const double secs = static_cast<double>(measured_us) / 1'000'000.0;
  Sample s{};
  s.iters = iters;
  s.secs_per_iter = secs / static_cast<double>(iters);
  s.mb_per_s = static_cast<double>(w.stream.size()) * iters / secs / 1e6;
  s.records_per_s = static_cast<double>(w.records) * iters / secs;
  s.txns_per_s = static_cast<double>(w.committed) * iters / secs;
  return s;
}

/// Bounded restart as the engine actually delivers it: segment recycling
/// (SegmentedLogDevice::RecycleBelow) trims the on-disk log to the last
/// checkpoint's redo-start, so a restart reads and scans ONLY the tail.
/// This measures recovery over that trimmed stream — the base-LSN
/// constructor is the same path Database::Recover takes after recycling.
Sample MeasureAnchoredReplay(const Workload& w, double window_s) {
  if (w.redo_start == 0) std::abort();  // caller guarantees a checkpoint
  const std::vector<uint8_t> tail(w.stream.begin() + w.redo_start,
                                  w.stream.end());
  const uint64_t start = NowMicros();
  const auto deadline =
      start + static_cast<uint64_t>(window_s * 1'000'000.0);
  uint64_t iters = 0;
  uint64_t measured_us = 0;
  do {
    Volume volume;
    BufferPoolOptions po;
    po.num_frames = 4096;
    BufferPool pool(&volume, po);
    Catalog catalog;
    const TableId t =
        catalog.AddTable("accounts", std::make_unique<HeapFile>(&pool));
    catalog.AddIndex(t, "by_id", IndexKind::kBTree, false);
    RecoveryManager rm(tail.data(), tail.size(), w.redo_start);
    const uint64_t t0 = NowMicros();
    if (!rm.Replay(&catalog).ok()) std::abort();
    measured_us += NowMicros() - t0;
    if (!rm.report().checkpoint_anchored) std::abort();
    ++iters;
  } while (NowMicros() < deadline);
  const double secs = static_cast<double>(measured_us) / 1'000'000.0;
  Sample s{};
  s.iters = iters;
  s.secs_per_iter = secs / static_cast<double>(iters);
  s.mb_per_s = static_cast<double>(tail.size()) * iters / secs / 1e6;
  s.records_per_s = static_cast<double>(w.records) * iters / secs;
  s.txns_per_s = static_cast<double>(w.committed) * iters / secs;
  return s;
}

struct AppendSample {
  uint64_t appends;
  double mb_per_s;
  double appends_per_s;
};

constexpr size_t kAppendBytes = 4096;  ///< one log pass's worth of log

/// Real-disk append throughput through the SegmentedLogDevice that
/// Database opens for a log_path (default segment capacity). Each append
/// models one log pass and is synced before it returns.
AppendSample MeasureSegmentedAppend(uint64_t appends) {
  const std::string prefix = "slidb_bench_segments.log";
  const uint64_t seg_bytes = DatabaseOptions{}.log_segment_bytes;
  const uint64_t segs = appends * kAppendBytes / seg_bytes + 1;
  const auto remove_segments = [&] {
    for (uint64_t seg = 0; seg < segs; ++seg) {
      std::remove((prefix + ".gen0.seg" + std::to_string(seg)).c_str());
    }
  };
  remove_segments();
  std::vector<uint8_t> buf(kAppendBytes, 0xA5);
  const uint64_t start = NowMicros();
  {
    std::unique_ptr<SegmentedLogDevice> dev;
    if (!SegmentedLogDevice::Open(prefix, seg_bytes, &dev).ok()) std::abort();
    Lsn lsn = 0;
    for (uint64_t i = 0; i < appends; ++i) {
      if (!dev->Append(buf.data(), buf.size(), lsn).ok()) std::abort();
      lsn += buf.size();
    }
  }
  const double secs =
      static_cast<double>(NowMicros() - start) / 1'000'000.0;
  remove_segments();
  AppendSample s{};
  s.appends = appends;
  s.mb_per_s = static_cast<double>(appends * kAppendBytes) / secs / 1e6;
  s.appends_per_s = static_cast<double>(appends) / secs;
  return s;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  const uint64_t txns = args.quick ? 2'000 : 20'000;
  const double window = args.quick ? 0.3 : args.duration_s;

  const Workload w = BuildLog(txns, args.seed);
  std::printf("# log: %zu bytes, %llu records, %llu committed txns\n",
              w.stream.size(), static_cast<unsigned long long>(w.records),
              static_cast<unsigned long long>(w.committed));

  const Sample scan = MeasureScan(w, window);
  const Sample replay = MeasureReplay(w, window);

  // Bounded restart: the same history, checkpointed every txns/8
  // transactions. Recovery anchors on the last complete checkpoint, so the
  // redo pass walks only the post-checkpoint tail.
  const uint64_t ckpt_every = std::max<uint64_t>(1, txns / 8);
  const Workload wc = BuildLog(txns, args.seed, ckpt_every);
  if (wc.checkpoints == 0) {
    std::fprintf(stderr, "checkpointed log failed to anchor\n");
    return 1;
  }
  const Sample ckpt_replay = MeasureAnchoredReplay(wc, window);
  const double redo_fraction =
      static_cast<double>(wc.redo_bytes) / static_cast<double>(wc.stream.size());
  const double speedup = replay.secs_per_iter / ckpt_replay.secs_per_iter;
  std::printf(
      "# bounded restart: checkpoint every %llu txns, redo %llu of %zu "
      "bytes (%.1f%%), restart %.2fx faster than full replay\n",
      static_cast<unsigned long long>(ckpt_every),
      static_cast<unsigned long long>(wc.redo_bytes), wc.stream.size(),
      100.0 * redo_fraction, speedup);

  TablePrinter table({"phase", "MB/s", "records/s", "txns/s", "iters"});
  table.Row({"scan", Fmt("%.1f", scan.mb_per_s),
             Fmt("%.0f", scan.records_per_s), "-",
             Fmt("%llu", static_cast<unsigned long long>(scan.iters))});
  table.Row({"replay", Fmt("%.1f", replay.mb_per_s),
             Fmt("%.0f", replay.records_per_s),
             Fmt("%.0f", replay.txns_per_s),
             Fmt("%llu", static_cast<unsigned long long>(replay.iters))});
  table.Row({"ckpt-replay", Fmt("%.1f", ckpt_replay.mb_per_s),
             Fmt("%.0f", ckpt_replay.records_per_s),
             Fmt("%.0f", ckpt_replay.txns_per_s),
             Fmt("%llu", static_cast<unsigned long long>(ckpt_replay.iters))});

  const AppendSample append =
      MeasureSegmentedAppend(args.quick ? 256 : 2048);
  TablePrinter atable({"device-append", "MB/s", "appends/s"});
  atable.Row({"segmented 4 KiB", Fmt("%.1f", append.mb_per_s),
              Fmt("%.0f", append.appends_per_s)});

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("micro_recovery");
  WriteProvenance(json, args);
  json.Key("log_bytes").Value(static_cast<uint64_t>(w.stream.size()));
  json.Key("records").Value(w.records);
  json.Key("committed_txns").Value(w.committed);
  json.Key("scan").BeginArray();
  json.BeginObject();
  json.Key("mb_per_s").Value(scan.mb_per_s);
  json.Key("records_per_s").Value(scan.records_per_s);
  json.Key("iters").Value(scan.iters);
  json.EndObject();
  json.EndArray();
  json.Key("replay").BeginArray();
  json.BeginObject();
  json.Key("mb_per_s").Value(replay.mb_per_s);
  json.Key("records_per_s").Value(replay.records_per_s);
  json.Key("txns_per_s").Value(replay.txns_per_s);
  json.Key("iters").Value(replay.iters);
  json.EndObject();
  json.EndArray();
  json.Key("bounded_restart").BeginObject();
  json.Key("checkpoint_every_txns").Value(ckpt_every);
  json.Key("log_bytes").Value(static_cast<uint64_t>(wc.stream.size()));
  json.Key("redo_bytes").Value(wc.redo_bytes);
  json.Key("redo_fraction").Value(redo_fraction);
  json.Key("full_replay_s").Value(replay.secs_per_iter);
  json.Key("checkpointed_replay_s").Value(ckpt_replay.secs_per_iter);
  json.Key("speedup").Value(speedup);
  json.EndObject();
  json.Key("segmented_append").BeginObject();
  json.Key("append_bytes").Value(static_cast<uint64_t>(kAppendBytes));
  json.Key("appends").Value(append.appends);
  json.Key("mb_per_s").Value(append.mb_per_s);
  json.Key("appends_per_s").Value(append.appends_per_s);
  json.EndObject();
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
