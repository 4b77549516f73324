// Crash-recovery tests: the checksummed wire format, log devices with
// torn-write injection, the RecoveryManager's committed-prefix contract,
// and the end-to-end crash → recover → verify loop through the engine.
//
// The central harness is the torn-tail sweep: capture the exact durable
// byte stream of a known workload, truncate it at EVERY byte offset, and
// assert that recovery always reconstructs exactly the state of some
// committed prefix — no lost committed transaction, no ghost uncommitted
// mutation, with log.checksum_fail firing precisely when the cut lands
// inside a record.
//
// Multi-threaded sections use fixed thread counts and budgets, and their
// assertions are interleaving-independent (set membership and conservation
// invariants), so the tests stay deterministic on one-context hosts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/engine/database.h"
#include "src/log/log_device.h"
#include "src/log/log_manager.h"
#include "src/log/log_record.h"
#include "src/log/recovery.h"
#include "src/stats/counters.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"

namespace slidb {
namespace {

// ---- shared fixtures --------------------------------------------------------

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

DatabaseOptions TestOptions() {
  DatabaseOptions o;
  o.buffer.num_frames = 1024;
  o.lock.lock_timeout_us = 2'000'000;
  o.log.flush_interval_us = 50;
  return o;
}

/// Crash-injection test double: an InMemoryLogDevice installed as the
/// database's flush_sink. Arm(extra) emulates power loss after `extra`
/// more durable bytes — the device write in flight is torn mid-record and
/// everything later vanishes, exactly what the recovery scan must survive.
struct CrashSink {
  InMemoryLogDevice device;

  void Install(LogOptions* o) { AttachLogDevice(o, &device); }
  void Arm(uint64_t extra_bytes) { device.CrashAfter(extra_bytes); }
  std::vector<uint8_t> Stream() const {
    std::vector<uint8_t> out;
    EXPECT_TRUE(device.ReadAll(&out).ok());
    return out;
  }
};

/// Catalog + storage substrate for replaying a log without a full engine
/// (the sweep builds thousands of these; keep the pool tiny).
struct RecoveryTarget {
  Volume volume;
  BufferPool pool;
  Catalog catalog;

  RecoveryTarget() : pool(&volume, SmallPool()) {}

  static BufferPoolOptions SmallPool() {
    BufferPoolOptions o;
    o.num_frames = 64;
    return o;
  }

  TableId AddTable(const char* name = "t") {
    return catalog.AddTable(name, std::make_unique<HeapFile>(&pool));
  }
  IndexId AddBTree(TableId table, const char* name = "idx") {
    return catalog.AddIndex(table, name, IndexKind::kBTree, /*unique=*/false);
  }
  IndexId AddHash(TableId table, const char* name = "hash") {
    return catalog.AddIndex(table, name, IndexKind::kHash, /*unique=*/false);
  }
};

using RowMap = std::map<uint64_t, std::string>;          // rid -> bytes
using IndexSet = std::multiset<std::pair<uint64_t, uint64_t>>;

RowMap DumpHeap(Catalog& catalog, TableId table) {
  RowMap out;
  EXPECT_TRUE(catalog.table(table)
                  .heap->Scan([&](Rid rid, std::span<const uint8_t> rec) {
                    out[rid.ToU64()] = std::string(
                        reinterpret_cast<const char*>(rec.data()), rec.size());
                  })
                  .ok());
  return out;
}

IndexSet DumpBTree(Catalog& catalog, IndexId index) {
  IndexSet out;
  catalog.index(index).btree->Scan(0, UINT64_MAX,
                                   [&](uint64_t k, uint64_t v) {
                                     out.emplace(k, v);
                                     return true;
                                   });
  return out;
}

/// Committed-prefix shadow: table rows + index entries after each commit.
struct ShadowState {
  RowMap rows;
  IndexSet index;
  bool operator==(const ShadowState&) const = default;
};

/// Remove the segment files a log at `prefix` may hold (generations 0-7,
/// segments 0-63, plus creation leftovers).
void RemoveSegmentFiles(const std::string& prefix) {
  for (uint64_t gen = 0; gen < 8; ++gen) {
    for (uint64_t seg = 0; seg < 64; ++seg) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), ".gen%llu.seg%llu",
                    static_cast<unsigned long long>(gen),
                    static_cast<unsigned long long>(seg));
      std::remove((prefix + buf).c_str());
      std::remove((prefix + buf + ".tmp").c_str());
    }
  }
}

// ---- CRC32C and wire format -------------------------------------------------

TEST(Crc32cTest, KnownVectorsAndComposition) {
  // RFC 3720 / standard CRC32C check value.
  EXPECT_EQ(Crc32c(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(0, "", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(0, zeros, sizeof(zeros)), 0x8A9136AAu);
  // Incremental composition must equal one-shot.
  const std::string s = "speculative lock inheritance";
  for (size_t cut = 0; cut <= s.size(); ++cut) {
    EXPECT_EQ(Crc32c(Crc32c(0, s.data(), cut), s.data() + cut, s.size() - cut),
              Crc32c(0, s.data(), s.size()));
  }
}

/// Serialize one sealed record onto `stream`.
void AppendRecord(std::vector<uint8_t>* stream, uint64_t txn,
                  LogRecordType type, const void* payload,
                  uint32_t payload_len) {
  const LogRecordHeader hdr =
      MakeLogRecordHeader(txn, type, stream->size(), payload, payload_len);
  const auto* h = reinterpret_cast<const uint8_t*>(&hdr);
  stream->insert(stream->end(), h, h + sizeof(hdr));
  const auto* p = static_cast<const uint8_t*>(payload);
  if (payload_len > 0) stream->insert(stream->end(), p, p + payload_len);
}

TEST(LogRecordTest, SealDecodeRoundTrip) {
  std::vector<uint8_t> stream;
  const std::string body = "after-image bytes";
  AppendRecord(&stream, 42, LogRecordType::kUpdate, body.data(),
               static_cast<uint32_t>(body.size()));
  AppendRecord(&stream, 43, LogRecordType::kCommit, nullptr, 0);

  LogRecordHeader hdr;
  const uint8_t* payload = nullptr;
  ASSERT_EQ(DecodeLogRecord(stream.data(), stream.size(), 0, 0, &hdr,
                            &payload),
            LogScanStatus::kOk);
  EXPECT_EQ(hdr.txn_id, 42u);
  EXPECT_EQ(hdr.type, static_cast<uint8_t>(LogRecordType::kUpdate));
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(payload),
                        hdr.payload_len),
            body);
  const size_t second = sizeof(LogRecordHeader) + body.size();
  ASSERT_EQ(DecodeLogRecord(stream.data(), stream.size(), second, 0, &hdr,
                            &payload),
            LogScanStatus::kOk);
  EXPECT_EQ(hdr.txn_id, 43u);
  EXPECT_EQ(DecodeLogRecord(stream.data(), stream.size(), stream.size(), 0,
                            &hdr, &payload),
            LogScanStatus::kEndOfStream);
}

TEST(LogRecordTest, EveryBitFlipIsDetected) {
  std::vector<uint8_t> stream;
  const std::string body = "payload under checksum";
  AppendRecord(&stream, 7, LogRecordType::kInsert, body.data(),
               static_cast<uint32_t>(body.size()));
  LogRecordHeader hdr;
  const uint8_t* payload = nullptr;
  ASSERT_EQ(DecodeLogRecord(stream.data(), stream.size(), 0, 0, &hdr,
                            &payload),
            LogScanStatus::kOk);
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = stream;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(DecodeLogRecord(corrupt.data(), corrupt.size(), 0, 0, &hdr,
                                &payload),
                LogScanStatus::kOk)
          << "flip at byte " << byte << " bit " << bit << " went undetected";
    }
  }
}

TEST(LogRecordTest, RecordAtWrongOffsetRejected) {
  // A bytewise-valid record landing at the wrong LSN (stale ring bytes,
  // misdirected write) must fail the self-LSN check: the CRC covers the
  // lsn field, so relocation cannot be patched up.
  std::vector<uint8_t> stream(16, 0);  // 16 bytes of junk prefix
  const LogRecordHeader hdr =
      MakeLogRecordHeader(9, LogRecordType::kCommit, /*lsn=*/0, nullptr, 0);
  const auto* h = reinterpret_cast<const uint8_t*>(&hdr);
  stream.insert(stream.end(), h, h + sizeof(hdr));
  LogRecordHeader out;
  const uint8_t* payload = nullptr;
  EXPECT_EQ(DecodeLogRecord(stream.data(), stream.size(), 16, 0, &out,
                            &payload),
            LogScanStatus::kBadLsn);
}

// ---- log devices ------------------------------------------------------------

TEST(LogDeviceTest, InMemoryTornWriteInjection) {
  InMemoryLogDevice dev;
  const std::vector<uint8_t> chunk(100, 0xAB);
  ASSERT_TRUE(dev.Append(chunk.data(), chunk.size(), 0).ok());
  dev.CrashAfter(40);
  ASSERT_TRUE(dev.Append(chunk.data(), chunk.size(), 100).ok());
  EXPECT_TRUE(dev.crashed());
  EXPECT_EQ(dev.DurableBytes(), 140u);  // 100 + torn 40-byte prefix
  // Post-crash writes vanish entirely.
  ASSERT_TRUE(dev.Append(chunk.data(), chunk.size(), 200).ok());
  EXPECT_EQ(dev.DurableBytes(), 140u);
  std::vector<uint8_t> back;
  ASSERT_TRUE(dev.ReadAll(&back).ok());
  EXPECT_EQ(back.size(), 140u);
}

// ---- recovery scan ----------------------------------------------------------

/// Append a heap insert redo record for (table, rid, image).
void AppendHeapInsert(std::vector<uint8_t>* stream, uint64_t txn,
                      uint32_t table, Rid rid, const std::string& image) {
  std::vector<uint8_t> payload(sizeof(HeapRedoPayload) + image.size());
  HeapRedoPayload row{};
  row.table = table;
  row.slot = rid.slot;
  row.page_no = rid.page_no;
  std::memcpy(payload.data(), &row, sizeof(row));
  std::memcpy(payload.data() + sizeof(row), image.data(), image.size());
  AppendRecord(stream, txn, LogRecordType::kInsert, payload.data(),
               static_cast<uint32_t>(payload.size()));
}

TEST(RecoveryScanTest, CleanTornAndCorruptTails) {
  std::vector<uint8_t> stream;
  AppendRecord(&stream, 1, LogRecordType::kBegin, nullptr, 0);
  AppendHeapInsert(&stream, 1, 0, Rid{0, 0}, "row-1.0.");
  AppendRecord(&stream, 1, LogRecordType::kCommit, nullptr, 0);
  const size_t committed_end = stream.size();
  AppendRecord(&stream, 2, LogRecordType::kBegin, nullptr, 0);
  AppendHeapInsert(&stream, 2, 0, Rid{0, 1}, "row-2.0.");

  {  // Clean stream: no torn tail, txn 1 committed, txn 2 a ghost.
    RecoveryManager rm(stream);
    const RecoveryReport& r = rm.Scan();
    EXPECT_FALSE(r.torn_tail);
    EXPECT_EQ(r.tail_status, LogScanStatus::kEndOfStream);
    EXPECT_EQ(r.records_scanned, 5u);
    EXPECT_EQ(r.committed_txns, 1u);
    EXPECT_EQ(r.uncommitted_txns, 1u);
    EXPECT_TRUE(rm.IsCommitted(1));
    EXPECT_FALSE(rm.IsCommitted(2));
  }
  {  // Truncation inside the tail record's header.
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    RecoveryManager rm(std::vector<uint8_t>(
        stream.begin(), stream.begin() + committed_end + 10));
    const RecoveryReport& r = rm.Scan();
    EXPECT_TRUE(r.torn_tail);
    EXPECT_EQ(r.tail_status, LogScanStatus::kTornHeader);
    EXPECT_EQ(r.valid_prefix_end, committed_end);
    EXPECT_EQ(r.tail_bytes_discarded, 10u);
    EXPECT_EQ(counters.Get(Counter::kLogChecksumFail), 1u);
    EXPECT_EQ(counters.Get(Counter::kRecoveryTornTails), 1u);
  }
  {  // Bit flip inside an already-durable record: scan stops there.
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    std::vector<uint8_t> corrupt = stream;
    corrupt[sizeof(LogRecordHeader) + sizeof(LogRecordHeader) + 20] ^= 0x40;
    RecoveryManager rm(corrupt);
    const RecoveryReport& r = rm.Scan();
    EXPECT_TRUE(r.torn_tail);
    EXPECT_EQ(r.records_scanned, 1u);  // only txn 1's begin survives
    EXPECT_EQ(r.committed_txns, 0u);
    EXPECT_EQ(counters.Get(Counter::kLogChecksumFail), 1u);
  }
}

TEST(RecoveryScanTest, UncommittedMutationsNeverReplayed) {
  std::vector<uint8_t> stream;
  AppendHeapInsert(&stream, 1, 0, Rid{0, 0}, "keep-me.");
  AppendRecord(&stream, 1, LogRecordType::kCommit, nullptr, 0);
  AppendHeapInsert(&stream, 2, 0, Rid{0, 1}, "ghost!!!");  // no commit

  CounterSet counters;
  ScopedCounterSet routed(&counters);
  RecoveryTarget target;
  const TableId t = target.AddTable();
  RecoveryManager rm(stream);
  ASSERT_TRUE(rm.Replay(&target.catalog).ok());
  // Repeating history: the loser's insert IS replayed (it is stolen dirty
  // state a warm restart must reconstruct), then the undo pass deletes it
  // again. Only the committed row survives.
  const RowMap rows = DumpHeap(target.catalog, t);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.begin()->second, "keep-me.");
  EXPECT_EQ(rm.report().records_replayed, 2u);
  EXPECT_EQ(rm.report().records_skipped, 0u);
  EXPECT_EQ(rm.report().records_undone, 1u);
  EXPECT_EQ(rm.report().losers_rolled_back, 1u);
  EXPECT_EQ(counters.Get(Counter::kRecoveryRecordsReplayed), 2u);
  EXPECT_EQ(counters.Get(Counter::kRecoveryRecordsUndone), 1u);
  EXPECT_EQ(counters.Get(Counter::kRecoveryLosersRolledBack), 1u);
  EXPECT_EQ(counters.Get(Counter::kRecoveryCommittedTxns), 1u);
}

// ---- the torn-tail sweep (acceptance criterion) -----------------------------

/// Runs a deterministic workload against a real Database whose durable
/// stream is captured by `sink`. Returns the shadow snapshots: expected
/// (rows, index) state after each commit, snapshots[0] = empty. Also
/// returns the txn id of each commit in commit order.
void RunSweepWorkload(CrashSink* sink, std::vector<ShadowState>* snapshots,
                      std::vector<uint64_t>* commit_ids) {
  DatabaseOptions o = TestOptions();
  sink->Install(&o.log);
  Database db(o);
  const TableId t = db.CreateTable("accounts");
  const IndexId idx = db.CreateIndex(t, "by_key", IndexKind::kBTree,
                                     /*unique=*/false);
  auto agent = db.CreateAgent();

  ShadowState shadow;
  snapshots->push_back(shadow);

  std::vector<Rid> rids;
  constexpr int kTxns = 18;
  for (int i = 0; i < kTxns; ++i) {
    db.Begin(agent.get());
    const uint64_t id = agent->txn().id();
    char row[8];
    std::snprintf(row, sizeof(row), "r%06d", i);
    Rid rid;
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes(std::string(row, 8)), &rid)
                    .ok());
    ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 1000 + i, rid.ToU64()).ok());
    ShadowState next = shadow;
    next.rows[rid.ToU64()] = std::string(row, 8);
    next.index.emplace(1000 + i, rid.ToU64());
    rids.push_back(rid);
    if (i >= 3) {
      // Mutate earlier state too: update row i-3 (if it survived its txn —
      // an aborted insert leaves a dead rid), delete row i-9 sometimes.
      const Rid victim = rids[i - 3];
      if (next.rows.count(victim.ToU64()) != 0) {
        char upd[8];
        std::snprintf(upd, sizeof(upd), "u%06d", i);
        ASSERT_TRUE(
            db.Update(agent.get(), t, victim, Bytes(std::string(upd, 8)))
                .ok());
        next.rows[victim.ToU64()] = std::string(upd, 8);
      }
      if (i % 4 == 3 && i >= 9) {
        const Rid gone = rids[i - 9];
        if (next.rows.count(gone.ToU64())) {
          ASSERT_TRUE(db.Delete(agent.get(), t, gone).ok());
          ASSERT_TRUE(db.IndexRemove(agent.get(), idx, 1000 + (i - 9),
                                     gone.ToU64())
                          .ok());
          next.rows.erase(gone.ToU64());
          next.index.erase(next.index.find({1000u + (i - 9), gone.ToU64()}));
        }
      }
    }
    // Every third transaction aborts after doing work: its records are in
    // the log but must never replay.
    if (i % 3 == 2) {
      db.Abort(agent.get());
      continue;
    }
    ASSERT_TRUE(db.Commit(agent.get()).ok());
    shadow = std::move(next);
    snapshots->push_back(shadow);
    commit_ids->push_back(id);
  }
  // Database destructor drains the log: the capture is complete.
}

TEST(RecoverySweepTest, TruncationAtEveryByteYieldsACommittedPrefix) {
  CrashSink sink;
  std::vector<ShadowState> snapshots;
  std::vector<uint64_t> commit_ids;
  RunSweepWorkload(&sink, &snapshots, &commit_ids);
  const std::vector<uint8_t> stream = sink.Stream();
  ASSERT_GT(stream.size(), 0u);
  ASSERT_FALSE(sink.device.crashed());

  // Pre-compute the set of record boundaries from a full scan: truncating
  // exactly at a boundary is a clean end; anywhere else must be reported
  // (and counted) as a corrupt tail.
  std::set<size_t> boundaries{0};
  {
    RecoveryManager rm(stream);
    const RecoveryReport& r = rm.Scan();
    ASSERT_FALSE(r.torn_tail);
    size_t pos = 0;
    LogRecordHeader hdr;
    const uint8_t* payload = nullptr;
    while (DecodeLogRecord(stream.data(), stream.size(), pos, 0, &hdr,
                           &payload) == LogScanStatus::kOk) {
      pos += sizeof(LogRecordHeader) + hdr.payload_len;
      boundaries.insert(pos);
    }
    ASSERT_EQ(pos, stream.size());
  }

  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    RecoveryManager rm(
        std::vector<uint8_t>(stream.begin(), stream.begin() + cut));
    rm.Scan();
    const RecoveryReport& r = rm.report();

    // Committed set must be exactly the first k commits, in commit order.
    const size_t k = r.committed_txns;
    ASSERT_LE(k, commit_ids.size()) << "cut=" << cut;
    for (size_t i = 0; i < commit_ids.size(); ++i) {
      EXPECT_EQ(rm.IsCommitted(commit_ids[i]), i < k)
          << "cut=" << cut << " commit#" << i;
    }

    // Torn-tail accounting: exact iff the cut is off a record boundary.
    const bool at_boundary = boundaries.count(cut) != 0;
    EXPECT_EQ(r.torn_tail, !at_boundary) << "cut=" << cut;
    EXPECT_EQ(counters.Get(Counter::kLogChecksumFail), at_boundary ? 0u : 1u)
        << "cut=" << cut;

    // Replayed state must equal the k-commit shadow snapshot exactly.
    RecoveryTarget target;
    const TableId t = target.AddTable();
    const IndexId idx = target.AddBTree(t);
    ASSERT_TRUE(rm.Replay(&target.catalog).ok()) << "cut=" << cut;
    EXPECT_EQ(DumpHeap(target.catalog, t), snapshots[k].rows)
        << "cut=" << cut;
    EXPECT_EQ(DumpBTree(target.catalog, idx), snapshots[k].index)
        << "cut=" << cut;
  }
}

TEST(RecoverySweepTest, MidStreamBitFlipsYieldACommittedPrefix) {
  // A flip in the middle of the stream (not just the tail) must degrade
  // recovery to the prefix before the flipped record — never to a mixed or
  // corrupted state. Sampled stride keeps the quadratic cost down.
  CrashSink sink;
  std::vector<ShadowState> snapshots;
  std::vector<uint64_t> commit_ids;
  RunSweepWorkload(&sink, &snapshots, &commit_ids);
  const std::vector<uint8_t> stream = sink.Stream();

  for (size_t byte = 0; byte < stream.size(); byte += 13) {
    std::vector<uint8_t> corrupt = stream;
    corrupt[byte] ^= 0x20;
    RecoveryManager rm(std::move(corrupt));
    rm.Scan();
    const size_t k = rm.report().committed_txns;
    ASSERT_LE(k, commit_ids.size()) << "byte=" << byte;
    RecoveryTarget target;
    const TableId t = target.AddTable();
    const IndexId idx = target.AddBTree(t);
    ASSERT_TRUE(rm.Replay(&target.catalog).ok()) << "byte=" << byte;
    EXPECT_EQ(DumpHeap(target.catalog, t), snapshots[k].rows)
        << "byte=" << byte;
    EXPECT_EQ(DumpBTree(target.catalog, idx), snapshots[k].index)
        << "byte=" << byte;
  }
}

TEST(RecoverySweepTest, BatchedStreamTruncationSweep) {
  // A purely batched stream straight through LogManager::AppendBatch: each
  // txn is one batch (begin + 3 index inserts + commit) under one
  // reservation. Truncate at every byte: a cut keeps exactly the complete
  // records before it, a txn counts as committed iff its commit record is
  // complete, and replay leaves exactly the committed txns' entries (a txn
  // cut after some of its inserts is a loser and is undone).
  InMemoryLogDevice device;
  LogOptions o;
  o.flush_interval_us = 20;
  AttachLogDevice(&o, &device);
  constexpr uint64_t kTxns = 10;
  constexpr uint64_t kRecordsPerTxn = 5;
  {
    LogManager log(o);
    LogStagingBuffer staging;
    Lsn last = 0;
    for (uint64_t txn = 1; txn <= kTxns; ++txn) {
      staging.Stage(txn, LogRecordType::kBegin, nullptr, 0);
      for (uint64_t k = 0; k < 3; ++k) {
        IndexRedoPayload e{};
        e.index = 0;
        e.key = txn * 100 + k;
        e.value = txn;
        staging.Stage(txn, LogRecordType::kIndexInsert, &e,
                      static_cast<uint32_t>(sizeof(e)));
      }
      staging.Stage(txn, LogRecordType::kCommit, nullptr, 0);
      last = log.AppendBatch(&staging);
      staging.Clear();
    }
    log.WaitDurable(last);
  }
  std::vector<uint8_t> stream;
  ASSERT_TRUE(device.ReadAll(&stream).ok());

  // The stream is nothing but the staged records, each sealed on its own;
  // note where each one ends.
  std::vector<size_t> record_ends;
  {
    size_t pos = 0;
    LogRecordHeader hdr;
    const uint8_t* payload = nullptr;
    while (DecodeLogRecord(stream.data(), stream.size(), pos, 0, &hdr,
                           &payload) == LogScanStatus::kOk) {
      pos += sizeof(LogRecordHeader) + hdr.payload_len;
      record_ends.push_back(pos);
    }
    ASSERT_EQ(record_ends.size(), kTxns * kRecordsPerTxn);
    ASSERT_EQ(record_ends.back(), stream.size());
  }

  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    // n = complete records inside the cut; txn t's commit is record
    // t * kRecordsPerTxn - 1, so the committed txns are the first
    // n / kRecordsPerTxn.
    size_t n = 0;
    while (n < record_ends.size() && record_ends[n] <= cut) ++n;
    const bool at_boundary = cut == 0 || (n > 0 && record_ends[n - 1] == cut);
    const uint64_t committed = n / kRecordsPerTxn;

    RecoveryManager rm(
        std::vector<uint8_t>(stream.begin(), stream.begin() + cut));
    const RecoveryReport& r = rm.Scan();
    EXPECT_EQ(r.records_scanned, n) << "cut=" << cut;
    EXPECT_EQ(r.committed_txns, committed) << "cut=" << cut;
    EXPECT_EQ(r.torn_tail, !at_boundary) << "cut=" << cut;
    EXPECT_EQ(counters.Get(Counter::kLogChecksumFail), at_boundary ? 0u : 1u)
        << "cut=" << cut;
    for (uint64_t txn = 1; txn <= kTxns; ++txn) {
      EXPECT_EQ(rm.IsCommitted(txn), txn <= committed) << "cut=" << cut;
    }

    // Replay: exactly the committed txns' index entries.
    RecoveryTarget target;
    const TableId t = target.AddTable();
    const IndexId idx = target.AddBTree(t);
    ASSERT_TRUE(rm.Replay(&target.catalog).ok()) << "cut=" << cut;
    IndexSet want;
    for (uint64_t txn = 1; txn <= committed; ++txn) {
      for (uint64_t e = 0; e < 3; ++e) want.emplace(txn * 100 + e, txn);
    }
    EXPECT_EQ(DumpBTree(target.catalog, idx), want) << "cut=" << cut;
  }
}

// ---- randomized histories (property test) -----------------------------------

TEST(RecoveryFuzzTest, RandomHistoryCrashAtRandomFlushMatchesShadow) {
  // TPC-B-style randomized single-agent histories through the real
  // pipeline; the device crashes at a random byte (armed mid-run, so the
  // cut lands inside whatever flush is in flight). Recovery must produce
  // exactly the state of the committed prefix. Failures print the seed.
  const uint64_t kSeeds[] = {1, 7, 42, 1009, 88172645463325252ull};
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 "  (re-run: RecoveryFuzzTest filters + this seed)");
    Rng rng(seed);

    CrashSink sink;
    std::vector<ShadowState> snapshots;
    std::vector<uint64_t> commit_ids;
    {
      DatabaseOptions o = TestOptions();
      sink.Install(&o.log);
      Database db(o);
      const TableId t = db.CreateTable("t");
      const IndexId idx = db.CreateIndex(t, "i", IndexKind::kBTree,
                                         /*unique=*/false);
      auto agent = db.CreateAgent(seed);

      ShadowState shadow;
      snapshots.push_back(shadow);
      std::vector<std::pair<Rid, uint64_t>> live;  // rid + index key
      uint64_t next_key = 1;

      const int txns = 30 + static_cast<int>(rng.Next() % 20);
      const uint64_t crash_at = rng.Next() % 4000;
      bool armed = false;
      for (int i = 0; i < txns; ++i) {
        if (!armed && i == txns / 3) {
          // Arm mid-run so the crash races live flushes of later txns.
          sink.Arm(crash_at);
          armed = true;
        }
        db.Begin(agent.get());
        const uint64_t id = agent->txn().id();
        // The whole pending state — shadow AND the live-rid working set —
        // is transactional: an abort must discard both, mirroring undo.
        ShadowState next = shadow;
        std::vector<std::pair<Rid, uint64_t>> next_live = live;
        const int ops = 1 + static_cast<int>(rng.Next() % 4);
        for (int op = 0; op < ops; ++op) {
          const uint64_t pick = rng.Next() % 10;
          if (pick < 4 || next_live.empty()) {  // insert
            char row[8];
            std::snprintf(row, sizeof(row), "k%06llu",
                          static_cast<unsigned long long>(next_key % 1000000));
            Rid rid;
            ASSERT_TRUE(
                db.Insert(agent.get(), t, Bytes(std::string(row, 8)), &rid)
                    .ok());
            ASSERT_TRUE(
                db.IndexInsert(agent.get(), idx, next_key, rid.ToU64()).ok());
            next.rows[rid.ToU64()] = std::string(row, 8);
            next.index.emplace(next_key, rid.ToU64());
            next_live.emplace_back(rid, next_key);
            ++next_key;
          } else if (pick < 8) {  // update
            const auto& victim = next_live[rng.Next() % next_live.size()];
            char row[8];
            std::snprintf(row, sizeof(row), "u%06llu",
                          static_cast<unsigned long long>(rng.Next() %
                                                          1000000));
            ASSERT_TRUE(db.Update(agent.get(), t, victim.first,
                                  Bytes(std::string(row, 8)))
                            .ok());
            next.rows[victim.first.ToU64()] = std::string(row, 8);
          } else {  // delete
            const size_t vi = rng.Next() % next_live.size();
            const auto victim = next_live[vi];
            ASSERT_TRUE(db.Delete(agent.get(), t, victim.first).ok());
            ASSERT_TRUE(db.IndexRemove(agent.get(), idx, victim.second,
                                       victim.first.ToU64())
                            .ok());
            next.rows.erase(victim.first.ToU64());
            next.index.erase(
                next.index.find({victim.second, victim.first.ToU64()}));
            next_live.erase(next_live.begin() + static_cast<ptrdiff_t>(vi));
          }
        }
        if (rng.Next() % 5 == 0) {  // user abort
          db.Abort(agent.get());
          continue;
        }
        ASSERT_TRUE(db.Commit(agent.get()).ok());
        shadow = std::move(next);
        live = std::move(next_live);
        snapshots.push_back(shadow);
        commit_ids.push_back(id);
      }
    }  // db teardown drains whatever the "device" still accepts

    const std::vector<uint8_t> stream = sink.Stream();
    RecoveryManager rm(stream);
    rm.Scan();
    const size_t k = rm.report().committed_txns;
    ASSERT_LE(k, commit_ids.size());
    for (size_t i = 0; i < commit_ids.size(); ++i) {
      EXPECT_EQ(rm.IsCommitted(commit_ids[i]), i < k) << "commit#" << i;
    }
    RecoveryTarget target;
    const TableId t = target.AddTable();
    const IndexId idx = target.AddBTree(t);
    ASSERT_TRUE(rm.Replay(&target.catalog).ok());
    EXPECT_EQ(DumpHeap(target.catalog, t), snapshots[k].rows);
    EXPECT_EQ(DumpBTree(target.catalog, idx), snapshots[k].index);
  }
}

// ---- engine-level recovery --------------------------------------------------

TEST(RecoveryEngineTest, FileBackedDatabaseRecoversAndResumes) {
  const std::string path = "slidb_recovery_e2e.log";
  RemoveSegmentFiles(path);
  Rid r1, r2;
  uint64_t committed_txns = 0;
  {
    DatabaseOptions o = TestOptions();
    o.log_path = path;
    Database db(o);
    ASSERT_NE(db.log_device(), nullptr);
    const TableId t = db.CreateTable("t");
    const IndexId idx = db.CreateIndex(t, "i", IndexKind::kBTree, false);
    auto agent = db.CreateAgent();

    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("first..."), &r1).ok());
    ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 10, r1.ToU64()).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
    ++committed_txns;

    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("doomed.."), &r2).ok());
    db.Abort(agent.get());

    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("second.."), &r2).ok());
    ASSERT_TRUE(db.IndexInsert(agent.get(), idx, 20, r2.ToU64()).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
    ++committed_txns;
  }  // clean shutdown: all records durable in the segment files

  DatabaseOptions o = TestOptions();
  Database db(o);
  const TableId t = db.CreateTable("t");
  const IndexId idx = db.CreateIndex(t, "i", IndexKind::kBTree, false);
  RecoveryReport report;
  ASSERT_TRUE(db.Recover(path, &report).ok());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.committed_txns, committed_txns);
  EXPECT_GT(report.records_replayed, 0u);

  auto agent = db.CreateAgent();
  db.Begin(agent.get());
  char buf[8];
  ASSERT_TRUE(db.Read(agent.get(), t, r1, buf, 8).ok());
  EXPECT_EQ(std::memcmp(buf, "first...", 8), 0);
  ASSERT_TRUE(db.Read(agent.get(), t, r2, buf, 8).ok());
  EXPECT_EQ(std::memcmp(buf, "second..", 8), 0);
  uint64_t v = 0;
  ASSERT_TRUE(db.IndexLookup(idx, 10, &v).ok());
  EXPECT_EQ(v, r1.ToU64());
  ASSERT_TRUE(db.Commit(agent.get()).ok());

  // Recovered id space: new transactions log above every recovered id.
  db.Begin(agent.get());
  EXPECT_GT(agent->txn().id(), report.max_txn_id);
  Rid r3;
  ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("post-rec"), &r3).ok());
  ASSERT_TRUE(db.Commit(agent.get()).ok());
  RemoveSegmentFiles(path);
}

TEST(RecoveryEngineTest, RestartInPlaceSurvivesASecondCrash) {
  // The operator's natural restart flow: reuse the SAME log_path for the
  // recovered database. The restart writes a new generation of segments,
  // so the old log is intact when Recover() reads it, and recovery must
  // anchor the new generation with an opening checkpoint — otherwise a
  // second crash would lose everything from before the first one.
  const std::string path = "slidb_restart_in_place.log";
  RemoveSegmentFiles(path);
  Rid r1;
  {  // generation 1: one committed row, then "crash" (teardown).
    DatabaseOptions o = TestOptions();
    o.log_path = path;
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("gen-one!"), &r1).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
  }
  Rid r2;
  {  // generation 2: restart in place, recover, add a row, crash again.
    DatabaseOptions o = TestOptions();
    o.log_path = path;
    Database db(o);
    const TableId t = db.CreateTable("t");
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(path, &report).ok());
    EXPECT_EQ(report.committed_txns, 1u);
    auto agent = db.CreateAgent();
    db.Begin(agent.get());
    char buf[8];
    ASSERT_TRUE(db.Read(agent.get(), t, r1, buf, 8).ok());
    EXPECT_EQ(std::memcmp(buf, "gen-one!", 8), 0);
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("gen-two!"), &r2).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
  }
  {  // generation 3: BOTH generations' rows must recover from the new log.
    DatabaseOptions o = TestOptions();
    Database db(o);
    const TableId t = db.CreateTable("t");
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(path, &report).ok());
    // gen-1's row arrives via the opening checkpoint's image records; the
    // only commit record in the new log is gen-2's transaction.
    EXPECT_TRUE(report.checkpoint_anchored);
    EXPECT_EQ(report.committed_txns, 1u);
    auto agent = db.CreateAgent();
    db.Begin(agent.get());
    char buf[8];
    ASSERT_TRUE(db.Read(agent.get(), t, r1, buf, 8).ok());
    EXPECT_EQ(std::memcmp(buf, "gen-one!", 8), 0);
    ASSERT_TRUE(db.Read(agent.get(), t, r2, buf, 8).ok());
    EXPECT_EQ(std::memcmp(buf, "gen-two!", 8), 0);
    ASSERT_TRUE(db.Commit(agent.get()).ok());
  }
  RemoveSegmentFiles(path);
}

TEST(RecoveryEngineDeathTest, RestartWhoseFirstLogWriteFailsKeepsEveryCommit) {
  // A restart that dies before its opening checkpoint is durable must not
  // cost the previous run a single commit. The 4 KiB ring is smaller than
  // the opening checkpoint's images, so a log pass writes the new log in
  // the middle of the checkpoint, and the injected sync failure kills the
  // process at that first device write. The new generation is still
  // tentative then, so the next restart reads the old one in full.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = "slidb_restart_first_write_fails.log";
  constexpr uint64_t kRows = 200;
  DatabaseOptions o = TestOptions();
  o.log_path = path;
  o.log.buffer_bytes = 4096;
  // The death-test child re-runs this body from the top, so it rebuilds
  // the same run-1 log before the restart that dies.
  RemoveSegmentFiles(path);
  RowMap committed;
  {  // Run 1: one committed row per transaction, then a clean shutdown.
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    for (uint64_t i = 0; i < kRows; ++i) {
      const std::string row = "row-" + std::to_string(i) + "-padding-bytes";
      Rid rid;
      db.Begin(agent.get());
      ASSERT_TRUE(db.Insert(agent.get(), t, Bytes(row), &rid).ok());
      ASSERT_TRUE(db.Commit(agent.get()).ok());
      committed[rid.ToU64()] = row;
    }
  }
  EXPECT_DEATH(
      {
        Database db(o);
        db.CreateTable("t");
        SetLogSyncFailureInjection(1);
        (void)db.Recover(path);
      },
      "log device write failed");
  {  // Run 3: restart in place once more; run 1's commits are all there.
    Database db(o);
    const TableId t = db.CreateTable("t");
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(path, &report).ok());
    EXPECT_EQ(report.committed_txns, kRows);
    const RowMap rows = DumpHeap(db.catalog(), t);
    EXPECT_EQ(rows.size(), committed.size());
    EXPECT_EQ(rows, committed);
  }
  RemoveSegmentFiles(path);
}

TEST(RecoveryEngineDeathTest, TrafficBeforeRecoverOnAnExistingLogFailsStop) {
  // A database opened on a log_path that already holds a log writes a
  // tentative generation, which a later recovery ignores until Recover
  // marks it authoritative. A transaction begun before Recover would be
  // acknowledged and then lost, so Begin fails stop instead, and every
  // commit of the first run survives.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = "slidb_traffic_before_recover.log";
  constexpr uint64_t kRows = 5;
  DatabaseOptions o = TestOptions();
  o.log_path = path;
  // The death-test child re-runs this body from the top, so it rebuilds
  // the same run-1 log before the run that dies.
  RemoveSegmentFiles(path);
  RowMap committed;
  {  // Run 1: a fresh path needs no Recover.
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    for (uint64_t i = 0; i < kRows; ++i) {
      const std::string row = "row-" + std::to_string(i);
      Rid rid;
      db.Begin(agent.get());
      ASSERT_TRUE(db.Insert(agent.get(), t, Bytes(row), &rid).ok());
      ASSERT_TRUE(db.Commit(agent.get()).ok());
      committed[rid.ToU64()] = row;
    }
  }
  EXPECT_DEATH(
      {
        Database db(o);
        db.CreateTable("t");
        auto agent = db.CreateAgent();
        db.Begin(agent.get());
      },
      "call Recover before the first transaction");
  {  // Run 3: recovery still reads run 1's generation in full.
    Database db(o);
    const TableId t = db.CreateTable("t");
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(path, &report).ok());
    EXPECT_EQ(report.committed_txns, kRows);
    EXPECT_EQ(DumpHeap(db.catalog(), t), committed);
  }
  RemoveSegmentFiles(path);
}

TEST(RecoveryEngineTest, OtherFormatVersionFailsRecoverAndKeepsTheLog) {
  // A checksummed record of another format version is no torn tail:
  // treating it as one would recover nothing, and the opening checkpoint
  // would then make the empty new generation authoritative and drop the log
  // that holds every acknowledged commit. Recovery must fail instead and
  // leave the path's log as it was.
  const std::string path = "slidb_other_format_version.log";
  constexpr uint64_t kRows = 5;
  RemoveSegmentFiles(path);
  DatabaseOptions o = TestOptions();
  o.log_path = path;
  RowMap committed;
  {  // Run 1: a generation of the current version.
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    for (uint64_t i = 0; i < kRows; ++i) {
      const std::string row = "row-" + std::to_string(i);
      Rid rid;
      db.Begin(agent.get());
      ASSERT_TRUE(db.Insert(agent.get(), t, Bytes(row), &rid).ok());
      ASSERT_TRUE(db.Commit(agent.get()).ok());
      committed[rid.ToU64()] = row;
    }
  }
  // A committed insert, every record sealed at the previous version.
  std::vector<uint8_t> stream;
  AppendRecord(&stream, 1, LogRecordType::kBegin, nullptr, 0);
  AppendHeapInsert(&stream, 1, 0, Rid{0, 0}, "old-fmt.");
  AppendRecord(&stream, 1, LogRecordType::kCommit, nullptr, 0);
  for (size_t pos = 0; pos < stream.size();) {
    LogRecordHeader hdr;
    std::memcpy(&hdr, stream.data() + pos, sizeof(hdr));
    hdr.version = kLogFormatVersion - 1;
    hdr.crc = ComputeLogRecordCrc(hdr, stream.data() + pos + sizeof(hdr));
    std::memcpy(stream.data() + pos, &hdr, sizeof(hdr));
    pos += sizeof(hdr) + hdr.payload_len;
  }
  {  // Run 2: recovering that stream on the same path fails.
    Database db(o);
    db.CreateTable("t");
    RecoveryReport report;
    const Status st = db.RecoverFromStream(stream, &report);
    EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
    EXPECT_NE(st.message().find(
                  "format version " + std::to_string(kLogFormatVersion - 1)),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find("reads version " +
                                std::to_string(kLogFormatVersion)),
              std::string::npos)
        << st.ToString();
    EXPECT_EQ(report.tail_status, LogScanStatus::kBadVersion);
    EXPECT_FALSE(report.torn_tail);
  }
  {  // Run 3: recovery still reads run 1's generation in full.
    Database db(o);
    const TableId t = db.CreateTable("t");
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(path, &report).ok());
    EXPECT_EQ(report.committed_txns, kRows);
    EXPECT_EQ(DumpHeap(db.catalog(), t), committed);
  }
  RemoveSegmentFiles(path);
}

TEST(RecoveryEngineDeathTest, LogPathWithZeroSegmentBytesFailsStopAtOpen) {
  // A durable log was asked for, so a capacity the device cannot use is
  // fatal at construction rather than a silent switch to no log at all.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DatabaseOptions o = TestOptions();
  o.log_path = "slidb_zero_segment_bytes.log";
  o.log_segment_bytes = 0;
  EXPECT_DEATH({ Database db(o); }, "cannot open log device");
}

TEST(RecoveryEngineTest, HashIndexEntriesReplay) {
  CrashSink sink;
  DatabaseOptions o = TestOptions();
  sink.Install(&o.log);
  Rid rid;
  {
    Database db(o);
    const TableId t = db.CreateTable("t");
    const IndexId h = db.CreateIndex(t, "h", IndexKind::kHash, false);
    auto agent = db.CreateAgent();
    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("hashed.."), &rid).ok());
    ASSERT_TRUE(db.IndexInsert(agent.get(), h, 77, rid.ToU64()).ok());
    ASSERT_TRUE(db.IndexInsert(agent.get(), h, 78, rid.ToU64()).ok());
    ASSERT_TRUE(db.IndexRemove(agent.get(), h, 78, rid.ToU64()).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
  }
  RecoveryTarget target;
  const TableId t = target.AddTable();
  const IndexId h = target.AddHash(t);
  RecoveryManager rm(sink.Stream());
  ASSERT_TRUE(rm.Replay(&target.catalog).ok());
  uint64_t v = 0;
  ASSERT_TRUE(target.catalog.index(h).hash->Lookup(77, &v).ok());
  EXPECT_EQ(v, rid.ToU64());
  EXPECT_TRUE(target.catalog.index(h).hash->Lookup(78, &v).IsNotFound());
}

TEST(RecoveryEngineTest, AbortBeforePublishLeavesNoTrace) {
  // With staged logging, a transaction that aborts before any partial
  // batch published simply drops its staging buffer: the log never learns
  // the transaction existed (recovery would have skipped it as a ghost
  // anyway — this just skips the dead weight).
  CrashSink sink;
  DatabaseOptions o = TestOptions();
  sink.Install(&o.log);
  {
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    Rid rid;
    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("doomed.."), &rid).ok());
    db.Abort(agent.get());
    EXPECT_EQ(db.log_manager().Stats().records, 0u);
    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("kept...."), &rid).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
    EXPECT_EQ(db.log_manager().Stats().records, 3u);  // begin+insert+commit
  }
  RecoveryManager rm(sink.Stream());
  const RecoveryReport& r = rm.Scan();
  EXPECT_EQ(r.committed_txns, 1u);
  EXPECT_EQ(r.uncommitted_txns, 0u);  // the aborted txn left no records
  EXPECT_EQ(r.aborted_txns, 0u);
}

TEST(RecoveryEngineTest, WatermarkFlushedAbortStaysAGhost) {
  // A long transaction whose staging watermark fired has already published
  // redo records; its abort must close the on-log story with a kAbort
  // record, and recovery must still replay none of it.
  CrashSink sink;
  DatabaseOptions o = TestOptions();
  o.txn.staging_flush_bytes = 64;  // force mid-transaction partial publishes
  sink.Install(&o.log);
  {
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    Rid rid;
    db.Begin(agent.get());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("partial!"), &rid).ok());
    }
    EXPECT_GT(db.log_manager().Stats().records, 0u)
        << "watermark should have published a partial batch";
    db.Abort(agent.get());
  }
  RecoveryManager rm(sink.Stream());
  const RecoveryReport& r = rm.Scan();
  EXPECT_EQ(r.committed_txns, 0u);
  EXPECT_EQ(r.aborted_txns, 1u);  // the abort record made it out
  RecoveryTarget target;
  const TableId t = target.AddTable();
  ASSERT_TRUE(rm.Replay(&target.catalog).ok());
  EXPECT_TRUE(DumpHeap(target.catalog, t).empty());
  EXPECT_GT(rm.report().records_skipped, 0u);
}

// ---- concurrency: crash under load & the early-release durability gate ------

/// Agent threads in each concurrency test; their assertions hold for any
/// interleaving, so one CPU runs the same budget as several.
constexpr int kConcurrencyThreads = 4;

TEST(RecoveryConcurrencyTest, TpcbTransfersCrashConservesTotalBalance) {
  // Multi-agent account transfers with a crash armed at a random flush:
  // every committed transaction conserves the total, so ANY committed
  // prefix must conserve it too — an interleaving-independent invariant.
  constexpr int kAccounts = 32;
  constexpr uint64_t kInitialBalance = 1000;

  CrashSink sink;
  std::vector<Rid> rids(kAccounts);
  {
    DatabaseOptions o = TestOptions();
    sink.Install(&o.log);
    Database db(o);
    const TableId t = db.CreateTable("accounts");
    auto setup = db.CreateAgent();
    db.Begin(setup.get());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(db.Insert(setup.get(), t,
                            {reinterpret_cast<const uint8_t*>(&kInitialBalance),
                             sizeof(kInitialBalance)},
                            &rids[i])
                      .ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
    // Setup must be durable before the crash window opens.
    db.log_manager().WaitDurable(db.log_manager().appended_lsn());

    Rng arm_rng(2026);
    sink.Arm(500 + arm_rng.Next() % 8000);

    const int threads = kConcurrencyThreads;
    const int transfers = 150;
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        auto agent = db.CreateAgent(100 + w);
        Rng rng(977 * (w + 1));
        for (int i = 0; i < transfers; ++i) {
          size_t a = rng.Next() % kAccounts;
          size_t b = rng.Next() % kAccounts;
          if (a == b) continue;
          if (b < a) std::swap(a, b);  // canonical order: no deadlocks
          db.Begin(agent.get());
          uint64_t ba = 0, bb = 0;
          if (!db.LockRowExclusive(agent.get(), t, rids[a]).ok() ||
              !db.LockRowExclusive(agent.get(), t, rids[b]).ok() ||
              !db.Read(agent.get(), t, rids[a], &ba, sizeof(ba)).ok() ||
              !db.Read(agent.get(), t, rids[b], &bb, sizeof(bb)).ok()) {
            db.Abort(agent.get());
            continue;
          }
          const uint64_t d = rng.Next() % 50;
          if (ba < d) {
            db.Abort(agent.get());
            continue;
          }
          ba -= d;
          bb += d;
          if (!db.Update(agent.get(), t, rids[a],
                         {reinterpret_cast<const uint8_t*>(&ba), sizeof(ba)})
                   .ok() ||
              !db.Update(agent.get(), t, rids[b],
                         {reinterpret_cast<const uint8_t*>(&bb), sizeof(bb)})
                   .ok()) {
            db.Abort(agent.get());
            continue;
          }
          ASSERT_TRUE(db.Commit(agent.get()).ok());
        }
      });
    }
    for (auto& th : workers) th.join();
  }

  // Recover the crashed stream and check conservation.
  RecoveryTarget target;
  const TableId t = target.AddTable();
  RecoveryManager rm(sink.Stream());
  ASSERT_TRUE(rm.Replay(&target.catalog).ok());
  const RowMap rows = DumpHeap(target.catalog, t);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kAccounts))
      << "setup transaction must always survive (it was durable pre-crash)";
  uint64_t total = 0;
  for (const auto& [rid, bytes] : rows) {
    ASSERT_EQ(bytes.size(), sizeof(uint64_t));
    uint64_t bal = 0;
    std::memcpy(&bal, bytes.data(), sizeof(bal));
    total += bal;
  }
  EXPECT_EQ(total, kAccounts * kInitialBalance);
}

/// Incrementally parses the durable stream and records which transactions
/// have a durable commit record — the oracle for the early-release gate.
struct DurabilityAudit {
  std::mutex mu;
  std::vector<uint8_t> bytes;
  size_t parsed = 0;
  std::unordered_set<uint64_t> committed;
  /// Device write latency: each pass's bytes reach the stream this long
  /// after the sink is called.
  uint64_t device_delay_us = 0;

  void Install(LogOptions* o) {
    o->flush_sink = [this](const uint8_t* d, size_t n, Lsn) {
      if (device_delay_us != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(device_delay_us));
      }
      std::lock_guard<std::mutex> g(mu);
      bytes.insert(bytes.end(), d, d + n);
      LogRecordHeader hdr;
      const uint8_t* payload = nullptr;
      while (DecodeLogRecord(bytes.data(), bytes.size(), parsed, 0, &hdr,
                             &payload) == LogScanStatus::kOk) {
        if (hdr.type == static_cast<uint8_t>(LogRecordType::kCommit)) {
          committed.insert(hdr.txn_id);
        }
        parsed += sizeof(LogRecordHeader) + hdr.payload_len;
      }
    };
  }
  bool HasDurableCommit(uint64_t txn_id) {
    std::lock_guard<std::mutex> g(mu);
    return committed.count(txn_id) != 0;
  }
};

TEST(RecoveryConcurrencyTest, EarlyReleaseNeverReportsCommitBeforeDurable) {
  // Regression gate for early lock release: a transaction's locks drop
  // before its commit I/O completes, but Commit() must still not RETURN
  // until the commit record is durable in the sink. The audit sink is the
  // durable stream itself, so this check is exact.
  DurabilityAudit audit;
  DatabaseOptions o = TestOptions();
  audit.Install(&o.log);
  Database db(o);
  const TableId t = db.CreateTable("t");

  // Shared rows so early release actually interleaves lock hand-offs.
  std::vector<Rid> rids(8);
  {
    auto setup = db.CreateAgent();
    db.Begin(setup.get());
    const uint64_t zero = 0;
    for (auto& rid : rids) {
      ASSERT_TRUE(db.Insert(setup.get(), t,
                            {reinterpret_cast<const uint8_t*>(&zero),
                             sizeof(zero)},
                            &rid)
                      .ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  const int threads = kConcurrencyThreads;
  const int txns = 200;
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto agent = db.CreateAgent(500 + w);
      Rng rng(31 * (w + 7));
      for (int i = 0; i < txns; ++i) {
        db.Begin(agent.get());
        const uint64_t id = agent->txn().id();
        const Rid rid = rids[rng.Next() % rids.size()];
        uint64_t v = static_cast<uint64_t>(i);
        if (!db.Update(agent.get(), t, rid,
                       {reinterpret_cast<const uint8_t*>(&v), sizeof(v)})
                 .ok()) {
          db.Abort(agent.get());
          continue;
        }
        ASSERT_TRUE(db.Commit(agent.get()).ok());
        // THE gate: the caller has been told "committed" — the commit
        // record must already be durable in the device stream.
        if (!audit.HasDurableCommit(id)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(violations.load(), 0u)
      << "Commit() returned before its commit record was durable";
}

TEST(RecoveryConcurrencyTest, SpeculativeAckNeverSettlesBeforeCommitDurable) {
  // The PR-4 gate above, extended to speculative reads: with
  // speculative_reads on, Commit() returns BEFORE the commit record is
  // durable — externalization moves to the deferred ack's settlement. The
  // gate therefore moves with it: after DrainDeferredAcks() returns (every
  // parked ack settled), every commit this agent was acknowledged for must
  // be parseable from the device stream. Aborting writers are mixed in to
  // cover the dependency-capture-after-abort path under load.
  DurabilityAudit audit;
  DatabaseOptions o = TestOptions();
  o.txn.speculative_reads = true;
  audit.Install(&o.log);
  Database db(o);
  const TableId t = db.CreateTable("t");

  std::vector<Rid> rids(8);
  {
    auto setup = db.CreateAgent();
    db.Begin(setup.get());
    const uint64_t zero = 0;
    for (auto& rid : rids) {
      ASSERT_TRUE(db.Insert(setup.get(), t,
                            {reinterpret_cast<const uint8_t*>(&zero),
                             sizeof(zero)},
                            &rid)
                      .ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
    setup->DrainDeferredAcks();
  }

  const int threads = kConcurrencyThreads;
  const int txns = 200;
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> deferred_total{0};
  std::mutex aborted_mu;
  std::vector<uint64_t> aborted_ids;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto agent = db.CreateAgent(700 + w);
      CounterSet counters;
      ScopedCounterSet routed(&counters);
      Rng rng(67 * (w + 3));
      std::vector<uint64_t> acked;  // ids Commit() returned OK for
      const auto check_settled = [&] {
        agent->DrainDeferredAcks();
        // Every acknowledged commit is settled now; all must be durable.
        for (const uint64_t id : acked) {
          if (!audit.HasDurableCommit(id)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        acked.clear();
      };
      for (int i = 0; i < txns; ++i) {
        db.Begin(agent.get());
        const uint64_t id = agent->txn().id();
        const Rid rid = rids[rng.Next() % rids.size()];
        uint64_t v = 0;
        if (!db.Read(agent.get(), t, rid, &v, sizeof(v)).ok()) {
          db.Abort(agent.get());
          continue;
        }
        v += 1;
        if (!db.Update(agent.get(), t, rid,
                       {reinterpret_cast<const uint8_t*>(&v), sizeof(v)})
                 .ok()) {
          db.Abort(agent.get());
          continue;
        }
        if (rng.Next() % 8 == 0) {
          // Deliberate abort: this txn's effects are undone and must never
          // become a dependency (nor a durable commit).
          db.Abort(agent.get());
          std::lock_guard<std::mutex> g(aborted_mu);
          aborted_ids.push_back(id);
          continue;
        }
        ASSERT_TRUE(db.Commit(agent.get()).ok());
        acked.push_back(id);
        // Periodically quiesce and audit the acknowledged prefix.
        if (rng.Next() % 16 == 0) check_settled();
      }
      check_settled();
      deferred_total.fetch_add(counters.Get(Counter::kTxnDeferredAcks),
                               std::memory_order_relaxed);
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(violations.load(), 0u)
      << "a deferred ack settled before its commit record was durable";
  // The run must actually have exercised the deferred path (the 50 us
  // flush cadence guarantees fresh commit records are not yet durable at
  // the fast-path check).
  EXPECT_GT(deferred_total.load(), 0u);
  for (const uint64_t id : aborted_ids) {
    EXPECT_FALSE(audit.HasDurableCommit(id))
        << "aborted txn " << id << " has a durable commit record";
  }
}

TEST(RecoveryConcurrencyTest, ReadOnlyCommitNeverReturnsBeforeTheWritersItRead) {
  // Early lock release hands a row or table lock to a reader while the
  // writer that released it still waits for its flush. Every row holds the
  // id of the transaction that last wrote it, so a reader knows whose
  // commits it observed, and its read-only Commit() must not return before
  // each of them is durable — whether it locked IS plus row S (the row
  // head carries the writer's stamp) or table S (only the table head's IX
  // stamp does). The slow device leaves a wide window in which a missing
  // dependency shows.
  DurabilityAudit audit;
  audit.device_delay_us = 200;
  DatabaseOptions o = TestOptions();
  audit.Install(&o.log);
  Database db(o);
  const TableId t = db.CreateTable("t");
  const auto bytes = [](const uint64_t& v) {
    return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&v),
                                    sizeof(v));
  };

  std::vector<Rid> rids(8);
  {
    auto setup = db.CreateAgent();
    db.Begin(setup.get());
    const uint64_t id = setup->txn().id();
    for (auto& rid : rids) {
      ASSERT_TRUE(db.Insert(setup.get(), t, bytes(id), &rid).ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kTxns = 150;
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> table_s_commits{0};
  std::atomic<uint64_t> row_s_commits{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto agent = db.CreateAgent(900 + w);
      Rng rng(13 * (w + 5));
      for (int i = 0; i < kTxns; ++i) {
        db.Begin(agent.get());
        const uint64_t id = agent->txn().id();
        const Rid rid = rids[rng.Next() % rids.size()];
        if (!db.Update(agent.get(), t, rid, bytes(id)).ok()) {
          db.Abort(agent.get());
          continue;
        }
        ASSERT_TRUE(db.Commit(agent.get()).ok());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto agent = db.CreateAgent(950 + r);
      Rng rng(29 * (r + 11));
      std::vector<uint64_t> seen;
      for (int i = 0; i < kTxns; ++i) {
        db.Begin(agent.get());
        seen.clear();
        const bool table_s = i % 2 == 1;
        // A table S covers the rows read below, which then take no lock.
        bool ok = !table_s ||
                  db.lock_manager()
                      .Lock(&agent->txn().lock_client(),
                            LockId::Table(Database::kLockDbId, t),
                            LockMode::kS)
                      .ok();
        for (int k = 0; ok && k < 2; ++k) {
          uint64_t v = 0;
          ok = db.Read(agent.get(), t, rids[rng.Next() % rids.size()], &v,
                       sizeof(v))
                   .ok();
          seen.push_back(v);
        }
        if (!ok) {
          db.Abort(agent.get());
          continue;
        }
        ASSERT_TRUE(db.Commit(agent.get()).ok());
        // THE gate: every writer this transaction read is durable.
        for (const uint64_t id : seen) {
          if (!audit.HasDurableCommit(id)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        (table_s ? table_s_commits : row_s_commits)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0u)
      << "a read-only Commit() returned before a writer it read was durable";
  EXPECT_GT(table_s_commits.load(), 0u);
  EXPECT_GT(row_s_commits.load(), 0u);
}

// ---- checkpointed streams: bounded restart (PR "bounded restart") -----------

/// The sweep workload of RunSweepWorkload, run against a caller-provided
/// database with one fuzzy checkpoint taken before transaction
/// `checkpoint_before`. Schema: table "accounts" + btree "by_key" (created
/// here; the database must be fresh).
void RunCheckpointedWorkload(Database* db, int checkpoint_before,
                             std::vector<ShadowState>* snapshots,
                             std::vector<uint64_t>* commit_ids) {
  const TableId t = db->CreateTable("accounts");
  const IndexId idx = db->CreateIndex(t, "by_key", IndexKind::kBTree,
                                      /*unique=*/false);
  auto agent = db->CreateAgent();

  ShadowState shadow;
  snapshots->push_back(shadow);

  std::vector<Rid> rids;
  constexpr int kTxns = 18;
  for (int i = 0; i < kTxns; ++i) {
    if (i == checkpoint_before) {
      ASSERT_TRUE(db->CheckpointNow().ok());
    }
    db->Begin(agent.get());
    const uint64_t id = agent->txn().id();
    char row[8];
    std::snprintf(row, sizeof(row), "r%06d", i);
    Rid rid;
    ASSERT_TRUE(db->Insert(agent.get(), t, Bytes(std::string(row, 8)), &rid)
                    .ok());
    ASSERT_TRUE(db->IndexInsert(agent.get(), idx, 1000 + i, rid.ToU64()).ok());
    ShadowState next = shadow;
    next.rows[rid.ToU64()] = std::string(row, 8);
    next.index.emplace(1000 + i, rid.ToU64());
    rids.push_back(rid);
    if (i >= 3) {
      const Rid victim = rids[i - 3];
      if (next.rows.count(victim.ToU64()) != 0) {
        char upd[8];
        std::snprintf(upd, sizeof(upd), "u%06d", i);
        ASSERT_TRUE(
            db->Update(agent.get(), t, victim, Bytes(std::string(upd, 8)))
                .ok());
        next.rows[victim.ToU64()] = std::string(upd, 8);
      }
      if (i % 4 == 3 && i >= 9) {
        const Rid gone = rids[i - 9];
        if (next.rows.count(gone.ToU64())) {
          ASSERT_TRUE(db->Delete(agent.get(), t, gone).ok());
          ASSERT_TRUE(db->IndexRemove(agent.get(), idx, 1000 + (i - 9),
                                      gone.ToU64())
                          .ok());
          next.rows.erase(gone.ToU64());
          next.index.erase(next.index.find({1000u + (i - 9), gone.ToU64()}));
        }
      }
    }
    if (i % 3 == 2) {
      db->Abort(agent.get());
      continue;
    }
    ASSERT_TRUE(db->Commit(agent.get()).ok());
    shadow = std::move(next);
    snapshots->push_back(shadow);
    commit_ids->push_back(id);
  }
}

/// Truncate `stream` at every byte (log offsets [base, base + size]) and
/// assert recovery always reconstructs exactly the committed-prefix shadow.
void SweepEveryByte(const std::vector<uint8_t>& stream, Lsn base,
                    const std::vector<ShadowState>& snapshots,
                    const std::vector<uint64_t>& commit_ids) {
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    RecoveryManager rm(
        std::vector<uint8_t>(stream.begin(), stream.begin() + cut), base);
    rm.Scan();
    const size_t k = rm.report().committed_txns;
    ASSERT_LE(k, commit_ids.size()) << "cut=" << cut;
    for (size_t i = 0; i < commit_ids.size(); ++i) {
      EXPECT_EQ(rm.IsCommitted(commit_ids[i]), i < k)
          << "cut=" << cut << " commit#" << i;
    }
    RecoveryTarget target;
    const TableId t = target.AddTable();
    const IndexId idx = target.AddBTree(t);
    const Status replayed = rm.Replay(&target.catalog);
    ASSERT_TRUE(replayed.ok()) << "cut=" << cut << " " << replayed.message();
    EXPECT_EQ(DumpHeap(target.catalog, t), snapshots[k].rows) << "cut=" << cut;
    EXPECT_EQ(DumpBTree(target.catalog, idx), snapshots[k].index)
        << "cut=" << cut;
  }
}

TEST(CheckpointSweepTest, TruncationAtEveryByteAcrossCheckpointRecords) {
  // The acceptance sweep over a stream holding one COMPLETE fuzzy
  // checkpoint (begin, heap + index images, end-with-ATT) in the middle of
  // live traffic. A cut anywhere — before, inside, or after the checkpoint
  // — must still yield exactly a committed prefix: an incomplete checkpoint
  // contributes images but no anchor; a complete one bounds redo.
  CrashSink sink;
  std::vector<ShadowState> snapshots;
  std::vector<uint64_t> commit_ids;
  {
    DatabaseOptions o = TestOptions();
    sink.Install(&o.log);
    Database db(o);
    RunCheckpointedWorkload(&db, /*checkpoint_before=*/9, &snapshots,
                            &commit_ids);
  }
  const std::vector<uint8_t> stream = sink.Stream();
  ASSERT_FALSE(sink.device.crashed());

  {  // The full stream must anchor, and redo must be bounded by the anchor.
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    RecoveryManager rm(stream);
    const RecoveryReport& r = rm.Scan();
    ASSERT_TRUE(r.checkpoint_anchored);
    EXPECT_GT(r.redo_start_lsn, 0u);
    EXPECT_LT(r.redo_bytes, r.total_bytes);
    EXPECT_EQ(counters.Get(Counter::kRecoveryCheckpointAnchored), 1u);
  }
  SweepEveryByte(stream, /*base=*/0, snapshots, commit_ids);
}

TEST(CheckpointSweepTest, CrashFuzzWithPeriodicCheckpoints) {
  // Randomized crash-fuzz over checkpointed histories: random workload,
  // checkpoints sprinkled between transactions, device crashes at a random
  // in-flight byte. Complements the exhaustive sweep with varied
  // checkpoint placement relative to the cut.
  const uint64_t kSeeds[] = {3, 19, 271, 65537};
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    CrashSink sink;
    std::vector<ShadowState> snapshots;
    std::vector<uint64_t> commit_ids;
    {
      DatabaseOptions o = TestOptions();
      sink.Install(&o.log);
      Database db(o);
      const TableId t = db.CreateTable("t");
      const IndexId idx = db.CreateIndex(t, "i", IndexKind::kBTree, false);
      auto agent = db.CreateAgent(seed);

      ShadowState shadow;
      snapshots.push_back(shadow);
      std::vector<std::pair<Rid, uint64_t>> live;
      uint64_t next_key = 1;
      const int txns = 24 + static_cast<int>(rng.Next() % 12);
      const uint64_t crash_at = 1500 + rng.Next() % 6000;
      bool armed = false;
      for (int i = 0; i < txns; ++i) {
        if (i > 0 && i % 7 == 0) (void)db.CheckpointNow();
        if (!armed && i == txns / 3) {
          sink.Arm(crash_at);
          armed = true;
        }
        db.Begin(agent.get());
        const uint64_t id = agent->txn().id();
        ShadowState next = shadow;
        std::vector<std::pair<Rid, uint64_t>> next_live = live;
        const int ops = 1 + static_cast<int>(rng.Next() % 4);
        for (int op = 0; op < ops; ++op) {
          const uint64_t pick = rng.Next() % 10;
          if (pick < 4 || next_live.empty()) {
            char row[8];
            std::snprintf(row, sizeof(row), "k%06llu",
                          static_cast<unsigned long long>(next_key % 1000000));
            Rid rid;
            ASSERT_TRUE(
                db.Insert(agent.get(), t, Bytes(std::string(row, 8)), &rid)
                    .ok());
            ASSERT_TRUE(
                db.IndexInsert(agent.get(), idx, next_key, rid.ToU64()).ok());
            next.rows[rid.ToU64()] = std::string(row, 8);
            next.index.emplace(next_key, rid.ToU64());
            next_live.emplace_back(rid, next_key);
            ++next_key;
          } else if (pick < 8) {
            const auto& victim = next_live[rng.Next() % next_live.size()];
            char row[8];
            std::snprintf(row, sizeof(row), "u%06llu",
                          static_cast<unsigned long long>(rng.Next() %
                                                          1000000));
            ASSERT_TRUE(db.Update(agent.get(), t, victim.first,
                                  Bytes(std::string(row, 8)))
                            .ok());
            next.rows[victim.first.ToU64()] = std::string(row, 8);
          } else {
            const size_t vi = rng.Next() % next_live.size();
            const auto victim = next_live[vi];
            ASSERT_TRUE(db.Delete(agent.get(), t, victim.first).ok());
            ASSERT_TRUE(db.IndexRemove(agent.get(), idx, victim.second,
                                       victim.first.ToU64())
                            .ok());
            next.rows.erase(victim.first.ToU64());
            next.index.erase(
                next.index.find({victim.second, victim.first.ToU64()}));
            next_live.erase(next_live.begin() + static_cast<ptrdiff_t>(vi));
          }
        }
        if (rng.Next() % 5 == 0) {
          db.Abort(agent.get());
          continue;
        }
        ASSERT_TRUE(db.Commit(agent.get()).ok());
        shadow = std::move(next);
        live = std::move(next_live);
        snapshots.push_back(shadow);
        commit_ids.push_back(id);
      }
    }
    const std::vector<uint8_t> stream = sink.Stream();
    RecoveryManager rm(stream);
    rm.Scan();
    const size_t k = rm.report().committed_txns;
    ASSERT_LE(k, commit_ids.size());
    for (size_t i = 0; i < commit_ids.size(); ++i) {
      EXPECT_EQ(rm.IsCommitted(commit_ids[i]), i < k) << "commit#" << i;
    }
    RecoveryTarget target;
    const TableId t = target.AddTable();
    const IndexId idx = target.AddBTree(t);
    ASSERT_TRUE(rm.Replay(&target.catalog).ok());
    EXPECT_EQ(DumpHeap(target.catalog, t), snapshots[k].rows);
    EXPECT_EQ(DumpBTree(target.catalog, idx), snapshots[k].index);
  }
}

TEST(CheckpointSweepTest, ActiveTxnTableWidensRedoAcrossEveryCut) {
  // The ATT's reason to exist: a transaction that PUBLISHED records before
  // kCheckpointBegin and is still active at the snapshot. Its entries ride
  // the index eagerly (latch-only), so the checkpoint image CONTAINS its
  // uncommitted state — if the ATT failed to widen redo below begin-LSN, a
  // cut that leaves the txn a loser would have no record to undo the ghost
  // entry with. A one-byte staging watermark publishes every record at
  // operation time, making the scenario constructible single-threadedly
  // with index-only operations (which take no table locks, so the
  // checkpoint pass cannot block on us).
  CrashSink sink;
  std::vector<ShadowState> snapshots;
  std::vector<uint64_t> commit_ids;
  DatabaseOptions o = TestOptions();
  o.txn.staging_flush_bytes = 1;
  sink.Install(&o.log);
  {
    Database db(o);
    const TableId t = db.CreateTable("t");
    const IndexId idx = db.CreateIndex(t, "i", IndexKind::kBTree, false);
    auto walker = db.CreateAgent();   // the long transaction
    auto filler = db.CreateAgent(2);  // background committed traffic

    ShadowState shadow;
    snapshots.push_back(shadow);

    db.Begin(filler.get());
    const uint64_t f1 = filler->txn().id();
    Rid rid;
    ASSERT_TRUE(db.Insert(filler.get(), t, Bytes("filler-1"), &rid).ok());
    ASSERT_TRUE(db.Commit(filler.get()).ok());
    shadow.rows[rid.ToU64()] = "filler-1";
    snapshots.push_back(shadow);
    commit_ids.push_back(f1);

    db.Begin(walker.get());
    const uint64_t w = walker->txn().id();
    ASSERT_TRUE(db.IndexInsert(walker.get(), idx, 500, 77).ok());  // published

    Lsn redo_start = 0;
    ASSERT_TRUE(db.CheckpointNow(&redo_start).ok());

    ASSERT_TRUE(db.IndexInsert(walker.get(), idx, 501, 78).ok());
    ASSERT_TRUE(db.Commit(walker.get()).ok());
    ShadowState next = shadow;
    next.index.emplace(500, 77);
    next.index.emplace(501, 78);
    shadow = std::move(next);
    snapshots.push_back(shadow);
    commit_ids.push_back(w);

    db.Begin(filler.get());
    const uint64_t f2 = filler->txn().id();
    ASSERT_TRUE(db.Insert(filler.get(), t, Bytes("filler-2"), &rid).ok());
    ASSERT_TRUE(db.Commit(filler.get()).ok());
    shadow.rows[rid.ToU64()] = "filler-2";
    snapshots.push_back(shadow);
    commit_ids.push_back(f2);
  }
  const std::vector<uint8_t> stream = sink.Stream();
  {  // The anchor must reach BELOW its own begin record, to the walker's
     // first publish — the sharp end of the ATT contract.
    RecoveryManager rm(stream);
    const RecoveryReport& r = rm.Scan();
    ASSERT_TRUE(r.checkpoint_anchored);
    EXPECT_LT(r.redo_start_lsn, r.checkpoint_begin_lsn);
  }
  SweepEveryByte(stream, /*base=*/0, snapshots, commit_ids);
}

// ---- segmented log: sweep across segment boundaries -------------------------

TEST(SegmentedSweepTest, TruncationAtEveryByteAcrossSegmentBoundaries) {
  // The same acceptance sweep over a stream written through a REAL
  // SegmentedLogDevice with tiny segments: the stitched stream spans
  // several segment files and contains a complete checkpoint. Segment
  // rotation fsyncs the finished segment before the next opens, so every
  // possible crash prefix of the device IS a byte prefix of the stitched
  // stream — sweeping it covers cuts that land mid-record across a
  // segment boundary.
  const std::string prefix = "slidb_seg_sweep.log";
  RemoveSegmentFiles(prefix);
  std::vector<ShadowState> snapshots;
  std::vector<uint64_t> commit_ids;
  {
    DatabaseOptions o = TestOptions();
    o.log_path = prefix;
    o.log_segment_bytes = 1024;
    Database db(o);
    // Checkpoint early: its redo-start stays inside segment 0, so nothing
    // recycles and the sweep sees the whole stream from offset zero.
    RunCheckpointedWorkload(&db, /*checkpoint_before=*/3, &snapshots,
                            &commit_ids);
  }
  std::vector<uint8_t> stream;
  Lsn base = 0;
  ASSERT_TRUE(SegmentedLogDevice::ReadLog(prefix, &stream, &base).ok());
  ASSERT_EQ(base, 0u);
  ASSERT_GT(stream.size(), 2 * 1024u) << "stream must span >2 segments";
  {
    RecoveryManager rm(stream);
    ASSERT_TRUE(rm.Scan().checkpoint_anchored);
  }
  SweepEveryByte(stream, base, snapshots, commit_ids);
  RemoveSegmentFiles(prefix);
}

TEST(SegmentedEngineTest, CheckpointRecyclesSegmentsAndBoundsRestart) {
  // End-to-end bounded restart: a LATE checkpoint moves redo-start past
  // several segments, which are recycled on the spot — the log on disk,
  // and therefore restart cost, is bounded by checkpoint cadence, not
  // history length. Recovery then anchors on the checkpoint, reads a
  // nonzero base, and reconstructs every committed row. A second crash
  // immediately after recovery (the new generation's window) must also
  // lose nothing: the generation hand-off keeps the old log authoritative
  // until the opening checkpoint is durable.
  const std::string prefix = "slidb_seg_engine.log";
  RemoveSegmentFiles(prefix);
  DatabaseOptions o = TestOptions();
  o.log_path = prefix;
  o.log_segment_bytes = 1024;

  std::vector<ShadowState> snapshots;
  std::vector<uint64_t> commit_ids;
  uint64_t recycled = 0;
  {
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    Database db(o);
    RunCheckpointedWorkload(&db, /*checkpoint_before=*/15, &snapshots,
                            &commit_ids);
    recycled = counters.Get(Counter::kLogSegmentsRecycled);
  }
  EXPECT_GT(recycled, 0u) << "late checkpoint should recycle old segments";
  {
    std::vector<uint8_t> stream;
    Lsn base = 0;
    ASSERT_TRUE(SegmentedLogDevice::ReadLog(prefix, &stream, &base).ok());
    EXPECT_GT(base, 0u) << "recycling must shift the stream base";
  }

  const ShadowState& final_state = snapshots.back();
  Rid extra_rid;
  {  // First restart: recover in place, verify, add one more committed row.
    Database db(o);
    const TableId t = db.CreateTable("accounts");
    const IndexId idx = db.CreateIndex(t, "by_key", IndexKind::kBTree, false);
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(prefix, &report).ok());
    EXPECT_TRUE(report.checkpoint_anchored);
    EXPECT_LE(report.redo_bytes, report.total_bytes);
    EXPECT_EQ(DumpHeap(db.catalog(), t), final_state.rows);
    EXPECT_EQ(DumpBTree(db.catalog(), idx), final_state.index);
    auto agent = db.CreateAgent();
    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("restart1"), &extra_rid).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
  }
  {  // Second crash/restart: both the pre-crash state (via the opening
     // checkpoint in the new generation) and the post-restart row survive.
    Database db(o);
    const TableId t = db.CreateTable("accounts");
    const IndexId idx = db.CreateIndex(t, "by_key", IndexKind::kBTree, false);
    RecoveryReport report;
    ASSERT_TRUE(db.Recover(prefix, &report).ok());
    EXPECT_TRUE(report.checkpoint_anchored);
    RowMap expect_rows = final_state.rows;
    expect_rows[extra_rid.ToU64()] = "restart1";
    EXPECT_EQ(DumpHeap(db.catalog(), t), expect_rows);
    EXPECT_EQ(DumpBTree(db.catalog(), idx), final_state.index);
  }
  RemoveSegmentFiles(prefix);
}

// ---- agents write the log device -------------------------------------------

/// Four agents commit TPC-B-style transfers through a Database whose log
/// is a real device at `o.log_path`. Every synchronous commit may lead a
/// pass, so the agents — not one flusher thread — write the device, handing
/// the flush role (and the device's single-writer state) to each other.
/// After a clean shutdown, recovery must report every acknowledged commit
/// and the balances must be conserved.
void AgentsWriteTheDeviceAndRecover(const DatabaseOptions& o) {
  constexpr int kAgents = 4;
  constexpr int kAccounts = 32;
  constexpr int kTransfers = 150;
  constexpr uint64_t kInitialBalance = 1000;
  std::vector<Rid> rids(kAccounts);
  std::atomic<uint64_t> acked{0};
  {
    Database db(o);
    ASSERT_NE(db.log_device(), nullptr);
    const TableId t = db.CreateTable("accounts");
    auto setup = db.CreateAgent();
    db.Begin(setup.get());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(db.Insert(setup.get(), t,
                            {reinterpret_cast<const uint8_t*>(&kInitialBalance),
                             sizeof(kInitialBalance)},
                            &rids[i])
                      .ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
    acked.fetch_add(1);

    std::vector<std::thread> workers;
    for (int w = 0; w < kAgents; ++w) {
      workers.emplace_back([&, w] {
        auto agent = db.CreateAgent(300 + w);
        Rng rng(7919 * (w + 1));
        for (int i = 0; i < kTransfers; ++i) {
          size_t a = rng.Next() % kAccounts;
          size_t b = rng.Next() % kAccounts;
          if (a == b) continue;
          if (b < a) std::swap(a, b);  // canonical order: no deadlocks
          db.Begin(agent.get());
          uint64_t ba = 0, bb = 0;
          const uint64_t d = rng.Next() % 50;
          if (!db.LockRowExclusive(agent.get(), t, rids[a]).ok() ||
              !db.LockRowExclusive(agent.get(), t, rids[b]).ok() ||
              !db.Read(agent.get(), t, rids[a], &ba, sizeof(ba)).ok() ||
              !db.Read(agent.get(), t, rids[b], &bb, sizeof(bb)).ok() ||
              ba < d) {
            db.Abort(agent.get());
            continue;
          }
          ba -= d;
          bb += d;
          if (!db.Update(agent.get(), t, rids[a],
                         {reinterpret_cast<const uint8_t*>(&ba), sizeof(ba)})
                   .ok() ||
              !db.Update(agent.get(), t, rids[b],
                         {reinterpret_cast<const uint8_t*>(&bb), sizeof(bb)})
                   .ok()) {
            db.Abort(agent.get());
            continue;
          }
          if (db.Commit(agent.get()).ok()) acked.fetch_add(1);
        }
      });
    }
    for (auto& th : workers) th.join();
  }  // clean shutdown

  Database db(TestOptions());
  const TableId t = db.CreateTable("accounts");
  RecoveryReport report;
  ASSERT_TRUE(db.Recover(o.log_path, &report).ok());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.committed_txns, acked.load());
  const RowMap rows = DumpHeap(db.catalog(), t);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kAccounts));
  uint64_t total = 0;
  for (const auto& [rid, bytes] : rows) {
    ASSERT_EQ(bytes.size(), sizeof(uint64_t));
    uint64_t bal = 0;
    std::memcpy(&bal, bytes.data(), sizeof(bal));
    total += bal;
  }
  EXPECT_EQ(total, kAccounts * kInitialBalance);
}

TEST(AgentsWriteTheDeviceTest, SegmentsRotateUnderConcurrentLeaders) {
  DatabaseOptions o = TestOptions();
  o.log_path = "slidb_agents_segments.log";
  o.log_segment_bytes = 4096;  // dozens of rotations over the run
  RemoveSegmentFiles(o.log_path);
  AgentsWriteTheDeviceAndRecover(o);
  {
    std::vector<uint8_t> stream;
    Lsn base = 0;
    ASSERT_TRUE(SegmentedLogDevice::ReadLog(o.log_path, &stream, &base).ok());
    EXPECT_GT(stream.size(), 8 * o.log_segment_bytes)
        << "the run must rotate through several segments";
    EXPECT_LT(stream.size(), 48 * o.log_segment_bytes)
        << "RemoveSegmentFiles cleans up at most 64 segments";
  }
  RemoveSegmentFiles(o.log_path);
}

// ---- undo + CLRs: crash during recovery converges ---------------------------

/// Append a heap redo record carrying both a before-image and an
/// after-image (kUpdate / kDelete wire form).
void AppendHeapMutation(std::vector<uint8_t>* stream, uint64_t txn,
                        LogRecordType type, uint32_t table, Rid rid,
                        const std::string& before, const std::string& after) {
  std::vector<uint8_t> payload(sizeof(HeapRedoPayload) + before.size() +
                               after.size());
  HeapRedoPayload row{};
  row.table = table;
  row.slot = rid.slot;
  row.page_no = rid.page_no;
  row.before_len = static_cast<uint32_t>(before.size());
  std::memcpy(payload.data(), &row, sizeof(row));
  std::memcpy(payload.data() + sizeof(row), before.data(), before.size());
  std::memcpy(payload.data() + sizeof(row) + before.size(), after.data(),
              after.size());
  AppendRecord(stream, txn, type, payload.data(),
               static_cast<uint32_t>(payload.size()));
}

TEST(UndoClrTest, CrashDuringUndoConvergesIdempotently) {
  // The double-crash contract: a crash DURING the undo pass leaves the new
  // log holding a prefix of the loser's CLRs. The next recovery replays
  // those CLRs (repeating the partial rollback) and then re-runs the FULL
  // undo — convergent because before-image restoration is absolute, not
  // incremental. Exercised for every possible CLR prefix length, plus the
  // fully-closed case (all CLRs + the loser's kAbort), plus a warm
  // double-replay over an already-recovered target.
  std::vector<uint8_t> stream;
  const Rid x{0, 0};
  AppendHeapInsert(&stream, 1, 0, x, "version0");
  AppendRecord(&stream, 1, LogRecordType::kCommit, nullptr, 0);
  AppendHeapMutation(&stream, 2, LogRecordType::kUpdate, 0, x, "version0",
                     "version1");
  AppendHeapInsert(&stream, 2, 0, Rid{0, 1}, "ghostrow");
  // txn 2 never commits: the crash caught it mid-flight.

  const RowMap expect{{x.ToU64(), "version0"}};

  // First recovery: capture the CLRs its undo pass emits.
  struct CapturedClr {
    uint64_t loser;
    std::vector<uint8_t> wire;  // ClrPayload + inner redo payload
  };
  std::vector<CapturedClr> clrs;
  const ClrSink capture = [&](uint64_t loser, LogRecordType redo_type,
                              const uint8_t* payload, uint32_t len,
                              Lsn undo_of_lsn) {
    CapturedClr c;
    c.loser = loser;
    c.wire.resize(sizeof(ClrPayload) + len);
    ClrPayload clr{};
    clr.redo_type = static_cast<uint8_t>(redo_type);
    clr.undo_of_lsn = undo_of_lsn;
    std::memcpy(c.wire.data(), &clr, sizeof(clr));
    if (len != 0) std::memcpy(c.wire.data() + sizeof(clr), payload, len);
    clrs.push_back(std::move(c));
  };
  {
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    RecoveryTarget target;
    const TableId t = target.AddTable();
    RecoveryManager rm(stream);
    ASSERT_TRUE(rm.Replay(&target.catalog, capture).ok());
    EXPECT_EQ(DumpHeap(target.catalog, t), expect);
    EXPECT_EQ(rm.report().records_undone, 2u);
    EXPECT_EQ(rm.report().clrs_emitted, 2u);
    EXPECT_EQ(rm.report().losers_rolled_back, 1u);
    EXPECT_EQ(counters.Get(Counter::kRecoveryClrsEmitted), 2u);
  }
  ASSERT_EQ(clrs.size(), 2u);

  // Second crash at every point of the undo pass: 0, 1, or 2 CLRs made it
  // out, and possibly the closing kAbort too. All must converge.
  for (size_t survived = 0; survived <= clrs.size() + 1; ++survived) {
    SCOPED_TRACE("clrs_survived=" + std::to_string(survived));
    std::vector<uint8_t> stream2 = stream;
    for (size_t i = 0; i < std::min(survived, clrs.size()); ++i) {
      AppendRecord(&stream2, clrs[i].loser, LogRecordType::kClr,
                   clrs[i].wire.data(),
                   static_cast<uint32_t>(clrs[i].wire.size()));
    }
    if (survived > clrs.size()) {
      // Undo finished and the loser was closed; the next recovery treats
      // it as durably aborted and skips its records AND its CLRs.
      AppendRecord(&stream2, 2, LogRecordType::kAbort, nullptr, 0);
    }
    RecoveryTarget target;
    const TableId t = target.AddTable();
    RecoveryManager rm(stream2);
    ASSERT_TRUE(rm.Replay(&target.catalog).ok());
    EXPECT_EQ(DumpHeap(target.catalog, t), expect);
    if (survived <= clrs.size()) {
      // Still a loser: the full undo ran again on top of the replayed
      // partial rollback.
      EXPECT_EQ(rm.report().records_undone, 2u);
      EXPECT_EQ(rm.report().losers_rolled_back, 1u);
    } else {
      EXPECT_EQ(rm.report().records_undone, 0u);
      EXPECT_GT(rm.report().records_skipped, 0u);
    }
  }
}

TEST(UndoClrTest, EngineEmitsClrsAndClosesLosersOnRecovery) {
  // Through the engine: a crash strands a loser with published records;
  // Database::RecoverFromStream must roll it back, emit CLRs into the NEW
  // log, and close the loser with a kAbort so a second crash skips it.
  CrashSink sink;
  DatabaseOptions o = TestOptions();
  o.txn.staging_flush_bytes = 1;  // publish at operation time
  sink.Install(&o.log);
  Rid r1, r2;
  {
    Database db(o);
    const TableId t = db.CreateTable("t");
    auto agent = db.CreateAgent();
    db.Begin(agent.get());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("durable."), &r1).ok());
    ASSERT_TRUE(db.Commit(agent.get()).ok());
    db.Begin(agent.get());
    ASSERT_TRUE(db.Update(agent.get(), t, r1, Bytes("overwrit")).ok());
    ASSERT_TRUE(db.Insert(agent.get(), t, Bytes("stranded"), &r2).ok());
    // Crash with the loser's records published AND flushed, but no
    // commit: wait for a pass to push the published records to the
    // device, then drop everything after — including the abort record the
    // explicit Abort below would otherwise persist. reserved_lsn, not
    // appended_lsn: the published watermark lags filled records until a
    // pass consumes their slots.
    db.log_manager().WaitDurable(db.log_manager().reserved_lsn());
    sink.Arm(0);
    db.Abort(agent.get());
  }
  CrashSink sink2;
  DatabaseOptions o2 = TestOptions();
  sink2.Install(&o2.log);
  {
    CounterSet counters;
    ScopedCounterSet routed(&counters);
    Database db(o2);
    const TableId t = db.CreateTable("t");
    RecoveryReport report;
    ASSERT_TRUE(db.RecoverFromStream(sink.Stream(), &report).ok());
    EXPECT_EQ(report.losers_rolled_back, 1u);
    EXPECT_GT(report.clrs_emitted, 0u);
    EXPECT_EQ(counters.Get(Counter::kRecoveryClrsEmitted),
              report.clrs_emitted);
    const RowMap rows = DumpHeap(db.catalog(), t);
    EXPECT_EQ(rows, (RowMap{{r1.ToU64(), "durable."}}));
  }
  // The new log must carry the CLRs and the loser's closing kAbort — and
  // recovering FROM IT (a second crash) must reproduce the same state.
  RecoveryTarget target;
  const TableId t = target.AddTable();
  RecoveryManager rm(sink2.Stream());
  rm.Scan();
  EXPECT_GT(rm.report().aborted_txns, 0u);
  ASSERT_TRUE(rm.Replay(&target.catalog).ok());
  EXPECT_EQ(DumpHeap(target.catalog, t), (RowMap{{r1.ToU64(), "durable."}}));
}

// ---- checkpointer under concurrency -----------------------------------------

TEST(CheckpointConcurrencyTest, FuzzyPassesUnderConcurrentWriters) {
  CrashSink sink;
  DatabaseOptions o = TestOptions();
  sink.Install(&o.log);
  Database db(o);
  const TableId t = db.CreateTable("t");
  auto setup = db.CreateAgent();
  std::vector<Rid> rids;
  db.Begin(setup.get());
  for (int i = 0; i < 32; ++i) {
    Rid rid;
    ASSERT_TRUE(db.Insert(setup.get(), t, Bytes("initial."), &rid).ok());
    rids.push_back(rid);
  }
  ASSERT_TRUE(db.Commit(setup.get()).ok());

  constexpr int kWriters = 3;
  constexpr int kTxnsPerWriter = 120;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> commit_failures{0};

  auto writer_fn = [&](int w) {
    auto agent = db.CreateAgent(100 + static_cast<uint64_t>(w));
    Rng rng(7 * w + 1);
    for (int i = 0; i < kTxnsPerWriter; ++i) {
      db.Begin(agent.get());
      const Rid victim = rids[rng.Next() % rids.size()];
      char val[8];
      std::snprintf(val, sizeof(val), "w%02dv%03d", w, i % 1000);
      if (!db.Update(agent.get(), t, victim, Bytes(std::string(val, 8)))
               .ok()) {
        db.Abort(agent.get());
        commit_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!db.Commit(agent.get()).ok()) {
        commit_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  uint64_t passes = 0;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) writers.emplace_back(writer_fn, w);
  // Checkpoint continuously while writers hammer the same rows: passes may
  // abandon on lock timeouts (never deadlock), completed ones must be sound.
  while (!writers_done.load(std::memory_order_acquire)) {
    if (db.CheckpointNow().ok()) ++passes;
    if (passes >= 64) break;  // plenty of fuzz; let writers finish
  }
  writers_done.store(true, std::memory_order_release);
  for (auto& th : writers) th.join();
  // At least one pass must complete with the writers quiesced.
  ASSERT_TRUE(db.CheckpointNow().ok());
  ++passes;
  EXPECT_EQ(commit_failures.load(), 0u);

  // The authoritative final state is the engine's own storage; a fresh
  // recovery of the captured stream must reproduce it exactly, anchored at
  // the last completed checkpoint.
  const RowMap engine_rows = DumpHeap(db.catalog(), t);
  db.log_manager().WaitDurable(db.log_manager().reserved_lsn());

  RecoveryManager rm(sink.Stream());
  const RecoveryReport& r = rm.Scan();
  EXPECT_TRUE(r.checkpoint_anchored);
  EXPECT_LT(r.redo_bytes, r.total_bytes);
  RecoveryTarget target;
  const TableId rt = target.AddTable();
  ASSERT_TRUE(rm.Replay(&target.catalog).ok());
  EXPECT_EQ(DumpHeap(target.catalog, rt), engine_rows);
}

}  // namespace
}  // namespace slidb
