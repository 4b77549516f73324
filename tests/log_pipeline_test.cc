// Tests for the decentralized log pipeline: latch-free reservation +
// per-slot publication, ring wrap-around, ring-space and publish-slot
// backpressure, multi-writer append ordering, and leader/follower group
// commit. The flush_sink hook captures the exact durable byte stream so
// every test can verify record integrity end to end. This suite runs under
// TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/log/log_manager.h"
#include "src/log/log_record.h"
#include "src/stats/counters.h"
#include "tests/held_pass_script.h"

namespace slidb {
namespace {

/// Captures the durable byte stream emitted by the passes and checks the
/// chunks arrive contiguously from LSN 0.
struct StreamCapture {
  std::mutex mu;
  std::vector<uint8_t> bytes;
  Lsn expect = 0;
  bool contiguous = true;

  void Install(LogOptions* o) {
    o->flush_sink = [this](const uint8_t* d, size_t n, Lsn start) {
      std::lock_guard<std::mutex> g(mu);
      if (start != expect) contiguous = false;
      bytes.insert(bytes.end(), d, d + n);
      expect = start + n;
    };
  }
};

struct ParsedRecord {
  uint64_t txn_id;
  uint8_t type;
  std::vector<uint8_t> payload;
};

/// Parse a captured stream back into records through the real wire-format
/// validator (CRC32C + self-LSN + version checks on every record); fails
/// the test on a torn, corrupt, or truncated record — exactly the scanner's
/// view.
std::vector<ParsedRecord> ParseStream(const std::vector<uint8_t>& bytes) {
  std::vector<ParsedRecord> out;
  size_t pos = 0;
  for (;;) {
    LogRecordHeader hdr;
    const uint8_t* payload = nullptr;
    const LogScanStatus st = DecodeLogRecord(bytes.data(), bytes.size(), pos,
                                             /*base_lsn=*/0, &hdr, &payload);
    if (st == LogScanStatus::kEndOfStream) break;
    if (st != LogScanStatus::kOk) {
      ADD_FAILURE() << "invalid record at " << pos << ": "
                    << LogScanStatusName(st);
      break;
    }
    ParsedRecord r;
    r.txn_id = hdr.txn_id;
    r.type = hdr.type;
    r.payload.assign(payload, payload + hdr.payload_len);
    out.push_back(std::move(r));
    pos += sizeof(LogRecordHeader) + hdr.payload_len;
  }
  return out;
}

/// Deterministic payload for (writer, seq): lets integrity checks detect
/// any byte written to the wrong reservation.
std::vector<uint8_t> PayloadFor(uint32_t writer, uint32_t seq, size_t len) {
  std::vector<uint8_t> p(len);
  for (size_t i = 0; i < len; ++i) {
    p[i] = static_cast<uint8_t>(writer * 131 + seq * 17 + i);
  }
  return p;
}

TEST(LogPipelineTest, MultiWriterAppendOrderingAndIntegrity) {
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 16;  // 64 KB: forces several wraps
  o.flush_interval_us = 20;
  o.reservation_slots = 64;
  capture.Install(&o);

  constexpr int kWriters = 4;
  constexpr uint32_t kEach = 300;
  {
    LogManager log(o);
    std::vector<std::thread> threads;
    std::atomic<Lsn> max_end{0};
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (uint32_t i = 0; i < kEach; ++i) {
          // Variable sizes so reservations land at irregular offsets.
          const std::vector<uint8_t> p =
              PayloadFor(static_cast<uint32_t>(w), i, 16 + (i % 48));
          const Lsn end = log.Append(100 + w, LogRecordType::kUpdate,
                                     p.data(), static_cast<uint32_t>(p.size()));
          Lsn cur = max_end.load();
          while (end > cur && !max_end.compare_exchange_weak(cur, end)) {
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    log.WaitDurable(max_end.load());
    EXPECT_GE(log.durable_lsn(), max_end.load());
    EXPECT_EQ(log.Stats().records, uint64_t{kWriters} * kEach);
  }  // destructor runs the shutdown pass; capture is complete and quiescent

  EXPECT_TRUE(capture.contiguous);
  const std::vector<ParsedRecord> records = ParseStream(capture.bytes);
  ASSERT_EQ(records.size(), size_t{kWriters} * kEach);

  // Per-writer: every record present exactly once, in program order (a
  // writer's appends get strictly increasing LSNs, so the LSN-ordered
  // durable stream must preserve each writer's sequence).
  uint32_t next_seq[kWriters] = {};
  for (const ParsedRecord& r : records) {
    ASSERT_GE(r.txn_id, 100u);
    const auto w = static_cast<uint32_t>(r.txn_id - 100);
    ASSERT_LT(w, static_cast<uint32_t>(kWriters));
    const uint32_t seq = next_seq[w]++;
    const std::vector<uint8_t> want = PayloadFor(w, seq, 16 + (seq % 48));
    ASSERT_EQ(r.payload, want) << "writer " << w << " record " << seq;
  }
  for (int w = 0; w < kWriters; ++w) EXPECT_EQ(next_seq[w], kEach);
}

TEST(LogPipelineTest, RingWrapAroundPreservesRecordBytes) {
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 12;  // 4 KB ring, ~100 B records: dozens of wraps
  o.flush_interval_us = 20;
  capture.Install(&o);

  constexpr uint32_t kRecords = 500;
  {
    LogManager log(o);
    Lsn last = 0;
    for (uint32_t i = 0; i < kRecords; ++i) {
      const std::vector<uint8_t> p = PayloadFor(7, i, 64 + (i % 32));
      last = log.Append(7, LogRecordType::kUpdate, p.data(),
                        static_cast<uint32_t>(p.size()));
    }
    log.WaitDurable(last);
    EXPECT_GE(log.durable_lsn(), last);
  }

  EXPECT_TRUE(capture.contiguous);
  const std::vector<ParsedRecord> records = ParseStream(capture.bytes);
  ASSERT_EQ(records.size(), kRecords);
  for (uint32_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].payload, PayloadFor(7, i, 64 + (i % 32)))
        << "record " << i;
  }
}

TEST(LogPipelineTest, FullRingBackpressureBlocksThenCompletes) {
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 11;           // 2 KB ring holds ~4 records
  o.simulated_io_delay_us = 500;      // slow device: ring must fill
  o.flush_interval_us = 20;
  capture.Install(&o);

  constexpr int kWriters = 3;
  constexpr uint32_t kEach = 30;
  std::vector<CounterSet> counters(kWriters);
  {
    LogManager log(o);
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        ScopedCounterSet routed(&counters[w]);
        for (uint32_t i = 0; i < kEach; ++i) {
          const std::vector<uint8_t> p =
              PayloadFor(static_cast<uint32_t>(w), i, 400);
          log.Append(200 + w, LogRecordType::kUpdate, p.data(),
                     static_cast<uint32_t>(p.size()));
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(log.Stats().records, uint64_t{kWriters} * kEach);
  }

  uint64_t retries = 0;
  for (const CounterSet& c : counters) retries += c.Get(Counter::kLogResvRetries);
  EXPECT_GT(retries, 0u);  // the 2 KB ring cannot hold 90 × 416 B without waits

  EXPECT_TRUE(capture.contiguous);
  EXPECT_EQ(ParseStream(capture.bytes).size(), size_t{kWriters} * kEach);
}

TEST(LogPipelineTest, PublishSlotBackpressureKeepsOrdering) {
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 20;   // plenty of bytes...
  o.reservation_slots = 2;    // ...but only 2 records in flight at a time
  o.flush_interval_us = 10;
  capture.Install(&o);

  constexpr int kWriters = 4;
  constexpr uint32_t kEach = 200;
  {
    LogManager log(o);
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (uint32_t i = 0; i < kEach; ++i) {
          const std::vector<uint8_t> p =
              PayloadFor(static_cast<uint32_t>(w), i, 24);
          log.Append(300 + w, LogRecordType::kUpdate, p.data(),
                     static_cast<uint32_t>(p.size()));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  EXPECT_TRUE(capture.contiguous);
  const std::vector<ParsedRecord> records = ParseStream(capture.bytes);
  ASSERT_EQ(records.size(), size_t{kWriters} * kEach);
  uint32_t next_seq[kWriters] = {};
  for (const ParsedRecord& r : records) {
    const auto w = static_cast<uint32_t>(r.txn_id - 300);
    ASSERT_LT(w, static_cast<uint32_t>(kWriters));
    const uint32_t seq = next_seq[w]++;
    ASSERT_EQ(r.payload, PayloadFor(w, seq, 24));
  }
}

TEST(LogPipelineTest, ConsolidatedGroupCommitWakesWaiters) {
  LogOptions o;
  o.flush_interval_us = 100;
  o.simulated_io_delay_us = 200;  // waits actually block

  constexpr int kThreads = 6;
  constexpr int kCommitsEach = 20;
  std::vector<CounterSet> counters(kThreads);
  LogManager log(o);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedCounterSet routed(&counters[t]);
      for (int i = 0; i < kCommitsEach; ++i) {
        const Lsn lsn = log.Append(t + 1, LogRecordType::kCommit, nullptr, 0);
        log.WaitDurable(lsn);
        EXPECT_GE(log.durable_lsn(), lsn);
      }
    });
  }
  for (auto& th : threads) th.join();

  const LogStats stats = log.Stats();
  EXPECT_EQ(stats.records, uint64_t{kThreads} * kCommitsEach);
  EXPECT_LT(stats.flushes, stats.records);  // group commit still batches
  uint64_t woken = 0;
  for (const CounterSet& c : counters) {
    woken += c.Get(Counter::kGroupCommitWaitersWoken);
  }
  EXPECT_GT(woken, 0u);
  EXPECT_LE(woken, uint64_t{kThreads} * kCommitsEach);
}

TEST(LogPipelineTest, NoFollowerWaitsOnTheTimer) {
  // The held-pass script with the background flusher's cadence at one
  // hour: a follower that queued behind the held pass must be settled by
  // the pass after it or lead it itself, never left for the timer.
  const HeldPassResult r =
      RunHeldPassScript(/*flush_interval_us=*/3'600'000'000ull);
  EXPECT_LT(r.release_ns, uint64_t{10'000'000'000})
      << "followers waited for the background flusher's timer";
  EXPECT_EQ(r.records, 4u);
  EXPECT_EQ(r.flushes, 2u);
}

TEST(LogPipelineTest, ReservedAppendedDurableLsnOrdering) {
  LogOptions o;
  o.flush_interval_us = 50;
  LogManager log(o);
  for (int i = 0; i < 50; ++i) {
    log.Append(1, LogRecordType::kUpdate, "xyz", 3);
    EXPECT_LE(log.durable_lsn(), log.appended_lsn());
    EXPECT_LE(log.appended_lsn(), log.reserved_lsn());
  }
  const Lsn last = log.Append(1, LogRecordType::kCommit, nullptr, 0);
  log.WaitDurable(last);
  EXPECT_GE(log.durable_lsn(), last);
  EXPECT_EQ(log.reserved_lsn(), last);
}

TEST(LogPipelineTest, SequenceNumberWrapAt2To20Records) {
  // Regression: the packed reservation ticket carries a 20-bit record
  // sequence number that wraps at 2^20 records. The publish-slot tags must
  // keep matching across the wrap (they compare in modular seq space);
  // before the fix, the writer of record 2^20 waited forever on a tag that
  // could no longer occur.
  LogOptions o;
  o.flush_interval_us = 10;
  LogManager log(o);
  constexpr int kWriters = 2;
  constexpr uint64_t kTotal = (uint64_t{1} << 20) + 4096;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kTotal / kWriters; ++i) {
        log.Append(600 + w, LogRecordType::kUpdate, nullptr, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Lsn last = log.Append(600, LogRecordType::kCommit, nullptr, 0);
  log.WaitDurable(last);
  EXPECT_GE(log.durable_lsn(), last);
  EXPECT_EQ(log.Stats().records, kTotal + 1);
}

TEST(LogBatchTest, EveryBatchedRecordIsSealedAlone) {
  // One batch of [8 tiny][1 big][8 tiny] records rides ONE reservation, yet
  // every record must come out sealed on its own: cut out of the stream,
  // each one still passes the validator at its own LSN.
  StreamCapture capture;
  LogOptions o;
  o.flush_interval_us = 20;
  capture.Install(&o);

  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < 17; ++i) {
    payloads.push_back(PayloadFor(1, i, i == 8 ? 200 : 8));
  }
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    LogManager log(o);
    LogStagingBuffer staging;
    for (const std::vector<uint8_t>& p : payloads) {
      staging.Stage(42, LogRecordType::kUpdate, p.data(),
                    static_cast<uint32_t>(p.size()));
    }
    ASSERT_EQ(staging.records(), 17u);
    const Lsn end = log.AppendBatch(&staging);
    // The buffer keeps its records (a transaction's undo log) but has none
    // left to publish: a second call appends nothing, which the record and
    // reservation counts below confirm.
    EXPECT_EQ(staging.records(), 17u);
    EXPECT_EQ(staging.unpublished_bytes(), 0u);
    log.AppendBatch(&staging);
    log.WaitDurable(end);
    EXPECT_EQ(log.Stats().records, 17u);
  }

  EXPECT_EQ(counters.Get(Counter::kLogBatchAppends), 1u);  // ONE reservation
  EXPECT_EQ(counters.Get(Counter::kLogBatchRecords), 17u);
  EXPECT_EQ(counters.Get(Counter::kLogBatchBytes), capture.bytes.size());

  size_t pos = 0;
  for (uint32_t i = 0; i < 17; ++i) {
    ASSERT_LE(pos + sizeof(LogRecordHeader), capture.bytes.size());
    LogRecordHeader hdr;
    std::memcpy(&hdr, capture.bytes.data() + pos, sizeof(hdr));
    const size_t len = sizeof(LogRecordHeader) + hdr.payload_len;
    ASSERT_LE(pos + len, capture.bytes.size()) << "record " << i;
    const std::vector<uint8_t> alone(capture.bytes.begin() + pos,
                                     capture.bytes.begin() + pos + len);
    const uint8_t* payload = nullptr;
    ASSERT_EQ(DecodeLogRecord(alone.data(), alone.size(), 0, /*base_lsn=*/pos,
                              &hdr, &payload),
              LogScanStatus::kOk)
        << "record " << i << " at " << pos << " is not sealed on its own";
    EXPECT_EQ(hdr.txn_id, 42u);
    EXPECT_EQ(hdr.type, static_cast<uint8_t>(LogRecordType::kUpdate));
    EXPECT_EQ(std::vector<uint8_t>(payload, payload + hdr.payload_len),
              payloads[i])
        << "record " << i;
    pos += len;
  }
  EXPECT_EQ(pos, capture.bytes.size());
}

TEST(LogBatchTest, MultiWriterBatchInterleavingThroughRealValidator) {
  // Several writers publishing whole batches (tiny records plus an
  // occasional big one), interleaved with a per-record appender, over a
  // small ring. The durable stream must decode
  // through the real validator with every writer's records in program
  // order AND each batch's records contiguous — one reservation, one
  // extent. TSan target (this suite runs under TSan in CI).
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 15;  // 32 KB: several wraps
  o.reservation_slots = 32;
  o.flush_interval_us = 10;
  capture.Install(&o);

  constexpr int kBatchWriters = 3;
  constexpr uint32_t kBatches = 120;
  constexpr uint32_t kPerBatch = 9;  // 8 tiny + 1 big
  constexpr uint32_t kSingles = 400;
  std::vector<CounterSet> counters(kBatchWriters + 1);
  {
    LogManager log(o);
    std::vector<std::thread> threads;
    for (int w = 0; w < kBatchWriters; ++w) {
      threads.emplace_back([&, w] {
        ScopedCounterSet routed(&counters[w]);
        LogStagingBuffer staging;
        for (uint32_t b = 0; b < kBatches; ++b) {
          for (uint32_t r = 0; r < kPerBatch; ++r) {
            // Batch number rides the payload so the parser can assert
            // batch extents stayed contiguous.
            const uint32_t seq = b * kPerBatch + r;
            const std::vector<uint8_t> p =
                PayloadFor(static_cast<uint32_t>(w), seq,
                           r + 1 == kPerBatch ? 120 : 12);
            staging.Stage(700 + w, LogRecordType::kUpdate, p.data(),
                          static_cast<uint32_t>(p.size()));
          }
          log.AppendBatch(&staging);
          staging.Clear();
        }
      });
    }
    threads.emplace_back([&] {
      ScopedCounterSet routed(&counters[kBatchWriters]);
      for (uint32_t i = 0; i < kSingles; ++i) {
        const std::vector<uint8_t> p = PayloadFor(99, i, 20);
        log.Append(700 + kBatchWriters, LogRecordType::kUpdate, p.data(),
                   static_cast<uint32_t>(p.size()));
      }
    });
    for (auto& t : threads) t.join();
    EXPECT_EQ(log.Stats().records,
              uint64_t{kBatchWriters} * kBatches * kPerBatch + kSingles);
  }

  uint64_t batch_appends = 0, batch_records = 0;
  for (const CounterSet& c : counters) {
    batch_appends += c.Get(Counter::kLogBatchAppends);
    batch_records += c.Get(Counter::kLogBatchRecords);
  }
  EXPECT_GE(batch_appends, uint64_t{kBatchWriters} * kBatches);
  EXPECT_EQ(batch_records, uint64_t{kBatchWriters} * kBatches * kPerBatch);

  EXPECT_TRUE(capture.contiguous);
  const std::vector<ParsedRecord> records = ParseStream(capture.bytes);
  ASSERT_EQ(records.size(),
            size_t{kBatchWriters} * kBatches * kPerBatch + kSingles);
  uint32_t next_seq[kBatchWriters + 1] = {};
  for (size_t i = 0; i < records.size(); ++i) {
    const ParsedRecord& r = records[i];
    const auto w = static_cast<uint32_t>(r.txn_id - 700);
    ASSERT_LE(w, static_cast<uint32_t>(kBatchWriters));
    const uint32_t seq = next_seq[w]++;
    if (w == kBatchWriters) {
      ASSERT_EQ(r.payload, PayloadFor(99, seq, 20));
      continue;
    }
    const uint32_t in_batch = seq % kPerBatch;
    ASSERT_EQ(r.payload,
              PayloadFor(w, seq, in_batch + 1 == kPerBatch ? 120 : 12))
        << "writer " << w << " record " << seq;
    // Batch atomicity: records of one batch are adjacent in the stream.
    if (in_batch > 0) {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(records[i - 1].txn_id, r.txn_id)
          << "batch of writer " << w << " torn apart at record " << seq;
    }
  }
  for (int w = 0; w < kBatchWriters; ++w) {
    EXPECT_EQ(next_seq[w], kBatches * kPerBatch);
  }
  EXPECT_EQ(next_seq[kBatchWriters], kSingles);
}

TEST(LogBatchTest, OversizedBatchSplitsAcrossReservations) {
  // A staged batch larger than half the ring must split into several
  // reservations (at segment granularity) and still publish every record
  // in order — the chunking path that prevents a self-deadlocking
  // larger-than-ring reservation.
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 12;  // 4 KB ring
  o.flush_interval_us = 10;
  capture.Install(&o);

  constexpr uint32_t kRecords = 64;  // 64 × ~532 B  >>  ring
  CounterSet counters;
  {
    ScopedCounterSet routed(&counters);
    LogManager log(o);
    LogStagingBuffer staging;
    for (uint32_t i = 0; i < kRecords; ++i) {
      const std::vector<uint8_t> p = PayloadFor(3, i, 500);
      staging.Stage(900, LogRecordType::kUpdate, p.data(),
                    static_cast<uint32_t>(p.size()));
    }
    const Lsn end = log.AppendBatch(&staging);
    log.WaitDurable(end);
  }
  EXPECT_GT(counters.Get(Counter::kLogBatchAppends), 1u);
  EXPECT_EQ(counters.Get(Counter::kLogBatchRecords), uint64_t{kRecords});

  EXPECT_TRUE(capture.contiguous);
  const std::vector<ParsedRecord> records = ParseStream(capture.bytes);
  ASSERT_EQ(records.size(), size_t{kRecords});
  for (uint32_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].payload, PayloadFor(3, i, 500));
  }
}

// Mixed appenders and committers over a small ring with few slots — the
// whole pipeline under maximum interleaving. This is the TSan stress
// target: the reservation fetch-add, slot publish/consume pairs, ring
// byte hand-off, and leader/follower hand-offs all race here.
TEST(LogPipelineTest, StressMixedAppendAndCommit) {
  StreamCapture capture;
  LogOptions o;
  o.buffer_bytes = 1 << 13;  // 8 KB
  o.reservation_slots = 16;
  o.flush_interval_us = 10;
  capture.Install(&o);

  constexpr int kThreads = 4;
  constexpr uint32_t kOpsEach = 1500;
  {
    LogManager log(o);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (uint32_t i = 0; i < kOpsEach; ++i) {
          if (i % 8 == 7) {
            const Lsn lsn =
                log.Append(500 + t, LogRecordType::kCommit, nullptr, 0);
            log.WaitDurable(lsn);
            EXPECT_GE(log.durable_lsn(), lsn);
          } else {
            const std::vector<uint8_t> p =
                PayloadFor(static_cast<uint32_t>(t), i, 8 + (i % 64));
            log.Append(500 + t, LogRecordType::kUpdate, p.data(),
                       static_cast<uint32_t>(p.size()));
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(log.Stats().records, uint64_t{kThreads} * kOpsEach);
  }

  EXPECT_TRUE(capture.contiguous);
  const std::vector<ParsedRecord> records = ParseStream(capture.bytes);
  ASSERT_EQ(records.size(), size_t{kThreads} * kOpsEach);
  uint32_t next_op[kThreads] = {};
  for (const ParsedRecord& r : records) {
    const auto t = static_cast<uint32_t>(r.txn_id - 500);
    ASSERT_LT(t, static_cast<uint32_t>(kThreads));
    const uint32_t i = next_op[t]++;
    if (i % 8 == 7) {
      EXPECT_EQ(r.type, static_cast<uint8_t>(LogRecordType::kCommit));
      EXPECT_TRUE(r.payload.empty());
    } else {
      ASSERT_EQ(r.payload, PayloadFor(t, i, 8 + (i % 64)));
    }
  }
}

}  // namespace
}  // namespace slidb
