// The benchmark's client: ports of the tm1, tpcb and flash-sale transaction
// programs that issue every Database call themselves, through a Session that
// can time each call from outside the engine. Loading goes through the
// repository's own Workload::Load, so set-up time is the repository's.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oltpbench/stats.h"
#include "src/engine/database.h"
#include "src/util/rng.h"

namespace oltpbench {

using slidb::AgentContext;
using slidb::Database;
using slidb::IndexId;
using slidb::Rid;
using slidb::Rng;
using slidb::Status;
using slidb::TableId;

/// The Database calls a transaction program makes, one span name each.
enum class Call : uint8_t {
  kBegin,
  kCommit,
  kAbort,
  kIndexLookup,
  kIndexScan,
  kIndexInsert,
  kIndexRemove,
  kRead,
  kUpdate,
  kInsert,
  kDelete,
  kLockRowX,
  kNumCalls,
};
inline constexpr size_t kNumCalls = static_cast<size_t>(Call::kNumCalls);
const char* CallName(Call c);

/// One recorded span. Spans of one transaction share `txn_id`; span 0 is
/// the transaction itself and is every call's parent, except that row reads
/// made from an index-scan callback have the scan as parent.
struct RawSpan {
  uint64_t txn_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_id = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-agent span store, written only by its agent: every call is
/// aggregated per call type (count, total, a reservoir of durations), and
/// every kRawStride-th transaction keeps its raw spans until `raw` is full.
class Tracer {
 public:
  static constexpr uint64_t kRawStride = 512;

  Tracer(uint32_t reservoir_capacity, size_t raw_capacity, uint64_t seed);

  struct CallStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    Reservoir durations;
  };

  const std::array<CallStats, kNumCalls>& calls() const { return calls_; }
  const std::vector<RawSpan>& raw() const { return raw_; }

 private:
  friend class Session;

  std::array<CallStats, kNumCalls> calls_;
  std::vector<RawSpan> raw_;
  size_t raw_capacity_;
  Rng rng_;
};

/// One agent's view of the database. Untraced, each method is the Database
/// call plus a null check; with a Tracer installed it also records a span.
class Session {
 public:
  Session(Database& db, AgentContext& agent, uint32_t agent_index)
      : db_(db), agent_(agent), agent_index_(agent_index) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  uint64_t retries() const { return retries_; }
  void CountRetry() { ++retries_; }

  /// Bracket one transaction program, retries included (the txn span).
  void StartTxn(const char* program);
  void EndTxn();

  void Begin();
  Status Commit();
  void Abort();
  Status IndexLookup(IndexId index, uint64_t key, uint64_t* value);
  void IndexScan(IndexId index, uint64_t lo, uint64_t hi,
                 const std::function<bool(uint64_t, uint64_t)>& fn);
  Status IndexInsert(IndexId index, uint64_t key, uint64_t value);
  Status IndexRemove(IndexId index, uint64_t key, uint64_t value);
  Status Read(TableId table, Rid rid, void* buf, size_t len);
  Status Update(TableId table, Rid rid, std::span<const uint8_t> rec);
  Status Insert(TableId table, std::span<const uint8_t> rec, Rid* rid);
  Status Delete(TableId table, Rid rid);
  Status LockRowExclusive(TableId table, Rid rid);

 private:
  template <typename F>
  auto Timed(Call call, F&& f);

  Database& db_;
  AgentContext& agent_;
  const uint32_t agent_index_;
  Tracer* tracer_ = nullptr;
  uint64_t retries_ = 0;
  // Current transaction span (tracing only).
  uint64_t txn_seq_ = 0;
  uint64_t txn_start_ns_ = 0;
  const char* program_ = "";
  bool raw_txn_ = false;
  uint32_t next_span_ = 1;
  uint32_t parent_span_ = 0;
};

enum class TxnResult : uint8_t { kCommitted, kRolledBack, kFailed };

/// What committed since load, tallied by the client; the output checks
/// compare it with the database after the run.
struct Effects {
  int64_t balance_delta = 0;  ///< tpcb: sum of committed deltas
  uint64_t buys = 0;          ///< flash-sale: committed buys of the hot item
  uint64_t cf_inserts = 0;    ///< tm1: committed call-forwarding inserts
  uint64_t cf_deletes = 0;    ///< tm1: committed call-forwarding deletes

  Effects& operator+=(const Effects& o) {
    balance_delta += o.balance_delta;
    buys += o.buys;
    cf_inserts += o.cf_inserts;
    cf_deletes += o.cf_deletes;
    return *this;
  }
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Buffer-pool frames (8 KiB each) the database is opened with.
  virtual size_t pool_frames() const = 0;
  /// Named dataset sizes, for the run's provenance.
  virtual std::vector<std::pair<std::string, uint64_t>> dataset() const = 0;

  /// Create the schema and load it through the repository's loader. Called
  /// once per set-up, each time on a fresh database.
  virtual void Load(Database& db) = 0;
  /// Record what the output check compares against (untimed, after Load).
  virtual void Baseline(Database& db) { (void)db; }

  /// Draw one transaction's inputs from `rng` and run it, retrying engine
  /// aborts with the same inputs; committed effects go to `effects`.
  virtual TxnResult RunOne(Session& s, Rng& rng, Effects& effects) = 0;

  /// Compare the database with the effects of every committed transaction
  /// since load. Returns an empty string when it holds, else what differs.
  virtual std::string Check(Database& db, AgentContext& checker,
                            const Effects& total) = 0;
};

/// "tm1", "tpcb" or "flash-sale"; nullptr for any other name.
std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name);

}  // namespace oltpbench
