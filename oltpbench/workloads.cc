#include "oltpbench/workloads.h"

#include <algorithm>
#include <cstdio>

#include "src/util/time_util.h"
#include "src/workload/contention.h"
#include "src/workload/tm1.h"
#include "src/workload/tpcb.h"

namespace oltpbench {

namespace {

using slidb::NowNanos;

constexpr int kMaxAttempts = 3;

template <typename T>
std::span<const uint8_t> AsBytes(const T& rec) {
  return {reinterpret_cast<const uint8_t*>(&rec), sizeof(T)};
}

uint32_t ClampNs(uint64_t ns) {
  return ns >= kFailedSample ? kFailedSample - 1 : static_cast<uint32_t>(ns);
}

IndexId FindIndex(Database& db, const char* name) {
  slidb::Catalog& catalog = db.catalog();
  for (size_t i = 0; i < catalog.num_indexes(); ++i) {
    if (catalog.index(static_cast<IndexId>(i)).name == name) {
      return static_cast<IndexId>(i);
    }
  }
  std::fprintf(stderr, "oltpbench: index %s not found after load\n", name);
  std::abort();
}

TableId FindTable(Database& db, const char* name) {
  TableId id = 0;
  if (!db.FindTable(name, &id)) {
    std::fprintf(stderr, "oltpbench: table %s not found after load\n", name);
    std::abort();
  }
  return id;
}

/// Run `body` (one attempt of a transaction) until it commits, rolls back
/// as its program specifies, or the engine aborted it kMaxAttempts times.
template <typename Body>
TxnResult WithRetries(Session& s, Body&& body) {
  for (int attempt = 1;; ++attempt) {
    const Status st = body();
    if (st.ok()) return TxnResult::kCommitted;
    if (st.IsAborted()) return TxnResult::kRolledBack;
    if (!st.retryable() || attempt == kMaxAttempts) return TxnResult::kFailed;
    s.CountRetry();
  }
}

// Abort and return the engine failure, as the repository's programs do.
#define BENCH_TRY(expr)      \
  do {                       \
    const Status _st = (expr); \
    if (!_st.ok()) {         \
      s.Abort();             \
      return _st;            \
    }                        \
  } while (0)

// ---------------------------------------------------------------- TM1 ----

using slidb::tm1::AccessInfo;
using slidb::tm1::CallForwarding;
using slidb::tm1::SpecialFacility;
using slidb::tm1::Subscriber;

// Index key encodings of src/workload/tm1.cc.
uint64_t AiKey(uint64_t s_id, uint8_t ai_type) {
  return s_id * 4 + (ai_type - 1);
}
uint64_t SfKey(uint64_t s_id, uint8_t sf_type) {
  return s_id * 4 + (sf_type - 1);
}
uint64_t CfKey(uint64_t s_id, uint8_t sf_type, uint8_t start_time) {
  return SfKey(s_id, sf_type) * 4 + start_time / 8;
}

void FillSubNbr(char (&out)[16], uint64_t s_id) {
  std::snprintf(out, sizeof(out), "%015llu",
                static_cast<unsigned long long>(s_id));
}

// TM1 programs turn any failure that does not force an abort (a key that
// is absent) into the spec-mandated rollback.
#define TM1_TRY(expr)                                     \
  do {                                                    \
    const Status _st = (expr);                            \
    if (!_st.ok()) {                                      \
      s.Abort();                                          \
      return _st.ForcesAbort() ? _st : Status::Aborted(); \
    }                                                     \
  } while (0)

#define TM1_ROLLBACK()        \
  do {                        \
    s.Abort();                \
    return Status::Aborted(); \
  } while (0)

/// TM1/NDBB full mix (35/10/35/2/14/2/2) over uniform subscriber keys.
class Tm1 : public BenchWorkload {
 public:
  static constexpr uint64_t kSubscribers = 10'000;

  size_t pool_frames() const override { return 2048; }
  std::vector<std::pair<std::string, uint64_t>> dataset() const override {
    return {{"subscribers", kSubscribers}};
  }

  void Load(Database& db) override {
    repo_.Load(db);
    sub_ = FindTable(db, "subscriber");
    ai_ = FindTable(db, "access_info");
    sf_ = FindTable(db, "special_facility");
    cf_ = FindTable(db, "call_forwarding");
    sub_pk_ = FindIndex(db, "sub_pk");
    sub_nbr_ = FindIndex(db, "sub_nbr");
    ai_pk_ = FindIndex(db, "ai_pk");
    sf_pk_ = FindIndex(db, "sf_pk");
    cf_pk_ = FindIndex(db, "cf_pk");
  }

  void Baseline(Database& db) override { loaded_cf_ = CountCf(db); }

  TxnResult RunOne(Session& s, Rng& rng, Effects& effects) override {
    const uint64_t r = rng.Uniform(0, 999);
    const uint64_t s_id = rng.Uniform(1, kSubscribers);
    if (r < 350) {
      s.StartTxn("tm1.get_subscriber_data");
      return Finish(s, WithRetries(
                           s, [&] { return GetSubscriberData(s, s_id); }));
    }
    if (r < 450) {
      const auto sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      const auto start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);
      const auto end_time = static_cast<uint8_t>(rng.Uniform(1, 24));
      s.StartTxn("tm1.get_new_destination");
      return Finish(s, WithRetries(s, [&] {
        return GetNewDestination(s, s_id, sf_type, start_time, end_time);
      }));
    }
    if (r < 800) {
      const auto ai_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      s.StartTxn("tm1.get_access_data");
      return Finish(s, WithRetries(s, [&] {
        return GetAccessData(s, s_id, ai_type);
      }));
    }
    if (r < 820) {
      const auto sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      const auto data_a = static_cast<uint8_t>(rng.Uniform(0, 255));
      const auto bit = static_cast<uint16_t>(1u << rng.Uniform(0, 9));
      s.StartTxn("tm1.update_subscriber_data");
      return Finish(s, WithRetries(s, [&] {
        return UpdateSubscriberData(s, s_id, sf_type, data_a, bit);
      }));
    }
    if (r < 960) {
      const auto location = static_cast<uint32_t>(rng.Next());
      s.StartTxn("tm1.update_location");
      return Finish(s, WithRetries(s, [&] {
        return UpdateLocation(s, s_id, location);
      }));
    }
    const auto sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
    const auto start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);
    if (r < 980) {
      const auto end_time =
          static_cast<uint8_t>(start_time + rng.Uniform(1, 8));
      const uint64_t forward_to = rng.Uniform(1, kSubscribers);
      s.StartTxn("tm1.insert_call_forwarding");
      const TxnResult res = WithRetries(s, [&] {
        return InsertCallForwarding(s, s_id, sf_type, start_time, end_time,
                                    forward_to);
      });
      if (res == TxnResult::kCommitted) ++effects.cf_inserts;
      return Finish(s, res);
    }
    s.StartTxn("tm1.delete_call_forwarding");
    const TxnResult res = WithRetries(s, [&] {
      return DeleteCallForwarding(s, s_id, sf_type, start_time);
    });
    if (res == TxnResult::kCommitted) ++effects.cf_deletes;
    return Finish(s, res);
  }

  std::string Check(Database& db, AgentContext&,
                    const Effects& total) override {
    const uint64_t expected = loaded_cf_ + total.cf_inserts - total.cf_deletes;
    const uint64_t actual = CountCf(db);
    if (actual == expected) return "";
    return "call-forwarding index has " + std::to_string(actual) +
           " entries, expected " + std::to_string(loaded_cf_) + " loaded + " +
           std::to_string(total.cf_inserts) + " inserted - " +
           std::to_string(total.cf_deletes) + " deleted";
  }

 private:
  static TxnResult Finish(Session& s, TxnResult r) {
    s.EndTxn();
    return r;
  }

  uint64_t CountCf(Database& db) const {
    uint64_t n = 0;
    db.IndexScan(cf_pk_, 0, UINT64_MAX, [&](uint64_t, uint64_t) {
      ++n;
      return true;
    });
    return n;
  }

  Status GetSubscriberData(Session& s, uint64_t s_id) {
    s.Begin();
    uint64_t rid;
    TM1_TRY(s.IndexLookup(sub_pk_, s_id, &rid));
    Subscriber sub;
    TM1_TRY(s.Read(sub_, Rid::FromU64(rid), &sub, sizeof(sub)));
    return s.Commit();
  }

  Status GetNewDestination(Session& s, uint64_t s_id, uint8_t sf_type,
                           uint8_t start_time, uint8_t end_time) {
    s.Begin();
    uint64_t sf_rid;
    if (!s.IndexLookup(sf_pk_, SfKey(s_id, sf_type), &sf_rid).ok()) {
      TM1_ROLLBACK();
    }
    SpecialFacility sf;
    TM1_TRY(s.Read(sf_, Rid::FromU64(sf_rid), &sf, sizeof(sf)));
    if (sf.is_active == 0) TM1_ROLLBACK();
    bool found = false;
    Status scan_status = Status::OK();
    s.IndexScan(cf_pk_, CfKey(s_id, sf_type, 0),
                CfKey(s_id, sf_type, start_time),
                [&](uint64_t, uint64_t cf_rid) {
                  CallForwarding cf;
                  const Status st =
                      s.Read(cf_, Rid::FromU64(cf_rid), &cf, sizeof(cf));
                  if (!st.ok()) {
                    // A concurrent delete took the row: skip it; a lock
                    // failure ends the scan.
                    if (st.ForcesAbort()) scan_status = st;
                    return !st.ForcesAbort();
                  }
                  if (cf.end_time > end_time) {
                    found = true;
                    return false;
                  }
                  return true;
                });
    TM1_TRY(scan_status);
    if (!found) TM1_ROLLBACK();
    return s.Commit();
  }

  Status GetAccessData(Session& s, uint64_t s_id, uint8_t ai_type) {
    s.Begin();
    uint64_t rid;
    if (!s.IndexLookup(ai_pk_, AiKey(s_id, ai_type), &rid).ok()) {
      TM1_ROLLBACK();
    }
    AccessInfo ai;
    TM1_TRY(s.Read(ai_, Rid::FromU64(rid), &ai, sizeof(ai)));
    return s.Commit();
  }

  Status UpdateSubscriberData(Session& s, uint64_t s_id, uint8_t sf_type,
                              uint8_t data_a, uint16_t bit) {
    s.Begin();
    uint64_t sub_rid;
    TM1_TRY(s.IndexLookup(sub_pk_, s_id, &sub_rid));
    Subscriber sub;
    TM1_TRY(s.LockRowExclusive(sub_, Rid::FromU64(sub_rid)));
    TM1_TRY(s.Read(sub_, Rid::FromU64(sub_rid), &sub, sizeof(sub)));
    sub.bits ^= bit;
    TM1_TRY(s.Update(sub_, Rid::FromU64(sub_rid), AsBytes(sub)));
    uint64_t sf_rid;
    if (!s.IndexLookup(sf_pk_, SfKey(s_id, sf_type), &sf_rid).ok()) {
      TM1_ROLLBACK();  // rolls back the subscriber update too
    }
    SpecialFacility sf;
    TM1_TRY(s.LockRowExclusive(sf_, Rid::FromU64(sf_rid)));
    TM1_TRY(s.Read(sf_, Rid::FromU64(sf_rid), &sf, sizeof(sf)));
    sf.data_a = data_a;
    TM1_TRY(s.Update(sf_, Rid::FromU64(sf_rid), AsBytes(sf)));
    return s.Commit();
  }

  Status UpdateLocation(Session& s, uint64_t s_id, uint32_t location) {
    s.Begin();
    uint64_t rid;
    TM1_TRY(s.IndexLookup(sub_nbr_, s_id, &rid));
    Subscriber sub;
    TM1_TRY(s.LockRowExclusive(sub_, Rid::FromU64(rid)));
    TM1_TRY(s.Read(sub_, Rid::FromU64(rid), &sub, sizeof(sub)));
    sub.vlr_location = location;
    TM1_TRY(s.Update(sub_, Rid::FromU64(rid), AsBytes(sub)));
    return s.Commit();
  }

  Status InsertCallForwarding(Session& s, uint64_t s_id, uint8_t sf_type,
                              uint8_t start_time, uint8_t end_time,
                              uint64_t forward_to) {
    s.Begin();
    uint64_t sub_rid;
    TM1_TRY(s.IndexLookup(sub_nbr_, s_id, &sub_rid));
    Subscriber sub;
    TM1_TRY(s.Read(sub_, Rid::FromU64(sub_rid), &sub, sizeof(sub)));
    uint64_t sf_rid;
    if (!s.IndexLookup(sf_pk_, SfKey(s_id, sf_type), &sf_rid).ok()) {
      TM1_ROLLBACK();
    }
    uint64_t existing;
    if (s.IndexLookup(cf_pk_, CfKey(s_id, sf_type, start_time), &existing)
            .ok()) {
      TM1_ROLLBACK();  // the slot is taken: the spec's insert failure
    }
    CallForwarding cf{};
    cf.s_id = s_id;
    cf.sf_type = sf_type;
    cf.start_time = start_time;
    cf.end_time = end_time;
    FillSubNbr(cf.numberx, forward_to);
    Rid rid;
    TM1_TRY(s.Insert(cf_, AsBytes(cf), &rid));
    const Status st =
        s.IndexInsert(cf_pk_, CfKey(s_id, sf_type, start_time), rid.ToU64());
    if (st.IsKeyExists()) TM1_ROLLBACK();  // concurrent duplicate
    TM1_TRY(st);
    return s.Commit();
  }

  Status DeleteCallForwarding(Session& s, uint64_t s_id, uint8_t sf_type,
                              uint8_t start_time) {
    s.Begin();
    uint64_t cf_rid;
    if (!s.IndexLookup(cf_pk_, CfKey(s_id, sf_type, start_time), &cf_rid)
             .ok()) {
      TM1_ROLLBACK();
    }
    const Status st = s.Delete(cf_, Rid::FromU64(cf_rid));
    if (st.IsNotFound()) TM1_ROLLBACK();
    TM1_TRY(st);
    TM1_TRY(s.IndexRemove(cf_pk_, CfKey(s_id, sf_type, start_time), cf_rid));
    return s.Commit();
  }

  slidb::Tm1Workload repo_{slidb::Tm1Options{kSubscribers}};
  TableId sub_{}, ai_{}, sf_{}, cf_{};
  IndexId sub_pk_{}, sub_nbr_{}, ai_pk_{}, sf_pk_{}, cf_pk_{};
  uint64_t loaded_cf_ = 0;
};

// --------------------------------------------------------------- TPC-B ----

/// TPC-B: one debit/credit over account, teller and branch plus a history
/// append; 85% of accounts are in the teller's branch.
class Tpcb : public BenchWorkload {
 public:
  size_t pool_frames() const override { return 512; }
  std::vector<std::pair<std::string, uint64_t>> dataset() const override {
    const slidb::TpcbOptions& o = repo_.options();
    return {{"branches", o.branches},
            {"tellers_per_branch", o.tellers_per_branch},
            {"accounts_per_branch", o.accounts_per_branch}};
  }

  void Load(Database& db) override {
    repo_.Load(db);
    branch_ = FindTable(db, "branch");
    teller_ = FindTable(db, "teller");
    account_ = FindTable(db, "account");
    history_ = FindTable(db, "history");
    branch_pk_ = FindIndex(db, "b_pk");
    teller_pk_ = FindIndex(db, "t_pk");
    account_pk_ = FindIndex(db, "a_pk");
  }

  TxnResult RunOne(Session& s, Rng& rng, Effects& effects) override {
    const slidb::TpcbOptions& o = repo_.options();
    const auto t_id = static_cast<uint32_t>(
        rng.Uniform(0, o.branches * o.tellers_per_branch - 1));
    const uint32_t b_id = t_id / o.tellers_per_branch;
    uint64_t a_id;
    if (rng.Bernoulli(0.85)) {
      a_id = static_cast<uint64_t>(b_id) * o.accounts_per_branch +
             rng.Uniform(0, o.accounts_per_branch - 1);
    } else {
      a_id = rng.Uniform(
          0, static_cast<uint64_t>(o.branches) * o.accounts_per_branch - 1);
    }
    const int64_t delta = rng.UniformInt(-99999, 99999);
    s.StartTxn("tpcb.debit_credit");
    const TxnResult res = WithRetries(
        s, [&] { return DebitCredit(s, t_id, b_id, a_id, delta); });
    s.EndTxn();
    if (res == TxnResult::kCommitted) effects.balance_delta += delta;
    return res;
  }

  std::string Check(Database& db, AgentContext& checker,
                    const Effects& total) override {
    const slidb::TpcbOptions& o = repo_.options();
    int64_t branches = 0, tellers = 0, accounts = 0;
    std::string err = SumBalances<slidb::tpcb::Branch>(
        db, checker, branch_, branch_pk_, o.branches, &branches);
    if (err.empty()) {
      err = SumBalances<slidb::tpcb::Teller>(
          db, checker, teller_, teller_pk_,
          uint64_t{o.branches} * o.tellers_per_branch, &tellers);
    }
    if (err.empty()) {
      err = SumBalances<slidb::tpcb::Account>(
          db, checker, account_, account_pk_,
          uint64_t{o.branches} * o.accounts_per_branch, &accounts);
    }
    if (!err.empty()) return err;
    if (accounts != tellers || tellers != branches ||
        branches != total.balance_delta) {
      return "balances: accounts " + std::to_string(accounts) + ", tellers " +
             std::to_string(tellers) + ", branches " +
             std::to_string(branches) + ", committed deltas " +
             std::to_string(total.balance_delta);
    }
    return "";
  }

 private:
  Status DebitCredit(Session& s, uint32_t t_id, uint32_t b_id, uint64_t a_id,
                     int64_t delta) {
    s.Begin();
    uint64_t a_rid;
    BENCH_TRY(s.IndexLookup(account_pk_, a_id, &a_rid));
    slidb::tpcb::Account acct;
    BENCH_TRY(s.LockRowExclusive(account_, Rid::FromU64(a_rid)));
    BENCH_TRY(s.Read(account_, Rid::FromU64(a_rid), &acct, sizeof(acct)));
    acct.balance += delta;
    BENCH_TRY(s.Update(account_, Rid::FromU64(a_rid), AsBytes(acct)));

    uint64_t t_rid;
    BENCH_TRY(s.IndexLookup(teller_pk_, t_id, &t_rid));
    slidb::tpcb::Teller teller;
    BENCH_TRY(s.LockRowExclusive(teller_, Rid::FromU64(t_rid)));
    BENCH_TRY(s.Read(teller_, Rid::FromU64(t_rid), &teller, sizeof(teller)));
    teller.balance += delta;
    BENCH_TRY(s.Update(teller_, Rid::FromU64(t_rid), AsBytes(teller)));

    uint64_t b_rid;
    BENCH_TRY(s.IndexLookup(branch_pk_, b_id, &b_rid));
    slidb::tpcb::Branch branch;
    BENCH_TRY(s.LockRowExclusive(branch_, Rid::FromU64(b_rid)));
    BENCH_TRY(s.Read(branch_, Rid::FromU64(b_rid), &branch, sizeof(branch)));
    branch.balance += delta;
    BENCH_TRY(s.Update(branch_, Rid::FromU64(b_rid), AsBytes(branch)));

    slidb::tpcb::History h{};
    h.t_id = t_id;
    h.b_id = b_id;
    h.a_id = a_id;
    h.delta = delta;
    h.timestamp = slidb::NowMicros();
    Rid h_rid;
    BENCH_TRY(s.Insert(history_, AsBytes(h), &h_rid));
    return s.Commit();
  }

  /// Sum the balances of rows 0..n-1 of `table`, reading at most kCheckRows
  /// rows per transaction. TpcbWorkload::CheckBalanceInvariant reads all
  /// 160,000 accounts in one transaction; past LockCache::kSlots locks each
  /// lookup scans the cache's overflow list, so that transaction is
  /// quadratic and alone outlasts a run. With the agents stopped nothing
  /// changes between the short transactions, so their sums are the same.
  template <typename Row>
  static std::string SumBalances(Database& db, AgentContext& checker,
                                 TableId table, IndexId pk, uint64_t n,
                                 int64_t* sum) {
    constexpr uint64_t kCheckRows = 200;
    for (uint64_t lo = 0; lo < n; lo += kCheckRows) {
      db.Begin(&checker);
      for (uint64_t id = lo; id < std::min(n, lo + kCheckRows); ++id) {
        uint64_t rid;
        Row row;
        Status st = db.IndexLookup(pk, id, &rid);
        if (st.ok()) {
          st = db.Read(&checker, table, Rid::FromU64(rid), &row, sizeof(row));
        }
        if (!st.ok()) {
          db.Abort(&checker);
          return "row " + std::to_string(id) + ": " + st.ToString();
        }
        *sum += row.balance;
      }
      db.Commit(&checker);
    }
    return "";
  }

  slidb::TpcbWorkload repo_{slidb::TpcbOptions{16, 10, 10'000}};
  TableId branch_{}, teller_{}, account_{}, history_{};
  IndexId branch_pk_{}, teller_pk_{}, account_pk_{};
};

// ---------------------------------------------------------- flash-sale ----

/// The item row of src/workload/contention.cc.
struct Item {
  uint64_t id;
  int64_t stock;
  int64_t version;
  char payload[40];
};

/// Every transaction reads or (half of them) buys the one hot item, then
/// browses seven uniformly chosen items.
class FlashSale : public BenchWorkload {
 public:
  static constexpr int64_t kInitialStock = 1'000'000;

  size_t pool_frames() const override { return 2048; }
  std::vector<std::pair<std::string, uint64_t>> dataset() const override {
    return {{"items", repo_.options().num_items},
            {"reads_per_txn", repo_.options().reads_per_txn}};
  }

  void Load(Database& db) override {
    repo_.Load(db);
    items_ = FindTable(db, "items");
    items_pk_ = FindIndex(db, "items_pk");
  }

  TxnResult RunOne(Session& s, Rng& rng, Effects& effects) override {
    const slidb::ContentionOptions& o = repo_.options();
    const bool buying = rng.Bernoulli(o.write_fraction);
    uint64_t browse[kMaxBrowse];
    const uint32_t n = std::min<uint32_t>(o.reads_per_txn - 1, kMaxBrowse);
    for (uint32_t i = 0; i < n; ++i) browse[i] = rng.Uniform(1, o.num_items);
    s.StartTxn(buying ? "flash_sale.buy" : "flash_sale.look");
    const TxnResult res = WithRetries(s, [&]() -> Status {
      s.Begin();
      const Status hot = buying ? WriteItem(s, repo_.hot_key(), -1)
                                : ReadItem(s, repo_.hot_key());
      if (!hot.ok()) return hot;
      for (uint32_t i = 0; i < n; ++i) {
        const Status st = ReadItem(s, browse[i]);
        if (!st.ok()) return st;
      }
      return s.Commit();
    });
    s.EndTxn();
    if (res == TxnResult::kCommitted && buying) ++effects.buys;
    return res;
  }

  std::string Check(Database& db, AgentContext& checker,
                    const Effects& total) override {
    uint64_t rid;
    if (!db.IndexLookup(items_pk_, repo_.hot_key(), &rid).ok()) {
      return "hot item missing from the index";
    }
    Item item{};
    db.Begin(&checker);
    const Status st =
        db.Read(&checker, items_, Rid::FromU64(rid), &item, sizeof(item));
    db.Commit(&checker);
    if (!st.ok()) return "hot item read failed: " + st.ToString();
    const auto buys = static_cast<int64_t>(total.buys);
    if (item.stock != kInitialStock - buys || item.version != buys) {
      return "hot item stock " + std::to_string(item.stock) + " version " +
             std::to_string(item.version) + " after " +
             std::to_string(buys) + " committed buys";
    }
    return "";
  }

 private:
  static constexpr uint32_t kMaxBrowse = 63;

  Status ReadItem(Session& s, uint64_t key) {
    uint64_t rid;
    BENCH_TRY(s.IndexLookup(items_pk_, key, &rid));
    Item item;
    BENCH_TRY(s.Read(items_, Rid::FromU64(rid), &item, sizeof(item)));
    return Status::OK();
  }

  Status WriteItem(Session& s, uint64_t key, int64_t stock_delta) {
    uint64_t rid;
    BENCH_TRY(s.IndexLookup(items_pk_, key, &rid));
    Item item;
    BENCH_TRY(s.LockRowExclusive(items_, Rid::FromU64(rid)));
    BENCH_TRY(s.Read(items_, Rid::FromU64(rid), &item, sizeof(item)));
    item.stock += stock_delta;
    item.version += 1;
    BENCH_TRY(s.Update(items_, Rid::FromU64(rid), AsBytes(item)));
    return Status::OK();
  }

  slidb::ContentionWorkload repo_{slidb::ContentionOptions{
      slidb::ContentionScenario::kFlashSale, /*num_items=*/100'000,
      /*theta=*/0.99, /*reads_per_txn=*/8, /*write_fraction=*/0.5}};
  TableId items_{};
  IndexId items_pk_{};
};

}  // namespace

const char* CallName(Call c) {
  switch (c) {
    case Call::kBegin: return "txn.begin";
    case Call::kCommit: return "txn.commit";
    case Call::kAbort: return "txn.abort";
    case Call::kIndexLookup: return "storage.index_lookup";
    case Call::kIndexScan: return "storage.index_scan";
    case Call::kIndexInsert: return "storage.index_insert";
    case Call::kIndexRemove: return "storage.index_remove";
    case Call::kRead: return "storage.row_read";
    case Call::kUpdate: return "storage.row_update";
    case Call::kInsert: return "storage.row_insert";
    case Call::kDelete: return "storage.row_delete";
    case Call::kLockRowX: return "lock.row_x";
    case Call::kNumCalls: break;
  }
  return "?";
}

Tracer::Tracer(uint32_t reservoir_capacity, size_t raw_capacity,
               uint64_t seed)
    : raw_capacity_(raw_capacity), rng_(seed) {
  for (CallStats& c : calls_) c.durations = Reservoir(reservoir_capacity);
  raw_.reserve(raw_capacity);
}

template <typename F>
auto Session::Timed(Call call, F&& f) {
  if (tracer_ == nullptr) return f();
  const uint32_t span = next_span_++;
  const uint32_t parent = parent_span_;
  if (call == Call::kIndexScan) parent_span_ = span;
  const uint64_t start = NowNanos();
  auto result = f();
  const uint64_t end = NowNanos();
  parent_span_ = parent;
  Tracer::CallStats& stats = tracer_->calls_[static_cast<size_t>(call)];
  ++stats.count;
  stats.total_ns += end - start;
  stats.durations.Add(ClampNs(end - start), tracer_->rng_.Next());
  if (raw_txn_ && tracer_->raw_.size() < tracer_->raw_capacity_) {
    tracer_->raw_.push_back(
        {(uint64_t{agent_index_} << 48) | txn_seq_, span, parent,
         CallName(call), start, end});
  }
  return result;
}

void Session::StartTxn(const char* program) {
  if (tracer_ == nullptr) return;
  ++txn_seq_;
  raw_txn_ = txn_seq_ % Tracer::kRawStride == 0 &&
             tracer_->raw_.size() < tracer_->raw_capacity_;
  next_span_ = 1;
  parent_span_ = 0;
  program_ = program;
  txn_start_ns_ = NowNanos();
}

void Session::EndTxn() {
  if (tracer_ == nullptr || !raw_txn_) return;
  if (tracer_->raw_.size() < tracer_->raw_capacity_) {
    tracer_->raw_.push_back({(uint64_t{agent_index_} << 48) | txn_seq_, 0, 0,
                             program_, txn_start_ns_, NowNanos()});
  }
  raw_txn_ = false;
}

void Session::Begin() {
  Timed(Call::kBegin, [&] { return db_.Begin(&agent_); });
}

Status Session::Commit() {
  return Timed(Call::kCommit, [&] { return db_.Commit(&agent_); });
}

void Session::Abort() {
  Timed(Call::kAbort, [&] {
    db_.Abort(&agent_);
    return 0;
  });
}

Status Session::IndexLookup(IndexId index, uint64_t key, uint64_t* value) {
  return Timed(Call::kIndexLookup,
               [&] { return db_.IndexLookup(index, key, value); });
}

void Session::IndexScan(IndexId index, uint64_t lo, uint64_t hi,
                        const std::function<bool(uint64_t, uint64_t)>& fn) {
  Timed(Call::kIndexScan, [&] {
    db_.IndexScan(index, lo, hi, fn);
    return 0;
  });
}

Status Session::IndexInsert(IndexId index, uint64_t key, uint64_t value) {
  return Timed(Call::kIndexInsert,
               [&] { return db_.IndexInsert(&agent_, index, key, value); });
}

Status Session::IndexRemove(IndexId index, uint64_t key, uint64_t value) {
  return Timed(Call::kIndexRemove,
               [&] { return db_.IndexRemove(&agent_, index, key, value); });
}

Status Session::Read(TableId table, Rid rid, void* buf, size_t len) {
  return Timed(Call::kRead,
               [&] { return db_.Read(&agent_, table, rid, buf, len); });
}

Status Session::Update(TableId table, Rid rid, std::span<const uint8_t> rec) {
  return Timed(Call::kUpdate,
               [&] { return db_.Update(&agent_, table, rid, rec); });
}

Status Session::Insert(TableId table, std::span<const uint8_t> rec, Rid* rid) {
  return Timed(Call::kInsert,
               [&] { return db_.Insert(&agent_, table, rec, rid); });
}

Status Session::Delete(TableId table, Rid rid) {
  return Timed(Call::kDelete, [&] { return db_.Delete(&agent_, table, rid); });
}

Status Session::LockRowExclusive(TableId table, Rid rid) {
  return Timed(Call::kLockRowX,
               [&] { return db_.LockRowExclusive(&agent_, table, rid); });
}

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name) {
  if (name == "tm1") return std::make_unique<Tm1>();
  if (name == "tpcb") return std::make_unique<Tpcb>();
  if (name == "flash-sale") return std::make_unique<FlashSale>();
  return nullptr;
}

}  // namespace oltpbench
