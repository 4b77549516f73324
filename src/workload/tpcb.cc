#include "src/workload/tpcb.h"

#include "src/util/time_util.h"

namespace slidb {

namespace {

using tpcb::Account;
using tpcb::Branch;
using tpcb::History;
using tpcb::Teller;

template <typename T>
std::span<const uint8_t> AsBytes(const T& rec) {
  return {reinterpret_cast<const uint8_t*>(&rec), sizeof(T)};
}

#define TPCB_TRY(expr)            \
  do {                            \
    ::slidb::Status _st = (expr); \
    if (!_st.ok()) {              \
      db.Abort(&agent);           \
      return _st;                 \
    }                             \
  } while (0)

}  // namespace

void TpcbWorkload::Load(Database& db) {
  branch_table_ = db.CreateTable("branch");
  teller_table_ = db.CreateTable("teller");
  account_table_ = db.CreateTable("account");
  history_table_ = db.CreateTable("history");
  branch_pk_ = db.CreateIndex(branch_table_, "b_pk", IndexKind::kHash, true);
  teller_pk_ = db.CreateIndex(teller_table_, "t_pk", IndexKind::kHash, true);
  account_pk_ =
      db.CreateIndex(account_table_, "a_pk", IndexKind::kHash, true);

  auto loader = db.CreateAgent(/*seed=*/11);
  db.Begin(loader.get());
  for (uint32_t b = 0; b < options_.branches; ++b) {
    Branch branch{};
    branch.b_id = b;
    Rid rid;
    db.Insert(loader.get(), branch_table_, AsBytes(branch), &rid);
    db.IndexInsert(loader.get(), branch_pk_, b, rid.ToU64());
    for (uint32_t t = 0; t < options_.tellers_per_branch; ++t) {
      Teller teller{};
      teller.t_id = b * options_.tellers_per_branch + t;
      teller.b_id = b;
      Rid t_rid;
      db.Insert(loader.get(), teller_table_, AsBytes(teller), &t_rid);
      db.IndexInsert(loader.get(), teller_pk_, teller.t_id, t_rid.ToU64());
    }
  }
  db.Commit(loader.get());

  constexpr uint32_t kBatch = 2000;
  for (uint32_t b = 0; b < options_.branches; ++b) {
    for (uint32_t a0 = 0; a0 < options_.accounts_per_branch; a0 += kBatch) {
      db.Begin(loader.get());
      const uint32_t hi =
          std::min(a0 + kBatch, options_.accounts_per_branch);
      for (uint32_t a = a0; a < hi; ++a) {
        Account acct{};
        acct.a_id =
            static_cast<uint64_t>(b) * options_.accounts_per_branch + a;
        acct.b_id = b;
        Rid rid;
        db.Insert(loader.get(), account_table_, AsBytes(acct), &rid);
        db.IndexInsert(loader.get(), account_pk_, acct.a_id, rid.ToU64());
      }
      db.Commit(loader.get());
    }
  }
}

Status TpcbWorkload::RunOne(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  // Random teller; account 85% in the teller's branch, 15% anywhere.
  const uint32_t t_id = static_cast<uint32_t>(rng.Uniform(
      0, options_.branches * options_.tellers_per_branch - 1));
  const uint32_t b_id = t_id / options_.tellers_per_branch;
  uint64_t a_id;
  if (rng.Bernoulli(0.85) || options_.branches == 1) {
    a_id = static_cast<uint64_t>(b_id) * options_.accounts_per_branch +
           rng.Uniform(0, options_.accounts_per_branch - 1);
  } else {
    a_id = rng.Uniform(
        0, static_cast<uint64_t>(options_.branches) *
                   options_.accounts_per_branch - 1);
  }
  const int64_t delta = rng.UniformInt(-99999, 99999);

  db.Begin(&agent);

  // Account: read-modify-write, then report balance (spec: return it).
  uint64_t a_rid;
  TPCB_TRY(db.IndexLookup(account_pk_, a_id, &a_rid));
  Account acct;
  TPCB_TRY(db.LockRowExclusive(&agent, account_table_, Rid::FromU64(a_rid)));
  TPCB_TRY(db.Read(&agent, account_table_, Rid::FromU64(a_rid), &acct,
                   sizeof(acct)));
  acct.balance += delta;
  TPCB_TRY(
      db.Update(&agent, account_table_, Rid::FromU64(a_rid), AsBytes(acct)));

  // Teller.
  uint64_t t_rid;
  TPCB_TRY(db.IndexLookup(teller_pk_, t_id, &t_rid));
  Teller teller;
  TPCB_TRY(db.LockRowExclusive(&agent, teller_table_, Rid::FromU64(t_rid)));
  TPCB_TRY(db.Read(&agent, teller_table_, Rid::FromU64(t_rid), &teller,
                   sizeof(teller)));
  teller.balance += delta;
  TPCB_TRY(
      db.Update(&agent, teller_table_, Rid::FromU64(t_rid), AsBytes(teller)));

  // Branch (the contended row).
  uint64_t b_rid;
  TPCB_TRY(db.IndexLookup(branch_pk_, b_id, &b_rid));
  Branch branch;
  TPCB_TRY(db.LockRowExclusive(&agent, branch_table_, Rid::FromU64(b_rid)));
  TPCB_TRY(db.Read(&agent, branch_table_, Rid::FromU64(b_rid), &branch,
                   sizeof(branch)));
  branch.balance += delta;
  TPCB_TRY(
      db.Update(&agent, branch_table_, Rid::FromU64(b_rid), AsBytes(branch)));

  // History append.
  History h{};
  h.t_id = t_id;
  h.b_id = b_id;
  h.a_id = a_id;
  h.delta = delta;
  h.timestamp = NowMicros();
  Rid h_rid;
  TPCB_TRY(db.Insert(&agent, history_table_, AsBytes(h), &h_rid));

  return db.Commit(&agent);
}

bool TpcbWorkload::CheckBalanceInvariant(Database& db, AgentContext& agent,
                                         int64_t* account_total,
                                         int64_t* teller_total,
                                         int64_t* branch_total) {
  db.Begin(&agent);
  int64_t at = 0, tt = 0, bt = 0;
  for (uint32_t b = 0; b < options_.branches; ++b) {
    uint64_t rid;
    Branch branch;
    if (!db.IndexLookup(branch_pk_, b, &rid).ok() ||
        !db.Read(&agent, branch_table_, Rid::FromU64(rid), &branch,
                 sizeof(branch))
             .ok()) {
      db.Abort(&agent);
      return false;
    }
    bt += branch.balance;
  }
  const uint32_t tellers = options_.branches * options_.tellers_per_branch;
  for (uint32_t t = 0; t < tellers; ++t) {
    uint64_t rid;
    Teller teller;
    if (!db.IndexLookup(teller_pk_, t, &rid).ok() ||
        !db.Read(&agent, teller_table_, Rid::FromU64(rid), &teller,
                 sizeof(teller))
             .ok()) {
      db.Abort(&agent);
      return false;
    }
    tt += teller.balance;
  }
  const uint64_t accounts = static_cast<uint64_t>(options_.branches) *
                            options_.accounts_per_branch;
  for (uint64_t a = 0; a < accounts; ++a) {
    uint64_t rid;
    Account acct;
    if (!db.IndexLookup(account_pk_, a, &rid).ok() ||
        !db.Read(&agent, account_table_, Rid::FromU64(rid), &acct,
                 sizeof(acct))
             .ok()) {
      db.Abort(&agent);
      return false;
    }
    at += acct.balance;
  }
  db.Commit(&agent);
  *account_total = at;
  *teller_total = tt;
  *branch_total = bt;
  return at == tt && tt == bt;
}

}  // namespace slidb
