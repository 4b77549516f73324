#include "src/workload/tm1.h"

#include <cstring>

namespace slidb {

namespace {

using tm1::AccessInfo;
using tm1::CallForwarding;
using tm1::SpecialFacility;
using tm1::Subscriber;

template <typename T>
std::span<const uint8_t> AsBytes(const T& rec) {
  return {reinterpret_cast<const uint8_t*>(&rec), sizeof(T)};
}

// Index key encodings.
uint64_t AiKey(uint64_t s_id, uint8_t ai_type) {
  return s_id * 4 + (ai_type - 1);
}
uint64_t SfKey(uint64_t s_id, uint8_t sf_type) {
  return s_id * 4 + (sf_type - 1);
}
uint64_t CfKey(uint64_t s_id, uint8_t sf_type, uint8_t start_time) {
  return SfKey(s_id, sf_type) * 4 + start_time / 8;
}

/// sub_nbr is s_id as 15 zero-padded digits. Subscriber ids stay far below
/// 10^15; the modulo bounds the value so the 16-byte buffer provably fits.
void FillSubNbr(char (&out)[16], uint64_t s_id) {
  constexpr uint64_t kSubNbrLimit = 1'000'000'000'000'000;  // 10^15
  std::snprintf(out, sizeof(out), "%015llu",
                static_cast<unsigned long long>(s_id % kSubNbrLimit));
}

/// Abort the transaction and surface the engine failure (deadlock/timeout)
/// or the benchmark-specified failure (Aborted).
#define TM1_TRY(expr)                     \
  do {                                    \
    ::slidb::Status _st = (expr);         \
    if (!_st.ok()) {                      \
      db.Abort(&agent);                   \
      return _st.ForcesAbort()            \
                 ? _st                    \
                 : ::slidb::Status::Aborted(); \
    }                                     \
  } while (0)

#define TM1_USER_FAIL()          \
  do {                           \
    db.Abort(&agent);            \
    return Status::Aborted();    \
  } while (0)

}  // namespace

const char* Tm1Workload::name() const {
  switch (mix_) {
    case Mix::kFull: return "tm1-mix";
    case Mix::kForward: return "tm1-forward-mix";
    case Mix::kSingle:
      switch (single_type_) {
        case Tm1TxnType::kGetSubscriberData: return "tm1-getSub";
        case Tm1TxnType::kGetNewDestination: return "tm1-getDest";
        case Tm1TxnType::kGetAccessData: return "tm1-getAccess";
        case Tm1TxnType::kUpdateSubscriberData: return "tm1-updateSub";
        case Tm1TxnType::kUpdateLocation: return "tm1-updateLoc";
        case Tm1TxnType::kInsertCallForwarding: return "tm1-insertCF";
        case Tm1TxnType::kDeleteCallForwarding: return "tm1-deleteCF";
      }
  }
  return "tm1";
}

void Tm1Workload::Load(Database& db) {
  sub_table_ = db.CreateTable("subscriber");
  ai_table_ = db.CreateTable("access_info");
  sf_table_ = db.CreateTable("special_facility");
  cf_table_ = db.CreateTable("call_forwarding");
  sub_pk_ = db.CreateIndex(sub_table_, "sub_pk", IndexKind::kHash, true);
  sub_nbr_idx_ =
      db.CreateIndex(sub_table_, "sub_nbr", IndexKind::kHash, true);
  ai_pk_ = db.CreateIndex(ai_table_, "ai_pk", IndexKind::kHash, true);
  sf_pk_ = db.CreateIndex(sf_table_, "sf_pk", IndexKind::kHash, true);
  cf_pk_ = db.CreateIndex(cf_table_, "cf_pk", IndexKind::kBTree, true);

  auto loader = db.CreateAgent(/*seed=*/7);
  Rng& rng = loader->rng();

  // Batch rows per transaction to keep the loader's undo lists small.
  constexpr uint64_t kBatch = 500;
  for (uint64_t base = 1; base <= options_.subscribers; base += kBatch) {
    db.Begin(loader.get());
    const uint64_t end = std::min(base + kBatch - 1, options_.subscribers);
    for (uint64_t s = base; s <= end; ++s) {
      Subscriber sub{};
      sub.s_id = s;
      FillSubNbr(sub.sub_nbr, s);
      sub.bits = static_cast<uint16_t>(rng.Next());
      for (int i = 0; i < 10; ++i) {
        sub.hex[i] = static_cast<uint8_t>(rng.Uniform(0, 15));
        sub.byte2[i] = static_cast<uint8_t>(rng.Uniform(0, 255));
      }
      sub.msc_location = static_cast<uint32_t>(rng.Next());
      sub.vlr_location = static_cast<uint32_t>(rng.Next());
      Rid rid;
      db.Insert(loader.get(), sub_table_, AsBytes(sub), &rid);
      db.IndexInsert(loader.get(), sub_pk_, s, rid.ToU64());
      db.IndexInsert(loader.get(), sub_nbr_idx_, s, rid.ToU64());

      // 1..4 access-info rows (types 1..k).
      const uint8_t ai_count = static_cast<uint8_t>(rng.Uniform(1, 4));
      for (uint8_t t = 1; t <= ai_count; ++t) {
        AccessInfo ai{};
        ai.s_id = s;
        ai.ai_type = t;
        ai.data1 = static_cast<uint8_t>(rng.Uniform(0, 255));
        ai.data2 = static_cast<uint8_t>(rng.Uniform(0, 255));
        std::memcpy(ai.data3, rng.AlphaString(3, 3).c_str(), 4);
        std::memcpy(ai.data4, rng.AlphaString(5, 5).c_str(), 6);
        Rid ai_rid;
        db.Insert(loader.get(), ai_table_, AsBytes(ai), &ai_rid);
        db.IndexInsert(loader.get(), ai_pk_, AiKey(s, t), ai_rid.ToU64());
      }

      // 1..4 special-facility rows; each with 0..3 call forwardings.
      const uint8_t sf_count = static_cast<uint8_t>(rng.Uniform(1, 4));
      for (uint8_t t = 1; t <= sf_count; ++t) {
        SpecialFacility sf{};
        sf.s_id = s;
        sf.sf_type = t;
        sf.is_active = rng.Bernoulli(0.85) ? 1 : 0;
        sf.error_cntrl = static_cast<uint8_t>(rng.Uniform(0, 255));
        sf.data_a = static_cast<uint8_t>(rng.Uniform(0, 255));
        std::memcpy(sf.data_b, rng.AlphaString(5, 5).c_str(), 6);
        Rid sf_rid;
        db.Insert(loader.get(), sf_table_, AsBytes(sf), &sf_rid);
        db.IndexInsert(loader.get(), sf_pk_, SfKey(s, t), sf_rid.ToU64());

        // Each of the three start-time slots is occupied with p = 1/2
        // (mean 1.5 forwardings per facility, uniformly over slots). This
        // reproduces the spec's insert/delete failure rate of 68.75%.
        static constexpr uint8_t kStartTimes[3] = {0, 8, 16};
        for (uint8_t c = 0; c < 3; ++c) {
          if (!rng.Bernoulli(0.5)) continue;
          CallForwarding cf{};
          cf.s_id = s;
          cf.sf_type = t;
          cf.start_time = kStartTimes[c];
          cf.end_time =
              static_cast<uint8_t>(cf.start_time + rng.Uniform(1, 8));
          FillSubNbr(cf.numberx, rng.Uniform(1, options_.subscribers));
          Rid cf_rid;
          db.Insert(loader.get(), cf_table_, AsBytes(cf), &cf_rid);
          db.IndexInsert(loader.get(), cf_pk_,
                         CfKey(s, t, cf.start_time), cf_rid.ToU64());
        }
      }
    }
    db.Commit(loader.get());
  }
}

Tm1TxnType Tm1Workload::PickType(Rng& rng) const {
  if (mix_ == Mix::kSingle) return single_type_;
  const uint64_t r = rng.Uniform(0, 999);
  if (mix_ == Mix::kForward) {
    // getDest / insertCF / deleteCF at 71.4 / 14.3 / 14.3 %.
    if (r < 714) return Tm1TxnType::kGetNewDestination;
    if (r < 857) return Tm1TxnType::kInsertCallForwarding;
    return Tm1TxnType::kDeleteCallForwarding;
  }
  // Full mix: 35 / 10 / 35 / 2 / 14 / 2 / 2 %.
  if (r < 350) return Tm1TxnType::kGetSubscriberData;
  if (r < 450) return Tm1TxnType::kGetNewDestination;
  if (r < 800) return Tm1TxnType::kGetAccessData;
  if (r < 820) return Tm1TxnType::kUpdateSubscriberData;
  if (r < 960) return Tm1TxnType::kUpdateLocation;
  if (r < 980) return Tm1TxnType::kInsertCallForwarding;
  return Tm1TxnType::kDeleteCallForwarding;
}

Status Tm1Workload::RunOne(Database& db, AgentContext& agent) {
  switch (PickType(agent.rng())) {
    case Tm1TxnType::kGetSubscriberData: return GetSubscriberData(db, agent);
    case Tm1TxnType::kGetNewDestination: return GetNewDestination(db, agent);
    case Tm1TxnType::kGetAccessData: return GetAccessData(db, agent);
    case Tm1TxnType::kUpdateSubscriberData:
      return UpdateSubscriberData(db, agent);
    case Tm1TxnType::kUpdateLocation: return UpdateLocation(db, agent);
    case Tm1TxnType::kInsertCallForwarding:
      return InsertCallForwarding(db, agent);
    case Tm1TxnType::kDeleteCallForwarding:
      return DeleteCallForwarding(db, agent);
  }
  return Status::InvalidArgument("bad txn type");
}

Status Tm1Workload::GetSubscriberData(Database& db, AgentContext& agent) {
  const uint64_t s_id = agent.rng().Uniform(1, options_.subscribers);
  db.Begin(&agent);
  uint64_t rid;
  TM1_TRY(db.IndexLookup(sub_pk_, s_id, &rid));
  Subscriber sub;
  TM1_TRY(db.Read(&agent, sub_table_, Rid::FromU64(rid), &sub, sizeof(sub)));
  return db.Commit(&agent);
}

Status Tm1Workload::GetNewDestination(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t s_id = rng.Uniform(1, options_.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
  const uint8_t start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);
  const uint8_t end_time = static_cast<uint8_t>(rng.Uniform(1, 24));

  db.Begin(&agent);
  uint64_t sf_rid;
  if (!db.IndexLookup(sf_pk_, SfKey(s_id, sf_type), &sf_rid).ok()) {
    TM1_USER_FAIL();
  }
  SpecialFacility sf;
  TM1_TRY(db.Read(&agent, sf_table_, Rid::FromU64(sf_rid), &sf, sizeof(sf)));
  if (sf.is_active == 0) TM1_USER_FAIL();

  // Forwardings with cf.start_time <= start_time and cf.end_time > end_time.
  bool found = false;
  Status scan_status = Status::OK();
  db.IndexScan(cf_pk_, CfKey(s_id, sf_type, 0),
               CfKey(s_id, sf_type, start_time),
               [&](uint64_t, uint64_t cf_rid) {
                 CallForwarding cf;
                 const Status st = db.Read(&agent, cf_table_,
                                           Rid::FromU64(cf_rid), &cf,
                                           sizeof(cf));
                 if (!st.ok()) {
                   // Row vanished under us (concurrent delete) or lock
                   // failure; remember hard failures.
                   if (st.ForcesAbort()) scan_status = st;
                   return st.ForcesAbort() ? false : true;
                 }
                 if (cf.end_time > end_time) {
                   found = true;
                   return false;
                 }
                 return true;
               });
  TM1_TRY(scan_status);
  if (!found) TM1_USER_FAIL();
  return db.Commit(&agent);
}

Status Tm1Workload::GetAccessData(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t s_id = rng.Uniform(1, options_.subscribers);
  const uint8_t ai_type = static_cast<uint8_t>(rng.Uniform(1, 4));
  db.Begin(&agent);
  uint64_t rid;
  if (!db.IndexLookup(ai_pk_, AiKey(s_id, ai_type), &rid).ok()) {
    TM1_USER_FAIL();
  }
  AccessInfo ai;
  TM1_TRY(db.Read(&agent, ai_table_, Rid::FromU64(rid), &ai, sizeof(ai)));
  return db.Commit(&agent);
}

Status Tm1Workload::UpdateSubscriberData(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t s_id = rng.Uniform(1, options_.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
  const uint8_t new_data_a = static_cast<uint8_t>(rng.Uniform(0, 255));
  const uint16_t bit_mask = static_cast<uint16_t>(1u << rng.Uniform(0, 9));

  db.Begin(&agent);
  uint64_t sub_rid;
  TM1_TRY(db.IndexLookup(sub_pk_, s_id, &sub_rid));
  Subscriber sub;
  TM1_TRY(db.LockRowExclusive(&agent, sub_table_, Rid::FromU64(sub_rid)));
  TM1_TRY(
      db.Read(&agent, sub_table_, Rid::FromU64(sub_rid), &sub, sizeof(sub)));
  sub.bits ^= bit_mask;
  TM1_TRY(db.Update(&agent, sub_table_, Rid::FromU64(sub_rid), AsBytes(sub)));

  uint64_t sf_rid;
  if (!db.IndexLookup(sf_pk_, SfKey(s_id, sf_type), &sf_rid).ok()) {
    TM1_USER_FAIL();  // rolls back the subscriber update too
  }
  SpecialFacility sf;
  TM1_TRY(db.LockRowExclusive(&agent, sf_table_, Rid::FromU64(sf_rid)));
  TM1_TRY(db.Read(&agent, sf_table_, Rid::FromU64(sf_rid), &sf, sizeof(sf)));
  sf.data_a = new_data_a;
  TM1_TRY(db.Update(&agent, sf_table_, Rid::FromU64(sf_rid), AsBytes(sf)));
  return db.Commit(&agent);
}

Status Tm1Workload::UpdateLocation(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t s_id = rng.Uniform(1, options_.subscribers);
  const uint32_t new_location = static_cast<uint32_t>(rng.Next());
  db.Begin(&agent);
  uint64_t rid;
  TM1_TRY(db.IndexLookup(sub_nbr_idx_, s_id, &rid));
  Subscriber sub;
  TM1_TRY(db.LockRowExclusive(&agent, sub_table_, Rid::FromU64(rid)));
  TM1_TRY(db.Read(&agent, sub_table_, Rid::FromU64(rid), &sub, sizeof(sub)));
  sub.vlr_location = new_location;
  TM1_TRY(db.Update(&agent, sub_table_, Rid::FromU64(rid), AsBytes(sub)));
  return db.Commit(&agent);
}

Status Tm1Workload::InsertCallForwarding(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t s_id = rng.Uniform(1, options_.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
  const uint8_t start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);

  db.Begin(&agent);
  uint64_t sub_rid;
  TM1_TRY(db.IndexLookup(sub_nbr_idx_, s_id, &sub_rid));
  Subscriber sub;
  TM1_TRY(
      db.Read(&agent, sub_table_, Rid::FromU64(sub_rid), &sub, sizeof(sub)));

  uint64_t sf_rid;
  if (!db.IndexLookup(sf_pk_, SfKey(s_id, sf_type), &sf_rid).ok()) {
    TM1_USER_FAIL();
  }
  // Already have a forwarding for this slot? Spec: insert fails.
  uint64_t existing;
  if (db.IndexLookup(cf_pk_, CfKey(s_id, sf_type, start_time), &existing)
          .ok()) {
    TM1_USER_FAIL();
  }

  CallForwarding cf{};
  cf.s_id = s_id;
  cf.sf_type = sf_type;
  cf.start_time = start_time;
  cf.end_time = static_cast<uint8_t>(start_time + rng.Uniform(1, 8));
  FillSubNbr(cf.numberx, rng.Uniform(1, options_.subscribers));
  Rid rid;
  TM1_TRY(db.Insert(&agent, cf_table_, AsBytes(cf), &rid));
  {
    const Status st = db.IndexInsert(&agent, cf_pk_,
                                     CfKey(s_id, sf_type, start_time),
                                     rid.ToU64());
    if (st.IsKeyExists()) TM1_USER_FAIL();  // concurrent duplicate
    TM1_TRY(st);
  }
  return db.Commit(&agent);
}

Status Tm1Workload::DeleteCallForwarding(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t s_id = rng.Uniform(1, options_.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
  const uint8_t start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);

  db.Begin(&agent);
  uint64_t cf_rid;
  if (!db.IndexLookup(cf_pk_, CfKey(s_id, sf_type, start_time), &cf_rid)
           .ok()) {
    TM1_USER_FAIL();
  }
  // Delete row first (X lock), then the index entry; a concurrent deleter
  // loses the row race and fails above or at Delete with NotFound.
  const Status st = db.Delete(&agent, cf_table_, Rid::FromU64(cf_rid));
  if (st.IsNotFound()) TM1_USER_FAIL();
  TM1_TRY(st);
  TM1_TRY(db.IndexRemove(&agent, cf_pk_, CfKey(s_id, sf_type, start_time),
                         cf_rid));
  return db.Commit(&agent);
}

}  // namespace slidb
