#include "src/workload/contention.h"

#include <algorithm>

namespace slidb {

namespace {

/// One catalog row, shared by every scenario. `stock` doubles as the
/// flash-sale inventory and the auction's current price.
struct Item {
  uint64_t id;
  int64_t stock;
  int64_t version;
  char payload[40];
};

struct Bid {
  uint64_t item_id;
  uint64_t bidder;
  int64_t amount;
  char filler[24];
};

template <typename T>
std::span<const uint8_t> AsBytes(const T& rec) {
  return {reinterpret_cast<const uint8_t*>(&rec), sizeof(T)};
}

#define CONTENTION_TRY(expr)      \
  do {                            \
    ::slidb::Status _st = (expr); \
    if (!_st.ok()) {              \
      db.Abort(&agent);           \
      return _st;                 \
    }                             \
  } while (0)

}  // namespace

ContentionWorkload::ContentionWorkload(ContentionOptions options)
    : options_(options), zipf_(options.num_items, options.theta) {
  // Rank 1 is the hottest key under any theta; the scramble fixes which id
  // that is, so the single-row scenarios hammer a key that sits in the
  // middle of the tree like any other, not id 1 on the first leaf.
  hot_key_ = zipf_.Scramble(1);
}

const char* ContentionWorkload::name() const {
  return ContentionScenarioName(options_.scenario);
}

void ContentionWorkload::Load(Database& db) {
  items_table_ = db.CreateTable("items");
  bids_table_ = db.CreateTable("bids");
  items_pk_ = db.CreateIndex(items_table_, "items_pk", IndexKind::kHash, true);

  auto loader = db.CreateAgent(/*seed=*/17);
  constexpr uint64_t kBatch = 2000;
  for (uint64_t k0 = 1; k0 <= options_.num_items; k0 += kBatch) {
    db.Begin(loader.get());
    const uint64_t hi = std::min(k0 + kBatch - 1, options_.num_items);
    for (uint64_t k = k0; k <= hi; ++k) {
      Item item{};
      item.id = k;
      item.stock = 1'000'000;  // never sells out within a bench run
      Rid rid;
      db.Insert(loader.get(), items_table_, AsBytes(item), &rid);
      db.IndexInsert(loader.get(), items_pk_, k, rid.ToU64());
    }
    db.Commit(loader.get());
  }
}

Status ContentionWorkload::ReadItem(Database& db, AgentContext& agent,
                                    uint64_t key) {
  uint64_t rid;
  CONTENTION_TRY(db.IndexLookup(items_pk_, key, &rid));
  Item item;
  CONTENTION_TRY(
      db.Read(&agent, items_table_, Rid::FromU64(rid), &item, sizeof(item)));
  return Status::OK();
}

Status ContentionWorkload::WriteItem(Database& db, AgentContext& agent,
                                     uint64_t key, int64_t stock_delta) {
  uint64_t rid;
  CONTENTION_TRY(db.IndexLookup(items_pk_, key, &rid));
  Item item;
  CONTENTION_TRY(db.LockRowExclusive(&agent, items_table_, Rid::FromU64(rid)));
  CONTENTION_TRY(
      db.Read(&agent, items_table_, Rid::FromU64(rid), &item, sizeof(item)));
  item.stock += stock_delta;
  item.version += 1;
  CONTENTION_TRY(
      db.Update(&agent, items_table_, Rid::FromU64(rid), AsBytes(item)));
  return Status::OK();
}

Status ContentionWorkload::RunOne(Database& db, AgentContext& agent) {
  switch (options_.scenario) {
    case ContentionScenario::kZipfMix: return RunZipfMix(db, agent);
    case ContentionScenario::kFlashSale: return RunFlashSale(db, agent);
    case ContentionScenario::kAuction: return RunAuction(db, agent);
    case ContentionScenario::kSocialFeed: return RunSocialFeed(db, agent);
  }
  return Status::InvalidArgument("unknown scenario");
}

Status ContentionWorkload::RunZipfMix(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  // Plan the accesses up front: under heavy skew the same hot key is drawn
  // several times per transaction, and touching it S first then X later
  // creates symmetric upgrade deadlocks between agents — a deadlock storm
  // that measures the detector, not the lock-manager path this scenario
  // exists to stress. Deduplicate (strongest mode wins) and access in key
  // order so the only conflicts left are genuine hot-lock conflicts.
  struct Access {
    uint64_t key;
    bool write;
  };
  Access plan[64];
  uint32_t n = 0;
  const uint32_t draws = std::min<uint32_t>(options_.reads_per_txn, 64);
  for (uint32_t i = 0; i < draws; ++i) {
    const uint64_t key = zipf_.Next(rng);
    const bool write = rng.Bernoulli(options_.write_fraction);
    bool merged = false;
    for (uint32_t j = 0; j < n; ++j) {
      if (plan[j].key == key) {
        plan[j].write |= write;
        merged = true;
        break;
      }
    }
    if (!merged) plan[n++] = {key, write};
  }
  std::sort(plan, plan + n,
            [](const Access& a, const Access& b) { return a.key < b.key; });

  db.Begin(&agent);
  for (uint32_t i = 0; i < n; ++i) {
    if (plan[i].write) {
      CONTENTION_TRY(WriteItem(db, agent, plan[i].key, 0));
    } else {
      CONTENTION_TRY(ReadItem(db, agent, plan[i].key));
    }
  }
  return db.Commit(&agent);
}

Status ContentionWorkload::RunFlashSale(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const bool buying = rng.Bernoulli(options_.write_fraction);
  db.Begin(&agent);
  if (buying) {
    CONTENTION_TRY(WriteItem(db, agent, hot_key_, -1));
  } else {
    CONTENTION_TRY(ReadItem(db, agent, hot_key_));  // check the sale price
  }
  // Browse the rest of the catalog while we are here.
  for (uint32_t i = 1; i < options_.reads_per_txn; ++i) {
    CONTENTION_TRY(ReadItem(db, agent, rng.Uniform(1, options_.num_items)));
  }
  return db.Commit(&agent);
}

Status ContentionWorkload::RunAuction(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const bool outbid = rng.Bernoulli(options_.write_fraction);
  db.Begin(&agent);
  if (outbid) {
    // Raise the price and append the bid.
    CONTENTION_TRY(WriteItem(db, agent, hot_key_, 1));
    Bid bid{};
    bid.item_id = hot_key_;
    bid.bidder = rng.Next();
    Rid b_rid;
    CONTENTION_TRY(db.Insert(&agent, bids_table_, AsBytes(bid), &b_rid));
  } else {
    CONTENTION_TRY(ReadItem(db, agent, hot_key_));  // watch the auction
  }
  // Window-shop a few Zipf-popular items.
  for (uint32_t i = 1; i < options_.reads_per_txn; ++i) {
    CONTENTION_TRY(ReadItem(db, agent, zipf_.Next(rng)));
  }
  return db.Commit(&agent);
}

Status ContentionWorkload::RunSocialFeed(Database& db, AgentContext& agent) {
  Rng& rng = agent.rng();
  const uint64_t author = zipf_.Next(rng);
  if (rng.Bernoulli(options_.write_fraction)) {
    // The author posts: a short exclusive touch on a popular row.
    db.Begin(&agent);
    CONTENTION_TRY(WriteItem(db, agent, author, 0));
    return db.Commit(&agent);
  }
  // A follower builds their feed: the popular author's row plus a fanout of
  // uniform timeline rows.
  db.Begin(&agent);
  CONTENTION_TRY(ReadItem(db, agent, author));
  for (uint32_t i = 0; i < options_.reads_per_txn; ++i) {
    CONTENTION_TRY(ReadItem(db, agent, rng.Uniform(1, options_.num_items)));
  }
  return db.Commit(&agent);
}

ContentionHeatReport ContentionWorkload::MeasureHeat(Database& db) {
  ContentionHeatReport out;
  const uint32_t hot_min = db.lock_manager().options().hot_min_contended;
  db.lock_manager().table().ForEachHead([&](LockHead* h) {
    ++out.heads;
    if (h->hot.IsHot(hot_min)) ++out.hot_heads;
    const uint64_t contended = h->hot.total_contended();
    if (contended > 0) ++out.contended_heads;
    out.total_acquires += h->hot.total_acquires();
    out.total_contended += contended;
  });
  if (out.total_acquires > 0) {
    out.contended_fraction = static_cast<double>(out.total_contended) /
                             static_cast<double>(out.total_acquires);
  }
  return out;
}

}  // namespace slidb
