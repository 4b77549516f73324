// Contention-scenario engine: purpose-built skewed workloads that put the
// SLI machinery on the regime the paper designed it for (hot locks), plus a
// heat probe that reports what the HotTracker actually saw. Four scenarios:
//
//  * zipf-mix    — reads_per_txn scrambled-Zipf point accesses per txn with
//                  a write fraction; theta is the sweep knob (0 = uniform,
//                  1.2 = extreme skew).
//  * flash-sale  — every transaction reads one fixed hot item (the sale);
//                  a fraction buy (exclusive decrement). The single hottest
//                  lock possible.
//  * auction     — everyone watches the top item; a fraction outbid, which
//                  updates the item and appends a bid row.
//  * social-feed — a Zipf-popular author's row is read by every follower
//                  building a feed (fanout of uniform reads); the author
//                  occasionally posts (update). Read-mostly hot head.
#pragma once

#include <cstdint>
#include <memory>

#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace slidb {

enum class ContentionScenario : uint8_t {
  kZipfMix,
  kFlashSale,
  kAuction,
  kSocialFeed,
};

inline const char* ContentionScenarioName(ContentionScenario s) {
  switch (s) {
    case ContentionScenario::kZipfMix: return "zipf_mix";
    case ContentionScenario::kFlashSale: return "flash_sale";
    case ContentionScenario::kAuction: return "auction";
    case ContentionScenario::kSocialFeed: return "social_feed";
  }
  return "?";
}

struct ContentionOptions {
  ContentionScenario scenario = ContentionScenario::kZipfMix;
  uint64_t num_items = 100'000;
  /// Zipf exponent for the popularity distribution (zipf-mix key choice,
  /// social-feed author choice, auction browse mix). 0 = uniform.
  double theta = 0.99;
  /// Point accesses per transaction (zipf-mix) / fanout (social-feed).
  uint32_t reads_per_txn = 8;
  /// Fraction of transactions that write their hot target.
  double write_fraction = 0.1;
};

/// Snapshot of per-head heat, aggregated over every live lock head.
/// `hot_heads` uses the 16-slot sliding window (can read zero after an idle
/// tail); `contended_heads` counts heads that were *ever* contended —
/// cumulative, so it is the stable signal for CI assertions.
struct ContentionHeatReport {
  uint64_t heads = 0;
  uint64_t hot_heads = 0;           ///< IsHot(hot_min_contended) right now
  uint64_t contended_heads = 0;     ///< total_contended() > 0 (cumulative)
  uint64_t total_acquires = 0;
  uint64_t total_contended = 0;
  double contended_fraction = 0.0;  ///< total_contended / total_acquires
};

class ContentionWorkload : public Workload {
 public:
  explicit ContentionWorkload(ContentionOptions options = {});

  const char* name() const override;
  void Load(Database& db) override;
  Status RunOne(Database& db, AgentContext& agent) override;

  const ContentionOptions& options() const { return options_; }
  /// The fixed hot row's key (flash-sale / auction target; Zipf rank 1).
  uint64_t hot_key() const { return hot_key_; }

  /// Walk every live lock head and aggregate its HotTracker state. Call
  /// after RunWorkload returns (takes bucket + head latches briefly).
  static ContentionHeatReport MeasureHeat(Database& db);

 private:
  Status RunZipfMix(Database& db, AgentContext& agent);
  Status RunFlashSale(Database& db, AgentContext& agent);
  Status RunAuction(Database& db, AgentContext& agent);
  Status RunSocialFeed(Database& db, AgentContext& agent);

  Status ReadItem(Database& db, AgentContext& agent, uint64_t key);
  Status WriteItem(Database& db, AgentContext& agent, uint64_t key,
                   int64_t stock_delta);

  ContentionOptions options_;
  /// Shared across agent threads: Next() is const and takes the caller's
  /// Rng, so one generator serves every driver thread.
  ScrambledZipfGenerator zipf_;
  uint64_t hot_key_ = 0;
  TableId items_table_{}, bids_table_{};
  IndexId items_pk_{};
};

}  // namespace slidb
