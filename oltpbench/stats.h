// Statistics the OLTP benchmark reports, kept apart from the harness so the
// self-test can check them on synthetic samples:
//  * exact per-transaction latency samples kept in fixed memory (a uniform
//    reservoir per agent and sub-window) and nearest-rank percentiles;
//  * CPU time per completed transaction, per sub-window, from process and
//    agent-thread CPU clocks read at sub-window boundaries;
//  * the failure base: attempted = completed + failed, where completed is a
//    commit or a TM1 spec-mandated rollback.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace oltpbench {

/// Latency sample of a transaction that failed: larger than any real one,
/// so a failure can only move a percentile up.
inline constexpr uint32_t kFailedSample = UINT32_MAX;

/// Uniform sample of at most `capacity` values from an unbounded stream
/// (Vitter's Algorithm R). The buffer is allocated and zero-filled up
/// front, so the resident set does not follow throughput.
class Reservoir {
 public:
  explicit Reservoir(uint32_t capacity = 0) : buf_(capacity) {}

  /// `random` is a uniformly distributed 64-bit value, drawn by the caller
  /// from a stream that is independent of the workload's inputs.
  void Add(uint32_t value, uint64_t random) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = value;
    } else {
      const uint64_t slot = random % (seen_ + 1);
      if (slot < buf_.size()) buf_[slot] = value;
    }
    ++seen_;
  }

  uint64_t seen() const { return seen_; }
  std::span<const uint32_t> kept() const {
    return {buf_.data(), static_cast<size_t>(
                             std::min<uint64_t>(seen_, buf_.size()))};
  }

 private:
  std::vector<uint32_t> buf_;
  uint64_t seen_ = 0;
};

/// Nearest-rank percentile: the smallest sample v such that at least a
/// share `q` (0 < q <= 1) of the samples is <= v. Reorders `v`; 0 if empty.
inline uint32_t Percentile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const double rank = q * static_cast<double>(v.size());
  size_t k = static_cast<size_t>(rank);
  if (static_cast<double>(k) < rank) ++k;  // ceil
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

/// Median as Python's statistics.median gives it (mean of the two middle
/// values for an even count); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Transactions by outcome. A TM1 spec-mandated rollback is completed, not
/// failed; a transaction fails when the engine aborted it on every attempt.
struct Outcomes {
  uint64_t committed = 0;
  uint64_t rolled_back = 0;
  uint64_t failed = 0;

  uint64_t completed() const { return committed + rolled_back; }
  uint64_t attempted() const { return completed() + failed; }

  Outcomes& operator+=(const Outcomes& o) {
    committed += o.committed;
    rolled_back += o.rolled_back;
    failed += o.failed;
    return *this;
  }
};

/// The base a run reports: when an output check fails, every transaction
/// the check covers counts as failed.
inline Outcomes ReportedOutcomes(const Outcomes& window, bool checks_ok) {
  if (checks_ok) return window;
  Outcomes out;
  out.failed = window.attempted();
  return out;
}

/// Clocks read by the coordinator at one sub-window boundary.
struct CpuMark {
  uint64_t process_ns = 0;  ///< CLOCK_PROCESS_CPUTIME_ID
  uint64_t agents_ns = 0;   ///< sum of the agent threads' CPU clocks
};

/// CPU spent in one sub-window, in microseconds per completed transaction.
struct SubWindowCpu {
  double process_us_per_txn = 0;
  double agent_us_per_txn = 0;
  double background_us_per_txn = 0;  ///< process minus agents
};

/// CPU per completed transaction of sub-window i, between marks[i] and
/// marks[i + 1]. `completed[i]` is that sub-window's completed count; a
/// sub-window that completed nothing has no ratio and is left out.
inline std::vector<SubWindowCpu> CpuPerTxn(
    const std::vector<CpuMark>& marks, const std::vector<uint64_t>& completed,
    const std::vector<size_t>& subwindows) {
  std::vector<SubWindowCpu> out;
  for (size_t i : subwindows) {
    if (i + 1 >= marks.size() || i >= completed.size() || completed[i] == 0) {
      continue;
    }
    const double n = static_cast<double>(completed[i]);
    const double process =
        static_cast<double>(marks[i + 1].process_ns - marks[i].process_ns);
    const double agents =
        static_cast<double>(marks[i + 1].agents_ns - marks[i].agents_ns);
    out.push_back({process / n / 1e3, agents / n / 1e3,
                   (process - agents) / n / 1e3});
  }
  return out;
}

}  // namespace oltpbench
