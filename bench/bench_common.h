// Shared helpers for the per-figure benchmark harnesses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace slidb::bench {

/// Print an aligned table row to stdout and mirror it as CSV to stderr
/// when --csv is passed (set by ParseArgs).
struct TablePrinter {
  explicit TablePrinter(std::vector<std::string> headers);
  void Row(const std::vector<std::string>& cells);

  std::vector<size_t> widths;
};

/// Common CLI knobs for the figure benches.
struct BenchArgs {
  double duration_s = 1.0;     ///< measurement window per data point
  double warmup_s = 0.3;       ///< discarded warm-up window
  int max_threads = 0;         ///< 0 = default ladder
  uint64_t seed = 42;
  bool quick = false;          ///< CI mode: tiny datasets, short windows
  uint64_t sim_queue_ns = 100;  ///< simulated queue work per entry (--sim=NS)
  std::string json_path;        ///< write machine-readable results (--json=F)
};

/// Minimal JSON emitter for the BENCH_*.json result files. Handles comma
/// placement; the caller is responsible for well-formed nesting.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Starts a "key": inside an object; follow with a value or Begin*().
  JsonWriter& Key(const std::string& k);
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }

  const std::string& str() const { return out_; }
  /// Write to `path`, or to stdout when `path` is empty. Returns success.
  bool WriteTo(const std::string& path) const;

 private:
  void Prefix();

  std::string out_;
  std::vector<bool> need_comma_;  // one level per open object/array
  bool after_key_ = false;
};

BenchArgs ParseArgs(int argc, char** argv);

/// Write the provenance keys every BENCH_*.json carries: "git_sha" (the
/// commit the build was configured from, suffixed "-dirty" when the tree
/// had uncommitted changes), "nproc" (usable CPUs), "build_type" and
/// "quick". Call inside the file's top-level object.
void WriteProvenance(JsonWriter& json, const BenchArgs& args);

/// The simulated lock-queue work set by the last ParseArgs call (the
/// workload factories read it when building databases).
uint64_t SimQueueWorkNs();

std::string Fmt(const char* fmt, ...);

/// Thread ladder standing in for the paper's "hardware contexts utilized".
std::vector<int> ThreadLadder(int max_threads);

}  // namespace slidb::bench
