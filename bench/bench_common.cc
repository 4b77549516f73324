#include "bench_common.h"

#include <cstdarg>
#include <cstring>

#include "src/util/cpus.h"

namespace slidb::bench {

TablePrinter::TablePrinter(std::vector<std::string> headers) {
  std::string line;
  for (const auto& h : headers) {
    widths.push_back(h.size() + 2 < 12 ? 12 : h.size() + 2);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%-*s", static_cast<int>(widths.back()),
                  h.c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
  std::printf("%s\n", std::string(line.size(), '-').c_str());
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    const size_t w = i < widths.size() ? widths[i] : 12;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-*s", static_cast<int>(w),
                  cells[i].c_str());
    line += buf;
    if (cells[i].size() >= w) line += ' ';  // keep long cells separated
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {
uint64_t g_sim_queue_ns = 100;
}  // namespace

uint64_t SimQueueWorkNs() { return g_sim_queue_ns; }

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--duration=", 11) == 0) {
      args.duration_s = std::atof(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--warmup=", 9) == 0) {
      args.warmup_s = std::atof(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      args.max_threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--sim=", 6) == 0) {
      args.sim_queue_ns = std::strtoull(argv[i] + 6, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      args.json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
      args.duration_s = 0.25;
      args.warmup_s = 0.1;
    }
  }
  g_sim_queue_ns = args.sim_queue_ns;
  return args;
}

void WriteProvenance(JsonWriter& json, const BenchArgs& args) {
  json.Key("git_sha").Value(SLIDB_GIT_SHA);
  json.Key("nproc").Value(static_cast<int64_t>(UsableCpus()));
  json.Key("build_type").Value(SLIDB_BUILD_TYPE);
  json.Key("quick").Value(args.quick);
}

void JsonWriter::Prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Prefix();
  out_ += '{';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  need_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Prefix();
  out_ += '[';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  need_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& k) {
  Prefix();
  out_ += '"';
  out_ += k;  // bench keys are plain identifiers; no escaping needed
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  Prefix();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Prefix();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  Prefix();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Prefix();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  Prefix();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

bool JsonWriter::WriteTo(const std::string& path) const {
  if (path.empty()) {
    std::printf("%s\n", out_.c_str());
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(out_.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::vector<int> ThreadLadder(int max_threads) {
  const int hw = static_cast<int>(UsableCpus());
  const int cap = max_threads > 0 ? max_threads : (hw >= 2 ? hw * 8 : 16);
  std::vector<int> ladder;
  for (int t = 1; t <= cap; t *= 2) ladder.push_back(t);
  if (ladder.back() != cap) ladder.push_back(cap);
  return ladder;
}

}  // namespace slidb::bench
