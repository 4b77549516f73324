// One benchmark run: open and load the database several times (set-up
// time), probe the host's wake-up latency, warm up, then measure a closed
// loop of two agents in half-second sub-windows, check the database against
// what the client committed, and print one JSON result line.
//
//   oltpbench --workload tm1|tpcb|flash-sale --seed N --seconds S
//             --trace 0|1 [--out report.json] [--source-id ID]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced sub-windows and prints the per-layer metrics of the traced
// ones (spans, engine counters, ThreadProfile components), with the
// tracing overhead measured against the untraced ones.
#include <linux/futex.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "oltpbench/stats.h"
#include "oltpbench/workloads.h"
#include "src/stats/component.h"
#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/time_util.h"

#ifndef OLTPBENCH_BUILD_FLAGS
#define OLTPBENCH_BUILD_FLAGS "unknown"
#endif

namespace oltpbench {
namespace {

using slidb::Component;
using slidb::Counter;
using slidb::CounterSet;
using slidb::NowNanos;
using slidb::ProfileSnapshot;

// Two agents, the log flusher and the deadlock detector fill four CPUs;
// more agents measure the scheduler instead of the program.
constexpr int kAgents = 2;
constexpr uint64_t kSubWindowNs = 500'000'000;
constexpr uint64_t kWarmupNs = 2'000'000'000;
constexpr uint64_t kProbeNs = 500'000'000;
constexpr int kSetups = 3;
constexpr uint32_t kLatencySamplesPerSubWindow = 8192;  // per agent
constexpr uint32_t kSpanSamplesPerCall = 16384;         // per agent
constexpr size_t kRawSpansPerAgent = 4096;
constexpr uint64_t kStallNs = 1'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (end == val.c_str() || *end != '\0') a->seconds = 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
      have_trace = true;
    } else if (key == "--out") {
      a->out = val;
    } else if (key == "--source-id") {
      a->source_id = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_trace && a->seconds >= 1 &&
         a->seconds <= 600;
}

uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// A field of /proc/self/status in MB (VmRSS: now, VmHWM: peak).
double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n &&
        line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Steal and total ticks of all CPUs, from /proc/stat: time the hypervisor
/// ran something else while this guest wanted to run.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks t;
  in >> cpu;
  for (int field = 0; field < 10 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    if (field < 8) t.total += v;  // guest time is already in user/nice
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Size of the Volume, the in-memory stand-in for the data device. tpcb's
/// history heap grows by one row per commit, so this part of the resident
/// set follows throughput; the gated memory metric leaves it out.
double VolumeMb(Database& db) {
  slidb::Catalog& catalog = db.catalog();
  uint64_t pages = 0;
  for (size_t t = 0; t < catalog.num_tables(); ++t) {
    pages += db.buffer_pool().volume()->PageCount(
        catalog.table(static_cast<TableId>(t)).heap->file_id());
  }
  return static_cast<double>(pages * slidb::kPageSize) / (1 << 20);
}

/// Resident set less the Volume, in MB.
double ProgramMb(Database& db) { return StatusMb("VmRSS") - VolumeMb(db); }

// ------------------------------------------------------ host wake probe ----

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t));

void FutexWait(std::atomic<uint32_t>* word, uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT_PRIVATE,
          expected, nullptr, nullptr, 0);
}

void FutexWake(std::atomic<uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE_PRIVATE, 1,
          nullptr, nullptr, 0);
}

/// p99 round trip, in microseconds, of a futex ping-pong between two
/// threads: the cross-thread wake-up every durable commit and lock wait
/// pays, measured apart from the program.
double HostWakeP99Us(uint64_t duration_ns) {
  std::atomic<uint32_t> turn{0};  // 0: ping's turn, 1: pong's, 2: stop
  std::thread pong([&] {
    for (;;) {
      uint32_t v = turn.load(std::memory_order_acquire);
      while (v == 0) {
        FutexWait(&turn, 0);
        v = turn.load(std::memory_order_acquire);
      }
      if (v == 2) return;
      turn.store(0, std::memory_order_release);
      FutexWake(&turn);
    }
  });
  std::vector<uint32_t> rtts;
  rtts.reserve(1 << 17);
  const uint64_t deadline = NowNanos() + duration_ns;
  while (rtts.size() < rtts.capacity()) {
    const uint64_t t0 = NowNanos();
    if (t0 >= deadline) break;
    turn.store(1, std::memory_order_release);
    FutexWake(&turn);
    while (turn.load(std::memory_order_acquire) == 1) FutexWait(&turn, 1);
    rtts.push_back(static_cast<uint32_t>(NowNanos() - t0));
  }
  turn.store(2, std::memory_order_release);
  FutexWake(&turn);
  pong.join();
  return Percentile(rtts, 0.99) / 1e3;
}

// ---------------------------------------------------------------- JSON ----

class Json {
 public:
  Json& Open(const char* key = nullptr) { return Start(key, '{'); }
  Json& OpenArray(const char* key = nullptr) { return Start(key, '['); }
  Json& Close() {
    out_ << closers_.back();
    closers_.pop_back();
    first_ = false;
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    return *this;
  }
  Json& Int(const char* key, uint64_t v) {
    Key(key);
    out_ << v;
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Key(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  Json& Start(const char* key, char open) {
    Key(key);
    out_ << open;
    closers_.push_back(open == '{' ? '}' : ']');
    first_ = true;
    return *this;
  }
  void Key(const char* key) {
    if (!first_) out_ << ", ";
    first_ = false;
    if (key != nullptr) out_ << '"' << key << "\": ";
  }

  std::ostringstream out_;
  std::vector<char> closers_;
  bool first_ = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --------------------------------------------------------------- agents ----

/// Coordinator-side readings at one sub-window boundary.
struct Mark {
  CpuMark cpu;
  uint64_t wall_ns = 0;
  double program_mb = 0;
  HostTicks host;
  slidb::LogStats log;
  slidb::BufferPoolStats buffer;
};

struct AgentSlot {
  std::unique_ptr<slidb::AgentContext> agent;
  std::unique_ptr<Session> session;
  Rng inputs;    // transaction inputs: --seed and the agent index only
  Rng sampling;  // reservoir replacement, apart from the inputs
  std::vector<Reservoir> latency;  // per sub-window
  std::vector<Outcomes> outcomes;  // per sub-window
  std::vector<uint64_t> stalls;    // per sub-window: over kStallNs
  // Taken by the agent itself as it crosses each sub-window boundary.
  std::vector<CounterSet> counter_marks;
  std::vector<ProfileSnapshot> profile_marks;
  Effects effects;  // everything committed since load, warm-up included
  std::unique_ptr<Tracer> tracer;
  std::thread thread;
  clockid_t cpu_clock{};
};

struct Run {
  Run(const Args& a, BenchWorkload& w, Database& d, int n)
      : args(a), workload(w), db(d), subwindows(n) {}

  const Args& args;
  BenchWorkload& workload;
  Database& db;
  int subwindows;
  std::atomic<int> window{-1};  // -1 warm-up, [0, subwindows), then stop
  std::vector<AgentSlot> slots;

  bool Traced(int w) const { return args.trace && w % 2 == 1; }

  void AgentMain(AgentSlot& slot) {
    slidb::ScopedCounterSet counters(&slot.agent->counters());
    std::optional<slidb::ScopedThreadProfile> profile;
    int local = -1;
    for (;;) {
      const int w = window.load(std::memory_order_acquire);
      if (w != local) {
        if (profile.has_value() && !Traced(w)) {
          profile.reset();  // flushes into the agent's ThreadProfile
        } else if (profile.has_value()) {
          slot.agent->profile().Flush();
        }
        for (int b = std::max(local + 1, 0); b <= w; ++b) {
          slot.counter_marks[b] = slot.agent->counters();
          slot.profile_marks[b] = slot.agent->profile().Snapshot();
        }
        local = w;
        if (w >= subwindows) break;
        if (Traced(w) && !profile.has_value()) {
          profile.emplace(&slot.agent->profile());
        }
        slot.session->set_tracer(Traced(w) ? slot.tracer.get() : nullptr);
      }
      const uint64_t t0 = NowNanos();
      const TxnResult r =
          workload.RunOne(*slot.session, slot.inputs, slot.effects);
      const uint64_t dt = NowNanos() - t0;
      if (local < 0) continue;
      Outcomes& o = slot.outcomes[local];
      switch (r) {
        case TxnResult::kCommitted: ++o.committed; break;
        case TxnResult::kRolledBack: ++o.rolled_back; break;
        case TxnResult::kFailed: ++o.failed; break;
      }
      const uint32_t sample =
          r == TxnResult::kFailed
              ? kFailedSample
              : static_cast<uint32_t>(
                    std::min<uint64_t>(dt, kFailedSample - 1));
      slot.latency[local].Add(sample, slot.sampling.Next());
      if (dt > kStallNs) ++slot.stalls[local];
    }
    slot.session->set_tracer(nullptr);
  }

  Mark TakeMark() {
    Mark m;
    m.wall_ns = NowNanos();
    m.cpu.process_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
    for (AgentSlot& s : slots) m.cpu.agents_ns += ClockNs(s.cpu_clock);
    m.log = db.log_manager().Stats();
    m.buffer = db.buffer_pool().Stats();
    m.program_mb = ProgramMb(db);
    m.host = ReadHostTicks();
    return m;
  }

  /// Warm up, then measure `subwindows` sub-windows; marks[b] is taken as
  /// sub-window b begins (b == subwindows: the end).
  std::vector<Mark> Measure() {
    slots.resize(kAgents);
    for (int i = 0; i < kAgents; ++i) {
      AgentSlot& s = slots[i];
      s.agent = db.CreateAgent(/*seed=*/i + 1);
      s.session = std::make_unique<Session>(db, *s.agent, i);
      s.inputs = Rng(args.seed * 0x9e3779b97f4a7c15ULL + 2 * i + 1);
      s.sampling = Rng(args.seed * 0x9e3779b97f4a7c15ULL + 2 * i + 2);
      s.latency.assign(subwindows, Reservoir(kLatencySamplesPerSubWindow));
      s.outcomes.assign(subwindows, Outcomes{});
      s.stalls.assign(subwindows, 0);
      s.counter_marks.assign(subwindows + 1, CounterSet{});
      s.profile_marks.assign(subwindows + 1, ProfileSnapshot{});
      if (args.trace) {
        s.tracer = std::make_unique<Tracer>(kSpanSamplesPerCall,
                                            kRawSpansPerAgent, args.seed + i);
      }
    }
    for (AgentSlot& s : slots) {
      s.thread = std::thread([this, &s] { AgentMain(s); });
      pthread_getcpuclockid(s.thread.native_handle(), &s.cpu_clock);
    }
    std::vector<Mark> marks(subwindows + 1);
    std::this_thread::sleep_for(std::chrono::nanoseconds(kWarmupNs));
    const auto start = std::chrono::steady_clock::now();
    for (int b = 0; b <= subwindows; ++b) {
      std::this_thread::sleep_until(start +
                                    std::chrono::nanoseconds(kSubWindowNs) * b);
      marks[b] = TakeMark();
      window.store(b, std::memory_order_release);
    }
    for (AgentSlot& s : slots) s.thread.join();
    return marks;
  }
};

// ------------------------------------------------------------ reporting ----

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Aggregates of one set of sub-windows (all of them, or the traced or
/// untraced half of a trace run).
struct Bin {
  std::vector<size_t> subwindows;
  Outcomes outcomes;
  uint64_t stalls = 0;
  double wall_s = 0;
  std::vector<double> p50_us;  // per sub-window
  std::vector<double> steal;   // per sub-window: host steal share
  std::vector<uint32_t> all_samples;
  std::vector<SubWindowCpu> cpu;
  CounterSet counters;
  ProfileSnapshot profile;
  uint64_t log_bytes = 0, log_flushes = 0;
  slidb::BufferPoolStats buffer;

  double latency_p50_us() const { return Median(p50_us); }
  double cpu_us_per_txn() const {
    std::vector<double> v;
    for (const SubWindowCpu& c : cpu) v.push_back(c.process_us_per_txn);
    return Median(v);
  }
};

Bin Aggregate(const Run& run, const std::vector<Mark>& marks,
              std::vector<size_t> subwindows) {
  Bin bin;
  bin.subwindows = std::move(subwindows);
  std::vector<CpuMark> cpu_marks;
  for (const Mark& m : marks) cpu_marks.push_back(m.cpu);
  std::vector<uint64_t> completed(run.subwindows, 0);
  for (size_t w : bin.subwindows) {
    std::vector<uint32_t> samples;
    for (const AgentSlot& s : run.slots) {
      bin.outcomes += s.outcomes[w];
      completed[w] += s.outcomes[w].completed();
      bin.stalls += s.stalls[w];
      const auto kept = s.latency[w].kept();
      samples.insert(samples.end(), kept.begin(), kept.end());
      bin.counters.Merge(s.counter_marks[w + 1].Delta(s.counter_marks[w]));
      bin.profile += s.profile_marks[w + 1] - s.profile_marks[w];
    }
    bin.all_samples.insert(bin.all_samples.end(), samples.begin(),
                           samples.end());
    if (!samples.empty()) bin.p50_us.push_back(Percentile(samples, 0.5) / 1e3);
    bin.wall_s +=
        static_cast<double>(marks[w + 1].wall_ns - marks[w].wall_ns) / 1e9;
    bin.steal.push_back(Ratio(
        static_cast<double>(marks[w + 1].host.steal - marks[w].host.steal),
        static_cast<double>(marks[w + 1].host.total - marks[w].host.total)));
    bin.log_bytes +=
        marks[w + 1].log.appended_bytes - marks[w].log.appended_bytes;
    bin.log_flushes += marks[w + 1].log.flushes - marks[w].log.flushes;
    bin.buffer.fixes += marks[w + 1].buffer.fixes - marks[w].buffer.fixes;
    bin.buffer.misses += marks[w + 1].buffer.misses - marks[w].buffer.misses;
    bin.buffer.writebacks +=
        marks[w + 1].buffer.writebacks - marks[w].buffer.writebacks;
  }
  bin.cpu = CpuPerTxn(cpu_marks, completed, bin.subwindows);
  return bin;
}

/// The per-layer metrics of the traced sub-windows. Every ratio comes with
/// its numerator and denominator as count metrics of their own.
std::vector<Metric> PerLayerMetrics(const Run& run, const Bin& traced,
                                    const Bin& untraced, double open_s,
                                    double load_s,
                                    const ProfileSnapshot& setup_profile,
                                    double wake_p99_us) {
  std::vector<Metric> m;
  const double completed = static_cast<double>(traced.outcomes.completed());
  const double commits = static_cast<double>(traced.outcomes.committed);
  const auto count = [&](Counter c) {
    return static_cast<double>(traced.counters.Get(c));
  };

  // Spans around the client's calls into each layer.
  std::array<std::vector<uint32_t>, kNumCalls> spans;
  for (const AgentSlot& s : run.slots) {
    for (size_t c = 0; c < kNumCalls; ++c) {
      const auto kept = s.tracer->calls()[c].durations.kept();
      spans[c].insert(spans[c].end(), kept.begin(), kept.end());
    }
  }
  const auto span_us = [&](Call c, double q) {
    return Percentile(spans[static_cast<size_t>(c)], q) / 1e3;
  };
  m.push_back({"engine.open_s", open_s, "s"});
  m.push_back({"workload.load_s", load_s, "s"});
  m.push_back({"txn.begin_us", span_us(Call::kBegin, 0.5), "us"});
  m.push_back({"txn.commit_p50_us", span_us(Call::kCommit, 0.5), "us"});
  m.push_back({"txn.commit_p99_us", span_us(Call::kCommit, 0.99), "us"});
  m.push_back({"txn.abort_us", span_us(Call::kAbort, 0.5), "us"});
  m.push_back({"lock.row_x_p50_us", span_us(Call::kLockRowX, 0.5), "us"});
  m.push_back({"lock.row_x_p99_us", span_us(Call::kLockRowX, 0.99), "us"});
  m.push_back({"storage.index_lookup_us", span_us(Call::kIndexLookup, 0.5),
               "us"});
  m.push_back({"storage.row_read_us", span_us(Call::kRead, 0.5), "us"});
  m.push_back({"storage.row_update_us", span_us(Call::kUpdate, 0.5), "us"});
  m.push_back({"storage.row_insert_us", span_us(Call::kInsert, 0.5), "us"});

  // Engine counters (agent CounterSets, LogManager, BufferPool).
  const double requests = count(Counter::kLockRequests);
  const double hits = count(Counter::kLockCacheHits);
  const double waits = count(Counter::kLockWaits);
  const double inherited = count(Counter::kSliInherited);
  const double reclaimed = count(Counter::kSliReclaimed);
  const double invalidated = count(Counter::kSliInvalidated);
  const double restarts = count(Counter::kBtreeRestarts);
  const double wakes = count(Counter::kGroupCommitWaitersWoken);
  const double resv = count(Counter::kLogResvRetries);
  const double log_bytes = static_cast<double>(traced.log_bytes);
  const double flushes = static_cast<double>(traced.log_flushes);
  const double fixes = static_cast<double>(traced.buffer.fixes);
  const double misses = static_cast<double>(traced.buffer.misses);
  const double writebacks = static_cast<double>(traced.buffer.writebacks);
  m.push_back({"txn.completed", completed, "count"});
  m.push_back({"txn.commits", commits, "count"});
  m.push_back({"lock.requests", requests, "count"});
  m.push_back({"lock.cache_hits", hits, "count"});
  m.push_back({"lock.requests_per_txn", Ratio(requests, completed),
               "count/txn"});
  m.push_back({"lock.cache_hit_frac", Ratio(hits, hits + requests), "frac"});
  m.push_back({"lock.waits", waits, "count"});
  m.push_back({"lock.waits_per_txn", Ratio(waits, completed), "count/txn"});
  m.push_back({"lock.sli_inherited", inherited, "count"});
  m.push_back({"lock.sli_reclaimed", reclaimed, "count"});
  m.push_back({"lock.sli_invalidated", invalidated, "count"});
  m.push_back({"lock.sli_inherited_per_txn", Ratio(inherited, completed),
               "count/txn"});
  m.push_back({"lock.sli_reclaimed_frac", Ratio(reclaimed, inherited),
               "frac"});
  m.push_back({"lock.sli_invalidated_per_txn", Ratio(invalidated, completed),
               "count/txn"});
  m.push_back({"storage.btree_restarts", restarts, "count"});
  m.push_back({"storage.btree_restarts_per_txn", Ratio(restarts, completed),
               "count/txn"});
  m.push_back({"log.bytes", log_bytes, "bytes"});
  m.push_back({"log.flushes", flushes, "count"});
  m.push_back({"log.bytes_per_txn", Ratio(log_bytes, completed),
               "bytes/txn"});
  m.push_back({"log.commits_per_flush", Ratio(commits, flushes),
               "commits/flush"});
  m.push_back({"log.wakes", wakes, "count"});
  m.push_back({"log.wakes_per_commit", Ratio(wakes, commits),
               "count/commit"});
  m.push_back({"log.resv_retries", resv, "count"});
  m.push_back({"log.resv_retries_per_txn", Ratio(resv, completed),
               "count/txn"});
  m.push_back({"buffer.fixes", fixes, "count"});
  m.push_back({"buffer.misses", misses, "count"});
  m.push_back({"buffer.writebacks", writebacks, "count"});
  m.push_back({"buffer.fixes_per_txn", Ratio(fixes, completed), "count/txn"});
  m.push_back({"buffer.miss_frac", Ratio(misses, fixes), "frac"});
  m.push_back({"buffer.writebacks_per_txn", Ratio(writebacks, completed),
               "count/txn"});

  // ThreadProfile components on the agents, and per-thread CPU clocks.
  const double cycles_per_us = slidb::CyclesPerNano() * 1e3;
  for (size_t i = 0; i < slidb::kNumComponents; ++i) {
    const std::string c =
        std::string("cpu.") + slidb::ComponentName(static_cast<Component>(i));
    const auto per_txn = [&](uint64_t cycles) {
      return Ratio(static_cast<double>(cycles) / cycles_per_us, completed);
    };
    m.push_back({c + ".work_us_per_txn", per_txn(traced.profile.work[i]),
                 "us/txn"});
    m.push_back({c + ".contention_us_per_txn",
                 per_txn(traced.profile.contention[i]), "us/txn"});
    m.push_back({c + ".blocked_us_per_txn", per_txn(traced.profile.blocked[i]),
                 "us/txn"});
  }
  std::vector<double> agent_us, background_us;
  for (const SubWindowCpu& c : traced.cpu) {
    agent_us.push_back(c.agent_us_per_txn);
    background_us.push_back(c.background_us_per_txn);
  }
  m.push_back({"cpu.agent_us_per_txn", Median(agent_us), "us/txn"});
  m.push_back({"cpu.background_us_per_txn", Median(background_us), "us/txn"});

  // The loading thread's ThreadProfile, per set-up.
  for (size_t i = 0; i < slidb::kNumComponents; ++i) {
    const double s = static_cast<double>(setup_profile.work[i] +
                                         setup_profile.contention[i]) /
                     cycles_per_us / 1e6 / kSetups;
    m.push_back({std::string("setup.") +
                     slidb::ComponentName(static_cast<Component>(i)) +
                     ".cpu_s",
                 s, "s"});
  }
  m.push_back({"setup.blocked_s",
               static_cast<double>(setup_profile.TotalBlocked()) /
                   cycles_per_us / 1e6 / kSetups,
               "s"});

  // The client's view of the untraced sub-windows, and the host.
  std::vector<uint32_t> samples = untraced.all_samples;
  m.push_back({"client.throughput_tps",
               Ratio(static_cast<double>(untraced.outcomes.completed()),
                     untraced.wall_s),
               "1/s"});
  m.push_back({"client.latency_p99_us", Percentile(samples, 0.99) / 1e3,
               "us"});
  m.push_back({"client.stall_frac",
               Ratio(static_cast<double>(untraced.stalls),
                     static_cast<double>(untraced.outcomes.completed())),
               "frac"});
  m.push_back({"host.wake_p99_us", wake_p99_us, "us"});
  m.push_back({"trace.overhead_frac",
               Ratio(traced.latency_p50_us(), untraced.latency_p50_us()) - 1,
               "frac"});
  m.push_back({"trace.cpu_overhead_frac",
               Ratio(traced.cpu_us_per_txn(), untraced.cpu_us_per_txn()) - 1,
               "frac"});
  return m;
}

void WriteMetrics(Json& j, const char* key, const std::vector<Metric>& ms) {
  j.Open(key);
  for (const Metric& m : ms) {
    j.Open(m.name.c_str()).Num("value", m.value).Str("unit", m.unit).Close();
  }
  j.Close();
}

void WriteSpans(Json& j, const Run& run) {
  j.Open("spans");
  for (size_t c = 0; c < kNumCalls; ++c) {
    uint64_t n = 0, total = 0;
    std::vector<uint32_t> kept;
    for (const AgentSlot& s : run.slots) {
      const Tracer::CallStats& cs = s.tracer->calls()[c];
      n += cs.count;
      total += cs.total_ns;
      kept.insert(kept.end(), cs.durations.kept().begin(),
                  cs.durations.kept().end());
    }
    j.Open(CallName(static_cast<Call>(c)))
        .Int("count", n)
        .Num("mean_us", Ratio(static_cast<double>(total), 1e3 * n))
        .Num("p50_us", Percentile(kept, 0.5) / 1e3)
        .Num("p99_us", Percentile(kept, 0.99) / 1e3)
        .Int("samples", kept.size())
        .Close();
  }
  j.Close();
  j.OpenArray("raw_spans");
  for (const AgentSlot& s : run.slots) {
    for (const RawSpan& r : s.tracer->raw()) {
      j.Open()
          .Int("txn", r.txn_id)
          .Int("span", r.span_id)
          .Int("parent", r.parent_id)
          .Str("name", r.name)
          .Int("start_ns", r.start_ns)
          .Int("end_ns", r.end_ns)
          .Close();
    }
  }
  j.Close();
}

void WriteBin(Json& j, const char* key, const Bin& bin) {
  std::vector<uint32_t> samples = bin.all_samples;
  j.Open(key)
      .Int("subwindows", bin.subwindows.size())
      .Int("committed", bin.outcomes.committed)
      .Int("rolled_back", bin.outcomes.rolled_back)
      .Int("failed", bin.outcomes.failed)
      .Int("stalls", bin.stalls)
      .Num("wall_s", bin.wall_s)
      .Int("latency_samples", samples.size())
      .Num("latency_p50_us", bin.latency_p50_us())
      .Num("latency_p99_us", Percentile(samples, 0.99) / 1e3)
      .Num("cpu_us_per_txn", bin.cpu_us_per_txn());
  j.OpenArray("p50_us_by_subwindow");
  for (double v : bin.p50_us) j.Num(nullptr, v);
  j.Close().OpenArray("steal_by_subwindow");
  for (double v : bin.steal) j.Num(nullptr, v);
  j.Close().OpenArray("cpu_us_per_txn_by_subwindow");
  for (const SubWindowCpu& c : bin.cpu) j.Num(nullptr, c.process_us_per_txn);
  j.Close().OpenArray("agent_us_per_txn_by_subwindow");
  for (const SubWindowCpu& c : bin.cpu) j.Num(nullptr, c.agent_us_per_txn);
  j.Close().OpenArray("background_us_per_txn_by_subwindow");
  for (const SubWindowCpu& c : bin.cpu) j.Num(nullptr, c.background_us_per_txn);
  j.Close().Open("counters");
  for (size_t i = 0; i < slidb::kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (bin.counters.Get(c) != 0) {
      j.Int(slidb::CounterName(c), bin.counters.Get(c));
    }
  }
  j.Close()
      .Int("log_bytes", bin.log_bytes)
      .Int("log_flushes", bin.log_flushes)
      .Int("buffer_fixes", bin.buffer.fixes)
      .Int("buffer_misses", bin.buffer.misses)
      .Int("buffer_writebacks", bin.buffer.writebacks)
      .Close();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: oltpbench --workload tm1|tpcb|flash-sale --seed N "
                 "--seconds S --trace 0|1 [--out FILE] [--source-id ID]\n");
    return 2;
  }
  std::unique_ptr<BenchWorkload> workload = MakeWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "oltpbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  slidb::CyclesPerNano();  // calibrate now, not inside a timed section

  const double wake_p99_us = HostWakeP99Us(kProbeNs);

  // Engine defaults, except: the paper's SLI policy, a pool sized to the
  // workload, no log file, no simulated delays, and synchronous commits,
  // so Commit's return is the durable acknowledgement.
  slidb::DatabaseOptions options;
  options.buffer.num_frames = workload->pool_frames();
  options.buffer.simulated_io_delay_us = 0;
  options.log.simulated_io_delay_us = 0;
  options.lock.sim_queue_work_ns = 0;
  options.txn.speculative_reads = false;

  slidb::ThreadProfile setup_profile;
  std::optional<slidb::ScopedThreadProfile> setup_scope;
  if (args.trace) setup_scope.emplace(&setup_profile);
  std::unique_ptr<Database> db;
  std::vector<double> open_s, load_s, setup_s;
  // The gated memory figure: the highest resident set less the Volume
  // through set-up and warm-up, sampled after each set-up and as the window
  // opens. It leaves out what the window adds, because that follows
  // throughput: tpcb keeps a page lock head per history page it appends.
  double program_mb = 0;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    const uint64_t t0 = NowNanos();
    db = std::make_unique<Database>(options);
    db->SetSliMode(slidb::SliMode::kOn);
    const uint64_t t1 = NowNanos();
    workload->Load(*db);
    const uint64_t t2 = NowNanos();
    open_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    load_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    program_mb = std::max(program_mb, ProgramMb(*db));
  }
  setup_scope.reset();
  workload->Baseline(*db);

  Run run(args, *workload, *db,
          static_cast<int>(args.seconds * 1'000'000'000ULL / kSubWindowNs));
  const std::vector<Mark> marks = run.Measure();

  Effects effects;
  for (const AgentSlot& s : run.slots) effects += s.effects;
  auto checker = db->CreateAgent(/*seed=*/99);
  const std::string check = workload->Check(*db, *checker, effects);
  const bool correct = check.empty();

  std::vector<size_t> all, traced_w, untraced_w;
  for (int w = 0; w < run.subwindows; ++w) {
    all.push_back(w);
    (run.Traced(w) ? traced_w : untraced_w).push_back(w);
  }
  const Bin window = Aggregate(run, marks, all);
  // A trace run splits the window; an untraced one is all untraced.
  const Bin untraced = args.trace ? Aggregate(run, marks, untraced_w) : Bin{};
  const Bin traced = args.trace ? Aggregate(run, marks, traced_w) : Bin{};
  const Outcomes reported = ReportedOutcomes(window.outcomes, correct);
  uint64_t retries = 0;
  for (const AgentSlot& s : run.slots) retries += s.session->retries();
  program_mb = std::max(program_mb, marks.front().program_mb);
  const double growth_mb = marks.back().program_mb - marks.front().program_mb;
  const HostTicks host_ticks{
      marks.back().host.steal - marks.front().host.steal,
      marks.back().host.total - marks.front().host.total};

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(run, traced, untraced, Median(open_s),
                              Median(load_s), setup_profile.Snapshot(),
                              wake_p99_us);
    metrics.push_back(
        {"host.steal_frac",
         Ratio(static_cast<double>(host_ticks.steal),
               static_cast<double>(host_ticks.total)),
         "frac"});
    metrics.push_back(
        {"memory.growth_bytes_per_txn",
         Ratio(growth_mb * (1 << 20),
               static_cast<double>(window.outcomes.completed())),
         "bytes/txn"});
  } else {
    metrics = {{"latency_p50_us", window.latency_p50_us(), "us"},
               {"cpu_us_per_txn", window.cpu_us_per_txn(), "us"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mb", program_mb, "MB"}};
  }

  if (!args.out.empty()) {
    Json j;
    j.Open().Open("provenance")
        .Str("source_id", args.source_id)
        .Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
        .Str("build_flags", OLTPBENCH_BUILD_FLAGS)
        .Str("workload", args.workload)
        .Int("seed", args.seed)
        .Int("seconds", static_cast<uint64_t>(args.seconds))
        .Bool("trace", args.trace)
        .Int("agents", kAgents)
        .Int("pool_frames", workload->pool_frames())
        .Num("subwindow_s", kSubWindowNs / 1e9)
        .Num("warmup_s", kWarmupNs / 1e9)
        .Int("setups", kSetups)
        .Str("sli_mode", slidb::SliModeName(slidb::SliMode::kOn))
        .Open("dataset");
    for (const auto& [name, n] : workload->dataset()) j.Int(name.c_str(), n);
    j.Close().Close();
    j.Bool("correct", correct).Str("check", check)
        .Int("attempted", reported.attempted())
        .Int("failed", reported.failed)
        .Int("retries", retries)
        .Num("program_mb_window_start", program_mb)
        .Num("program_mb_window_end", marks.back().program_mb)
        .Num("vm_hwm_mb", StatusMb("VmHWM"))
        .Num("volume_mb", VolumeMb(*db))
        .Num("host_steal_frac",
             Ratio(static_cast<double>(host_ticks.steal),
                   static_cast<double>(host_ticks.total)))
        .Num("host_wake_p99_us", wake_p99_us);
    j.OpenArray("setup_s");
    for (double v : setup_s) j.Num(nullptr, v);
    j.Close();
    WriteMetrics(j, "metrics", metrics);
    WriteBin(j, "window", window);
    if (args.trace) {
      WriteBin(j, "untraced", untraced);
      WriteBin(j, "traced", traced);
      WriteSpans(j, run);
    }
    j.Close();
    std::ofstream out(args.out);
    out << j.str() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "oltpbench: cannot write %s\n", args.out.c_str());
      return 1;
    }
  }

  if (!correct) {
    std::fprintf(stderr, "oltpbench: output check failed: %s\n",
                 check.c_str());
  }
  std::fprintf(stderr,
               "oltpbench: %s seed %" PRIu64 ": %" PRIu64 " attempted, %" PRIu64
               " failed, %.0f tps, wake p99 %.1f us\n",
               args.workload.c_str(), args.seed, reported.attempted(),
               reported.failed,
               Ratio(static_cast<double>(window.outcomes.completed()),
                     window.wall_s),
               wake_p99_us);
  Json result;
  result.Open()
      .Bool("correct", correct)
      .Int("attempted", reported.attempted())
      .Int("failed", reported.failed);
  WriteMetrics(result, "metrics", metrics);
  result.Close();
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace oltpbench

int main(int argc, char** argv) { return oltpbench::Main(argc, argv); }
