// A scripted group-commit interleaving shared by the log tests: one pass
// is held inside the device write while more committers queue behind it.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/log/log_manager.h"
#include "src/util/time_util.h"

namespace slidb {

/// A flush_sink that blocks its first call until Open(): holds one pass
/// inside the device write — and so the flush role — while a test lines up
/// committers behind it.
struct FirstPassGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;
  int calls = 0;

  void Install(LogOptions* o) {
    o->flush_sink = [this](const uint8_t*, size_t, Lsn) {
      std::unique_lock<std::mutex> lk(mu);
      if (calls++ > 0) return;
      entered = true;
      cv.notify_all();
      cv.wait(lk, [this] { return open; });
    };
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return entered; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> g(mu);
      open = true;
    }
    cv.notify_all();
  }
};

struct HeldPassResult {
  uint64_t records = 0;
  uint64_t flushes = 0;
  uint64_t release_ns = 0;  ///< gate open -> every follower returned
};

/// The script: one committer's pass is held inside the sink; three more
/// each append a commit record and wait for durability; the gate opens
/// only after all three appends returned. The held pass cannot cover them,
/// so exactly one more pass must harden all three — run by one of them,
/// not by the background flusher's timer. Every wait must end durable.
inline HeldPassResult RunHeldPassScript(uint64_t flush_interval_us) {
  FirstPassGate gate;
  LogOptions o;
  o.flush_interval_us = flush_interval_us;
  gate.Install(&o);
  LogManager log(o);
  std::thread first([&] {
    const Lsn lsn = log.Append(1, LogRecordType::kCommit, nullptr, 0);
    log.WaitDurable(lsn);
    EXPECT_GE(log.durable_lsn(), lsn);
  });
  gate.AwaitEntered();
  std::atomic<int> appended{0};
  std::vector<std::thread> followers;
  for (int t = 0; t < 3; ++t) {
    followers.emplace_back([&, t] {
      const Lsn lsn = log.Append(2 + t, LogRecordType::kCommit, nullptr, 0);
      appended.fetch_add(1);
      log.WaitDurable(lsn);
      EXPECT_GE(log.durable_lsn(), lsn);
    });
  }
  while (appended.load() < 3) std::this_thread::yield();
  const uint64_t opened_ns = NowNanos();
  gate.Open();
  for (auto& th : followers) th.join();
  HeldPassResult r;
  r.release_ns = NowNanos() - opened_ns;
  first.join();
  const LogStats stats = log.Stats();
  r.records = stats.records;
  r.flushes = stats.flushes;
  return r;
}

}  // namespace slidb
