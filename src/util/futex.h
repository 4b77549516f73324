// Timed futex wait on a 32-bit atomic word (Linux): the deadline form that
// std::atomic::wait lacks.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <ctime>

namespace slidb {

/// Sleep while `word` reads `expected`, at the latest until `deadline_ns`
/// (NowNanos, i.e. CLOCK_MONOTONIC). May return early; callers re-check.
inline void FutexWaitUntil(const std::atomic<uint32_t>& word,
                           uint32_t expected, uint64_t deadline_ns) {
  const timespec ts{static_cast<time_t>(deadline_ns / 1'000'000'000),
                    static_cast<long>(deadline_ns % 1'000'000'000)};
  syscall(SYS_futex, &word, FUTEX_WAIT_BITSET_PRIVATE, expected, &ts,
          nullptr, FUTEX_BITSET_MATCH_ANY);
}

/// Wake one FutexWaitUntil sleeper. By address, like notify_one: safe after
/// the word's owner has moved on.
inline void FutexWake(const std::atomic<uint32_t>& word) {
  syscall(SYS_futex, &word, FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

}  // namespace slidb
