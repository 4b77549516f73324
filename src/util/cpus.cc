#include "src/util/cpus.h"

#include <sched.h>

#include <atomic>

namespace slidb {

namespace {

std::atomic<unsigned> g_forced_cpus{0};

unsigned MeasureUsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

}  // namespace

unsigned UsableCpus() {
  const unsigned forced = g_forced_cpus.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const unsigned measured = MeasureUsableCpus();
  return measured;
}

void SetUsableCpusForTesting(unsigned n) {
  g_forced_cpus.store(n, std::memory_order_relaxed);
}

}  // namespace slidb
