// The number of CPUs this process may run on.
#pragma once

namespace slidb {

/// CPU_COUNT of the process's sched_getaffinity mask, measured once (at
/// least 1). Unlike std::thread::hardware_concurrency(), it honours taskset
/// and cpuset limits: a 4-CPU host under `taskset -c 0` gives 1.
unsigned UsableCpus();

/// Test seam: make UsableCpus() return `n`; 0 restores the measured count.
void SetUsableCpusForTesting(unsigned n);

}  // namespace slidb
