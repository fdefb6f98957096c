// Per-process resource series for /metrics: CPU time and resident memory of
// the process hosting a registry, read at scrape time from the kernel. They
// let a throughput or memory figure say which process paid for it.
#pragma once

#include "stats/registry.hpp"

namespace pocc::stats {

/// Registers on `r`, as scrape-time callbacks:
///   pocc_process_cpu_us_total         CPU time, all threads, in us
///                                     (CLOCK_PROCESS_CPUTIME_ID);
///   pocc_process_resident_bytes       VmRSS of /proc/self/status;
///   pocc_process_peak_resident_bytes  VmHWM of /proc/self/status.
/// A figure that cannot be read reports 0.
void register_process_metrics(Registry& r);

}  // namespace pocc::stats
