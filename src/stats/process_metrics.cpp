#include "stats/process_metrics.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace pocc::stats {
namespace {

std::uint64_t process_cpu_us() {
  timespec ts{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

/// Value of a "<field>: <n> kB" line of /proc/self/status, in bytes.
std::int64_t status_kb_field(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t len = std::strlen(field);
  long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      if (std::sscanf(line + len + 1, "%lld", &kb) != 1) kb = 0;
      break;
    }
  }
  std::fclose(f);
  return static_cast<std::int64_t>(kb) * 1024;
}

}  // namespace

void register_process_metrics(Registry& r) {
  r.counter_fn("pocc_process_cpu_us_total", {}, process_cpu_us,
               "CPU time used by this process, all threads (us)");
  r.gauge_fn("pocc_process_resident_bytes", {},
             [] { return status_kb_field("VmRSS"); },
             "Resident set size (VmRSS)");
  r.gauge_fn("pocc_process_peak_resident_bytes", {},
             [] { return status_kb_field("VmHWM"); },
             "Peak resident set size (VmHWM)");
}

}  // namespace pocc::stats
