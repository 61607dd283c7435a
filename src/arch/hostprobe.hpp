// Microbenchmarks that measure this host's ceilings at runtime: peak FMA
// throughput, vectorized sincos throughput (our vmath library), and
// streaming memory bandwidth. The results parameterize the "host" Machine
// so measured kernel runs can be placed on the same rooflines as the
// modeled 2017 machines.
#pragma once

#include <string>

namespace idg::arch {

struct HostCapabilities {
  double fma_per_second = 0.0;     ///< measured peak FMA/s (all cores)
  double sincos_per_second = 0.0;  ///< measured vmath sincos/s (all cores)
  double mem_bw_gbs = 0.0;         ///< measured streaming bandwidth
  int nr_threads = 1;
};

/// Runs the microbenchmarks (~0.2 s total). Results are cached after the
/// first call.
const HostCapabilities& probe_host();

/// Stable identity string of this host (uname machine + CPU model name +
/// hardware thread count). Deliberately timing-free — unlike probe_host()
/// it is identical run to run — so it keys the per-host tuning database
/// (kernels/autotune.hpp, which this delegates to).
std::string host_fingerprint();

/// Hardware perf-counter access on this host (DESIGN.md §15).
///
/// Deliberately NOT folded into host_fingerprint(): counter access varies
/// with kernel settings and container privileges, and must not invalidate
/// a host's idg-tune/v2 database — the machine is the same machine whether
/// or not we may watch its counters.
struct PerfCounterStatus {
  int paranoid_level = 0;  ///< /proc/sys/kernel/perf_event_paranoid
                           ///  (obs::kPerfParanoidUnknown when unreadable)
  bool available = false;  ///< a counter group actually opened
  std::string detail;      ///< counter list, or the refusal reason
};

/// Probes (and caches) counter availability by opening a trial group via
/// obs::probe_perf_counters(). Reported by bench_table1_machines next to
/// the measured ceilings.
const PerfCounterStatus& host_perf_counter_status();

}  // namespace idg::arch
