// Hardware perf_event counter sampling (DESIGN.md §15).
//
// The analytic op/byte counters (src/idg/accounting.cpp) say what a stage
// *should* execute and move; this module measures what the hardware
// actually did. A PerfCounterSession opens one grouped set of Linux
// perf_event counters per thread — cycles, instructions, LLC loads and
// misses, stalled-cycles-backend as one group under the cycles leader
// (read atomically with PERF_FORMAT_GROUP), plus a software task clock —
// and ScopedCounters reads the group at scope entry and exit, attributing
// the multiplex-scaled delta to the enclosing obs::Span's stage via
// MetricsSink::record_hw. arch/attribution joins those measured totals
// against the analytic counts (idg-roofline/v2).
//
// Multiplexing: when the PMU has fewer slots than the group asks for, the
// kernel time-slices the group and reports time_enabled > time_running.
// Deltas are extrapolated by enabled/running (scale_multiplexed below, the
// same estimate `perf stat` prints), and the scaling bookkeeping is kept in
// HwCounters::time_{enabled,running}_ns so consumers can see how much was
// extrapolated.
//
// Availability is strictly best-effort and a run NEVER fails because
// counters are absent:
//   * the CMake option IDG_PERF_COUNTERS=OFF (or a non-Linux build)
//     compiles the stub: open() returns nullptr with a named reason;
//   * /proc/sys/kernel/perf_event_paranoid is probed at session open and
//     reported (level >= 2 usually masks unprivileged per-thread
//     measurement in containers and CI; some kernels use 3+);
//   * the IDG_PERF_DISABLE environment variable forces the stub path
//     (tests and CI use it to pin the degraded behavior);
//   * a member counter the PMU cannot host (e.g. LLC events on some VMs)
//     is simply absent — its totals stay 0 while the rest of the group
//     still measures.
// With no session installed the per-span cost is one relaxed atomic load,
// mirroring obs/trace.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"

namespace idg::obs {

/// Extrapolates a multiplexed raw count to the full enabled window:
/// raw * enabled / running, rounded to nearest. A group that never ran
/// (running == 0) counted nothing — the result is 0 regardless of raw —
/// and a group that ran the whole window (running >= enabled) needs no
/// scaling.
std::uint64_t scale_multiplexed(std::uint64_t raw, std::uint64_t enabled_ns,
                                std::uint64_t running_ns);

/// perf_event_paranoid level meaning "could not be read" (missing procfs
/// entry, non-Linux build).
inline constexpr int kPerfParanoidUnknown = -1000;

/// Result of probing this process's ability to open counters.
struct PerfProbe {
  int paranoid_level = kPerfParanoidUnknown;  ///< /proc/sys/kernel value
  bool available = false;  ///< a cycles counter actually opened
  std::string detail;      ///< "ok" or the named reason counters are off
};

/// Probes /proc/sys/kernel/perf_event_paranoid and attempts to open (and
/// immediately close) a minimal cycles counter on the calling thread.
/// Never throws; the stub build reports available = false with the reason.
PerfProbe probe_perf_counters();

/// The counter slots of one group, in open order.
enum HwCounterIndex : std::size_t {
  kHwCycles = 0,
  kHwInstructions,
  kHwLlcLoads,
  kHwLlcMisses,
  kHwStalledBackend,
  kNrHwCounters,
};

/// One open session of grouped counters. Each thread that samples gets its
/// own counter group, opened lazily on first use and owned by the session
/// (closed in the destructor). The session must outlive every thread still
/// sampling through it — install/uninstall around joined work, exactly
/// like TraceSink.
class PerfCounterSession {
 public:
  /// One raw reading of the calling thread's group, unscaled.
  struct RawSample {
    bool valid = false;
    std::uint64_t time_enabled_ns = 0;
    std::uint64_t time_running_ns = 0;
    std::array<std::uint64_t, kNrHwCounters> value{};
    std::array<bool, kNrHwCounters> present{};
    std::uint64_t task_clock_ns = 0;
    bool task_clock_present = false;
  };

  /// Opens a session, or returns nullptr with the reason in *why (stub
  /// build, IDG_PERF_DISABLE set, or the syscall refused — typically
  /// perf_event_paranoid masking unprivileged access).
  static std::unique_ptr<PerfCounterSession> open(std::string* why = nullptr);

  ~PerfCounterSession();

  PerfCounterSession(const PerfCounterSession&) = delete;
  PerfCounterSession& operator=(const PerfCounterSession&) = delete;

  /// Reads the calling thread's counter group now (opening it on first
  /// use). Returns false — and out.valid = false — when the group could
  /// not be opened on this thread.
  bool sample_now(RawSample& out);

  /// Opens the calling thread's group without reading it, so the first
  /// span on a fresh stage thread is not charged the fd-open cost (and its
  /// counter window does not include it). No-op when already open.
  void prepare_thread();

  /// The multiplex-scaled delta between two samples of the SAME thread's
  /// group: each counter's raw delta is extrapolated by the window's
  /// enabled/running ratio (pure math — tests feed synthetic samples).
  /// The result carries samples = 1 when both inputs are valid, else 0.
  static HwCounters delta(const RawSample& begin, const RawSample& end);

  /// The paranoid level observed when the session opened.
  int paranoid_level() const { return paranoid_level_; }

  /// Which counters this host actually hosts ("cycles,instructions,...").
  std::string counter_list() const;

 private:
  struct ThreadCounters;

  PerfCounterSession();

  ThreadCounters* thread_counters();

  const std::uint64_t id_;
  int paranoid_level_ = kPerfParanoidUnknown;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-global session, or nullptr when counter sampling is off
/// (the default; the check is one relaxed atomic load).
PerfCounterSession* global_perf_session();

/// Installs (or, with nullptr, removes) the process-global session. The
/// session must outlive its installation.
void set_global_perf_session(PerfCounterSession* session);

/// Opens the calling thread's counter group of the global session, if one
/// is installed (no-op otherwise). The pipelined stage threads call this
/// on startup so their first work-group window is clean.
void warm_thread_counters();

/// RAII counter window over the global session. Constructed by obs::Span
/// (so every span site measures automatically while a session is
/// installed) and usable standalone around any scope. A default
/// construction with no session installed is a guaranteed no-op.
class ScopedCounters {
 public:
  ScopedCounters() : ScopedCounters(global_perf_session()) {}
  explicit ScopedCounters(PerfCounterSession* session) : session_(session) {
    if (session_ != nullptr) session_->sample_now(begin_);
  }

  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

  /// True when the window is measuring (session live and the thread's
  /// group opened).
  bool active() const { return session_ != nullptr && begin_.valid; }

  /// Ends the window: on the first call with an active window, fills
  /// `out` with the scaled delta and returns true; otherwise false.
  /// Idempotent — later calls return false.
  bool stop(HwCounters& out) {
    if (!active()) return false;
    PerfCounterSession::RawSample end;
    session_->sample_now(end);
    session_ = nullptr;
    if (!end.valid) return false;
    out = PerfCounterSession::delta(begin_, end);
    return out.samples != 0;
  }

 private:
  PerfCounterSession* session_;
  PerfCounterSession::RawSample begin_{};
};

}  // namespace idg::obs
