// Shared pieces of the perfbench binary: run options, the metric record,
// sample statistics, the benchmark's own span recorder, and the per-call
// timing decorator that wraps any GridderBackend.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "idg/backend.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny problem sizes: the self-test's fast pass through every code path.
  bool tiny = false;
};

/// Directory for traces, result files and the service socket, relative to
/// the working directory (the repository root).
inline constexpr const char* kRunDir = ".bench_run";

/// One emitted metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): its metrics, the operations it
/// attempted and how many failed (errors, rejections and incorrect
/// outputs), and free-form facts for the result file's context block.
struct WorkloadResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t problems = 0;         ///< failure events noted so far
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, std::string> context;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Notes one failure event (an error, a rejection, a wrong output).
  void problem(const std::string& why) {
    ++problems;
    if (failures.size() < 8) failures.push_back(why);
  }
  /// Counts one attempted operation, failed when problem() was called
  /// since `mark` (the value of `problems` when the operation began).
  void count(std::uint64_t mark) {
    ++attempted;
    if (problems != mark) ++failed;
  }
};

// --- sample statistics ------------------------------------------------------

double median(std::vector<double> values);

/// Sets job_tail_s to the highest percentile of `latencies` that still has
/// at least ten samples above it (the median when there are fewer than
/// eleven), and records which percentile in the context block.
void set_tail_latency(std::vector<double> latencies, WorkloadResult& result);

/// Peak resident set of this process so far in MB (ru_maxrss).
double peak_rss_mb();

/// ru_maxrss of the largest reaped child in MB. A forked child's figure
/// includes the parent pages it shared until exec.
double children_peak_rss_mb();

// --- the benchmark's own spans ---------------------------------------------

/// Records spans around layer calls made by the benchmark's code. Spans
/// nest per thread; each span's self time (duration minus the time its
/// child spans cover) accumulates under its name. When a global TraceSink
/// is installed the spans are also written to it, so the Chrome trace
/// shows them next to the library's own stage spans.
class Tracer {
 public:
  /// Recording is off until enable(); a disabled tracer costs one branch.
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread.
  class Scope {
   public:
    /// A null tracer (or a disabled one) records nothing.
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point begin_;
    double child_seconds_ = 0.0;
    Scope* parent_ = nullptr;
  };

  /// A leaf span measured elsewhere (e.g. from protocol timestamps).
  void add(const char* name, Clock::time_point begin, Clock::time_point end);

  /// Self seconds and span count per name since the last reset().
  struct Totals {
    double self_seconds = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;
  double total_self_seconds() const;
  void reset();

 private:
  void finish(const char* name, Clock::time_point begin,
              Clock::time_point end, double self_seconds);

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::map<std::string, Totals> totals_;
};

// --- per-call timing decorator ----------------------------------------------

/// Begin and end of one timed call.
struct Interval {
  Clock::time_point begin;
  Clock::time_point end;
};

/// Per-call measurements of one or more grid/degrid calls.
struct CallLog {
  std::vector<double> grid_seconds;
  std::vector<double> degrid_seconds;
  std::vector<double> grid_mvis_s;
  std::vector<double> degrid_mvis_s;
  std::vector<Interval> grid_calls;
  std::vector<Interval> degrid_calls;

  void clear() { *this = CallLog{}; }
};

/// Called after every wrapped call (outside the timed interval) with the
/// call's kind, its index within the current job, and its output bytes.
enum class CallKind { kGrid, kDegrid };
using OutputCheck = std::function<void(CallKind, std::size_t index,
                                       const void* data, std::size_t bytes)>;

/// A GridderBackend decorator that times the inner backend's grid() and
/// degrid() calls: two clock reads per call. Planned visibilities divided by
/// the call's wall time give its MVis/s, so an unmodified run_major_cycles
/// reports per-call throughput. An optional OutputCheck sees every call's
/// output (reference capture or comparison), and an enabled Tracer gets an
/// "exec.grid" / "exec.degrid" span per call.
class TimedBackend final : public idg::GridderBackend {
 public:
  TimedBackend(const idg::GridderBackend& inner, CallLog& log,
               Tracer* tracer = nullptr)
      : inner_(&inner), log_(&log), tracer_(tracer) {}

  /// Numbers calls from 0 per decorator, so wrap each job separately.
  void set_check(OutputCheck check) { check_ = std::move(check); }

  std::string name() const override { return "timed:" + inner_->name(); }
  const idg::Parameters& parameters() const override {
    return inner_->parameters();
  }

  using GridderBackend::grid;
  using GridderBackend::degrid;
  void grid(const idg::Plan& plan, idg::ArrayView<const idg::UVW, 2> uvw,
            idg::ArrayView<const idg::Visibility, 3> visibilities,
            idg::FlagView flags, idg::ArrayView<const idg::Jones, 4> aterms,
            idg::ArrayView<idg::cfloat, 3> grid, idg::obs::MetricsSink& sink,
            const idg::RunControl& ctl) const override;
  void degrid(const idg::Plan& plan, idg::ArrayView<const idg::UVW, 2> uvw,
              idg::ArrayView<const idg::cfloat, 3> grid, idg::FlagView flags,
              idg::ArrayView<const idg::Jones, 4> aterms,
              idg::ArrayView<idg::Visibility, 3> visibilities,
              idg::obs::MetricsSink& sink,
              const idg::RunControl& ctl) const override;

 private:
  const idg::GridderBackend* inner_;
  CallLog* log_;
  Tracer* tracer_;
  OutputCheck check_;
  mutable std::size_t grid_calls_ = 0;
  mutable std::size_t degrid_calls_ = 0;
};

// --- workloads ----------------------------------------------------------------

/// Runs one in-process imaging workload ("cycle-long", "wide-field",
/// "sharded"); throws idg::Error for an unknown name.
WorkloadResult run_imaging_workload(const RunOptions& options);

/// Runs the daemon workload ("service").
WorkloadResult run_service_workload(const RunOptions& options);

/// Strictly parses the Chrome trace at `path` and counts the benchmark's
/// spans in it; a trace that does not parse or holds none is a failure.
void check_chrome_trace(const std::string& path, WorkloadResult& result);

/// Name prefix of the benchmark's spans in the Chrome trace.
inline constexpr const char* kSpanPrefix = "bench:";

}  // namespace perfbench
