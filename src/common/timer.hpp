// Wall-clock stopwatch. Per-stage times go through the observability
// layer instead (obs::Span into an obs::MetricsSink, src/obs/).
#pragma once

#include <chrono>

namespace idg {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace idg
