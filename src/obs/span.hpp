// RAII tracing spans.
//
// A `Span` measures the wall time of one scope and records it (plus one
// invocation) into a MetricsSink on destruction. Spans are cheap enough to
// wrap one work-group stage execution (one mutex acquisition per span on
// the bundled sinks); they are NOT meant for per-visibility scopes.
//
// When a global TraceSink is installed (obs/trace.hpp), every span also
// emits a timeline event on the calling thread's track, tagged with the
// work-group id passed at construction — this is how the Fig 7 stage
// overlap shows up in the exported Chrome trace. Without a global trace
// the extra cost is one relaxed atomic load per span.
//
// When a global PerfCounterSession is installed (obs/perfcounters.hpp,
// DESIGN.md §15), every span additionally reads the calling thread's
// grouped hardware counters at entry and exit and attributes the
// multiplex-scaled delta to its stage via MetricsSink::record_hw — plus
// hw:ipc / hw:llc-miss-rate counter tracks (per-mille) on the timeline
// when tracing is also on. Without a session the extra cost is, again,
// one relaxed atomic load.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/timer.hpp"
#include "obs/perfcounters.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace idg::obs {

/// Records the scope's wall time into `sink` under `stage`.
class Span {
 public:
  /// `group` tags the span with the work-group id it executed (-1 = none);
  /// it becomes the "group" argument of the trace timeline event.
  Span(MetricsSink& sink, std::string stage, std::int64_t group = -1)
      : sink_(&sink),
        stage_(std::move(stage)),
        group_(group),
        trace_(global_trace()) {
    if (trace_ != nullptr) trace_begin_ns_ = trace_->now_ns();
  }

  ~Span() { stop(); }

  /// Ends the span early (idempotent; the destructor becomes a no-op).
  void stop() {
    if (sink_ == nullptr) return;
    // Close the counter window first so the trace/sink bookkeeping below
    // is not charged to the hardware counters.
    HwCounters hw;
    const bool have_hw = hw_.stop(hw);
    if (trace_ != nullptr) {
      trace_->record_span(trace_->intern(stage_), trace_begin_ns_,
                          trace_->now_ns() - trace_begin_ns_, group_);
      if (have_hw) {
        // Per-mille: the trace counter tracks carry integers.
        trace_->record_counter(trace_->intern("hw:ipc"),
                               std::llround(hw.ipc() * 1000.0));
        trace_->record_counter(trace_->intern("hw:llc-miss-rate"),
                               std::llround(hw.llc_miss_rate() * 1000.0));
      }
    }
    sink_->record(stage_, timer_.seconds());
    if (have_hw) sink_->record_hw(stage_, hw);
    sink_ = nullptr;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricsSink* sink_;
  std::string stage_;
  std::int64_t group_;
  TraceSink* trace_;
  std::int64_t trace_begin_ns_ = 0;
  // Declared before timer_ so the counter read happens before the wall
  // clock starts: the fd read cost sits outside the timed window.
  ScopedCounters hw_;
  Timer timer_;
};

}  // namespace idg::obs
