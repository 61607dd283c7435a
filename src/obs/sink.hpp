// Pluggable metric sinks.
//
// A `MetricsSink` receives the measurements of completed `obs::Span`s and
// the analytic op/byte counters the pipelines attribute to each stage. All
// bundled sinks are thread-safe: the kernel streams and adder thread of
// `PipelinedProcessor` record into one shared sink concurrently and the
// result is a single coherent view (the paper's Fig 7 pipeline reports the
// same per-stage totals as the synchronous Fig 4 pipeline).
#pragma once

#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace idg::obs {

/// Receiver interface for span measurements and op counters.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  /// Records one completed span: `seconds` of wall time attributed to
  /// `stage`, counted as `invocations` invocations. A single-invocation
  /// record additionally contributes one sample to the stage's latency
  /// histogram (aggregating sinks); bulk records (`invocations != 1`)
  /// update the totals only, because the per-span latencies are unknown.
  virtual void record(std::string_view stage, double seconds,
                      std::uint64_t invocations = 1) = 0;

  /// Attributes analytic op/byte counters to `stage` (does not count as an
  /// invocation; call alongside record()).
  virtual void record_ops(std::string_view stage, const OpCounts& ops) = 0;

  /// Attributes `bytes` of actually-moved data to `stage` (accumulated into
  /// StageMetrics::moved_bytes). Default no-op so sinks that only care
  /// about wall time need not override it.
  virtual void record_bytes(std::string_view stage, std::uint64_t bytes) {
    (void)stage;
    (void)bytes;
  }

  /// Attributes data-quality counters to `stage`: `scrubbed` samples
  /// neutralized in place (flagged/non-finite, per bad_sample_policy) and
  /// `skipped` samples dropped wholesale with their work group. Default
  /// no-op, like record_bytes().
  virtual void record_data_quality(std::string_view stage,
                                   std::uint64_t scrubbed,
                                   std::uint64_t skipped) {
    (void)stage;
    (void)scrubbed;
    (void)skipped;
  }

  /// Attributes measured hardware counter deltas to `stage` (DESIGN.md
  /// §15): the multiplex-scaled perf_event totals of one ScopedCounters
  /// window (obs/perfcounters.hpp). Only ever called while a
  /// PerfCounterSession is installed, so sinks that never see counters
  /// keep their flag-free output byte-identical. Default no-op, like
  /// record_bytes().
  virtual void record_hw(std::string_view stage, const HwCounters& hw) {
    (void)stage;
    (void)hw;
  }

  /// Attributes recovery counters to `stage` (the resilient supervisor's
  /// channel, DESIGN.md §12): `retried` work groups that succeeded after at
  /// least one failed attempt, `quarantined` work groups dropped after
  /// exhausting their attempts, and `failovers` whole-backend switches.
  /// Default no-op, like record_bytes().
  virtual void record_recovery(std::string_view stage, std::uint64_t retried,
                               std::uint64_t quarantined,
                               std::uint64_t failovers) {
    (void)stage;
    (void)retried;
    (void)quarantined;
    (void)failovers;
  }

  /// Attributes shard coordination counters to `stage` (the multi-process
  /// coordinator's channel, DESIGN.md §16): worker pool lifecycle, shard
  /// rebalance/quarantine decisions and the in-order merge wall time.
  /// Default no-op, like record_bytes().
  virtual void record_shard(std::string_view stage,
                            const ShardCounters& shard) {
    (void)stage;
    (void)shard;
  }

  /// Attributes multi-tenant job-server counters to `stage` (the idg-server
  /// daemon's channel, DESIGN.md §17): admission/rejection outcomes,
  /// terminal job states, queue depth peak and the drain outcome. Default
  /// no-op, like record_bytes().
  virtual void record_server(std::string_view stage,
                             const ServerCounters& server) {
    (void)stage;
    (void)server;
  }
};

/// Discards everything. Used as the default when a caller does not care
/// about metrics.
class NullSink final : public MetricsSink {
 public:
  void record(std::string_view, double, std::uint64_t = 1) override {}
  void record_ops(std::string_view, const OpCounts&) override {}
};

/// The process-wide shared NullSink instance (stateless, safe to share).
MetricsSink& null_sink();

/// In-memory aggregate: accumulates per-stage metrics under a mutex and
/// hands out consistent snapshots.
class AggregateSink : public MetricsSink {
 public:
  void record(std::string_view stage, double seconds,
              std::uint64_t invocations = 1) override;
  void record_ops(std::string_view stage, const OpCounts& ops) override;
  void record_bytes(std::string_view stage, std::uint64_t bytes) override;
  void record_data_quality(std::string_view stage, std::uint64_t scrubbed,
                           std::uint64_t skipped) override;
  void record_hw(std::string_view stage, const HwCounters& hw) override;
  void record_recovery(std::string_view stage, std::uint64_t retried,
                       std::uint64_t quarantined,
                       std::uint64_t failovers) override;
  void record_shard(std::string_view stage,
                    const ShardCounters& shard) override;
  void record_server(std::string_view stage,
                     const ServerCounters& server) override;

  /// Consistent copy of the current aggregated state.
  MetricsSnapshot snapshot() const;

  /// Merges a whole snapshot in one critical section (bulk hand-off from a
  /// thread-local accumulator).
  void merge(const MetricsSnapshot& other);

  /// Accumulated wall seconds of one stage (0 if never recorded).
  double seconds(const std::string& stage) const;

  /// Sum of wall seconds over all stages.
  double total_seconds() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  MetricsSnapshot metrics_;
};

}  // namespace idg::obs
