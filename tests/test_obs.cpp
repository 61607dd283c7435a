// Tests for the observability layer (src/obs/): sinks, spans, latency
// histograms, the timeline tracer, registry, exporters (golden-file schema
// pin), the BoundedQueue pipeline primitive, backend factory/parity, and
// descriptive parameter validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.hpp"
#include "golden_snapshot.hpp"
#include "idg/backend.hpp"
#include "idg/parameters.hpp"
#include "idg/pipelined.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/wplane.hpp"
#include "json_mini.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/perfcounters.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;

/// Installs a TraceSink for the test's scope and removes it on exit, so
/// tests never leak the process-global into each other.
class ScopedTrace {
 public:
  explicit ScopedTrace(std::size_t capacity = std::size_t{1} << 12)
      : sink_(capacity) {
    obs::set_global_trace(&sink_);
  }
  ~ScopedTrace() { obs::set_global_trace(nullptr); }
  obs::TraceSink& sink() { return sink_; }

 private:
  obs::TraceSink sink_;
};

// --- AggregateSink ------------------------------------------------------------

TEST(AggregateSinkTest, AccumulatesSecondsInvocationsAndOps) {
  obs::AggregateSink sink;
  sink.record("gridder", 1.0);
  sink.record("gridder", 0.5, 2);
  OpCounts ops;
  ops.fma = 17;
  ops.sincos = 1;
  sink.record_ops("gridder", ops);
  sink.record_ops("gridder", ops);

  const auto snapshot = sink.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const auto& m = snapshot.at("gridder");
  EXPECT_DOUBLE_EQ(m.seconds, 1.5);
  EXPECT_EQ(m.invocations, 3u);
  EXPECT_EQ(m.ops.fma, 34u);
  EXPECT_EQ(m.ops.sincos, 2u);
  EXPECT_DOUBLE_EQ(sink.seconds("gridder"), 1.5);
  EXPECT_DOUBLE_EQ(sink.seconds("absent"), 0.0);
  EXPECT_DOUBLE_EQ(sink.total_seconds(), 1.5);
}

TEST(AggregateSinkTest, MergeCombinesSnapshots) {
  obs::AggregateSink a, b;
  a.record("x", 1.0);
  b.record("x", 2.0);
  b.record("y", 3.0);
  a.merge(b.snapshot());
  EXPECT_DOUBLE_EQ(a.seconds("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.seconds("y"), 3.0);
  a.clear();
  EXPECT_TRUE(a.snapshot().empty());
}

TEST(AggregateSinkTest, ConcurrentRecordingIsLossless) {
  obs::AggregateSink sink;
  constexpr int kThreads = 8;
  constexpr int kRecords = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < kRecords; ++i) sink.record("stage", 0.001);
    });
  }
  for (auto& t : threads) t.join();
  const auto snapshot = sink.snapshot();
  EXPECT_EQ(snapshot.at("stage").invocations,
            static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_NEAR(snapshot.at("stage").seconds, kThreads * kRecords * 0.001,
              1e-9);
}

// --- Span ---------------------------------------------------------------------

TEST(SpanTest, RecordsOneInvocationWithNonNegativeTime) {
  obs::AggregateSink sink;
  { obs::Span span(sink, "work"); }
  const auto snapshot = sink.snapshot();
  EXPECT_EQ(snapshot.at("work").invocations, 1u);
  EXPECT_GE(snapshot.at("work").seconds, 0.0);
}

TEST(SpanTest, StopIsIdempotent) {
  obs::AggregateSink sink;
  {
    obs::Span span(sink, "work");
    span.stop();
    span.stop();  // second stop and the destructor must both be no-ops
  }
  EXPECT_EQ(sink.snapshot().at("work").invocations, 1u);
}

// --- LatencyHistogram ----------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundariesArePowersOfTwo) {
  using H = obs::LatencyHistogram;
  EXPECT_EQ(H::bucket_of_ns(0), 0u);
  EXPECT_EQ(H::bucket_of_ns(1), 1u);
  // For every bucket b >= 1: [2^(b-1), 2^b) ns lands in bucket b, and the
  // reported bounds bracket exactly that interval.
  for (std::size_t b = 1; b + 1 < H::kNrBuckets; ++b) {
    const std::uint64_t lo = H::lower_bound_ns(b);
    const std::uint64_t hi = H::upper_bound_ns(b);
    EXPECT_EQ(hi, 2 * lo);
    EXPECT_EQ(H::bucket_of_ns(lo), b) << "lower bound of bucket " << b;
    EXPECT_EQ(H::bucket_of_ns(hi - 1), b) << "last ns of bucket " << b;
    EXPECT_EQ(H::bucket_of_ns(hi), b + 1) << "upper bound opens bucket "
                                          << b + 1;
  }
  // Everything past the last boundary clamps into the overflow bucket.
  EXPECT_EQ(H::bucket_of_ns(~std::uint64_t{0}), H::kNrBuckets - 1);
  EXPECT_EQ(H::bucket_of_seconds(1e12), H::kNrBuckets - 1);
  EXPECT_EQ(H::bucket_of_seconds(-1.0), 0u);
}

TEST(LatencyHistogramTest, PercentilesInterpolateDeterministically) {
  obs::LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty histogram

  // 100 samples of ~1us: every percentile stays inside 1us's bucket.
  for (int i = 0; i < 100; ++i) h.add(1e-6);
  const std::size_t b = obs::LatencyHistogram::bucket_of_seconds(1e-6);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.percentile(q), obs::LatencyHistogram::lower_bound_seconds(b));
    EXPECT_LE(h.percentile(q), obs::LatencyHistogram::upper_bound_seconds(b));
  }
  EXPECT_LE(h.percentile(0.5), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));

  // A clear outlier drags p99 into a higher bucket than p50.
  h.add(1.0);
  EXPECT_GT(h.percentile(0.999), h.percentile(0.5));
  EXPECT_EQ(h.samples(), 101u);
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  obs::LatencyHistogram a, b, c;
  for (int i = 0; i < 5; ++i) a.add(1e-6);
  for (int i = 0; i < 7; ++i) b.add(1e-3);
  c.add(0.0);
  c.add(2.5);

  obs::LatencyHistogram ab_c = a;
  ab_c += b;
  ab_c += c;
  obs::LatencyHistogram bc = b;
  bc += c;
  obs::LatencyHistogram a_bc = a;
  a_bc += bc;
  EXPECT_EQ(ab_c, a_bc);

  obs::LatencyHistogram ba = b;
  ba += a;
  obs::LatencyHistogram ab = a;
  ab += b;
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab_c.samples(), 14u);
}

TEST(LatencyHistogramTest, SinkSamplesOnlySingleInvocationRecords) {
  obs::AggregateSink sink;
  sink.record("s", 0.5);      // single span -> sampled
  sink.record("s", 1.0, 4);   // bulk record -> totals only
  const auto m = sink.snapshot().at("s");
  EXPECT_EQ(m.invocations, 5u);
  EXPECT_DOUBLE_EQ(m.seconds, 1.5);
  EXPECT_EQ(m.latency.samples(), 1u);
}

// --- exporters (golden files) --------------------------------------------------

using idg::testgolden::golden_snapshot;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

TEST(ExportTest, JsonMatchesGoldenFile) {
  const std::string golden =
      read_file(std::string(IDG_TEST_GOLDEN_DIR) + "/metrics.json");
  EXPECT_EQ(obs::to_json(golden_snapshot()), golden);
}

TEST(ExportTest, CsvMatchesGoldenFile) {
  const std::string golden =
      read_file(std::string(IDG_TEST_GOLDEN_DIR) + "/metrics.csv");
  EXPECT_EQ(obs::to_csv(golden_snapshot()), golden);
}

TEST(ExportTest, EmptySnapshotIsValidJson) {
  const std::string json = obs::to_json({});
  EXPECT_NE(json.find("\"schema\": \"idg-obs/v8\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\": []"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\": 0"), std::string::npos);
  EXPECT_NO_THROW(testjson::parse(json));
}

TEST(ExportTest, JsonParsesAndCarriesLatencyPercentiles) {
  const auto doc = testjson::parse(obs::to_json(golden_snapshot()));
  EXPECT_EQ(doc.at("schema").string, "idg-obs/v8");
  const auto& stages = doc.at("stages");
  ASSERT_EQ(stages.array.size(), 5u);
  // Stages sort by name: adder (one sampled span), gridder (bulk), server
  // (daemon counters — the v8 addition), shard (coordinator counters —
  // the v7 addition), then supervisor (recovery counters only — the v5
  // addition).
  const auto& adder = stages.at(0);
  EXPECT_EQ(adder.at("name").string, "adder");
  const auto& latency = adder.at("latency");
  EXPECT_EQ(latency.at("samples").number, 1.0);
  EXPECT_GT(latency.at("p50").number, 0.0);
  EXPECT_LE(latency.at("p50").number, latency.at("p99").number);
  ASSERT_EQ(latency.at("buckets").array.size(), 1u);
  EXPECT_EQ(latency.at("buckets").at(0).at("count").number, 1.0);
  // The single 0.25 s sample's bucket brackets 0.25 s.
  EXPECT_GT(latency.at("buckets").at(0).at("le").number, 0.25);
  const auto& gridder = stages.at(1);
  EXPECT_EQ(gridder.at("latency").at("samples").number, 0.0);
  EXPECT_EQ(gridder.at("latency").at("buckets").array.size(), 0u);
  EXPECT_EQ(gridder.at("retried_work_groups").number, 0.0);
  const auto& server = stages.at(2);
  EXPECT_EQ(server.at("name").string, "server");
  const auto& server_block = server.at("server");
  EXPECT_EQ(server_block.at("jobs_admitted").number, 6.0);
  EXPECT_EQ(server_block.at("jobs_rejected").number, 3.0);
  EXPECT_EQ(server_block.at("queue_full_rejections").number, 1.0);
  EXPECT_EQ(server_block.at("quota_rejections").number, 2.0);
  EXPECT_EQ(server_block.at("jobs_completed").number, 3.0);
  EXPECT_EQ(server_block.at("jobs_checkpointed").number, 1.0);
  const auto& shard = stages.at(3);
  EXPECT_EQ(shard.at("name").string, "shard");
  const auto& shard_block = shard.at("shard");
  EXPECT_EQ(shard_block.at("workers_spawned").number, 4.0);
  EXPECT_EQ(shard_block.at("workers_respawned").number, 1.0);
  EXPECT_EQ(shard_block.at("shards_dispatched").number, 9.0);
  EXPECT_EQ(shard_block.at("shards_rebalanced").number, 2.0);
  EXPECT_EQ(shard_block.at("shards_quarantined").number, 1.0);
  EXPECT_EQ(shard_block.at("merge_seconds").number, 0.125);
  const auto& supervisor = stages.at(4);
  EXPECT_EQ(supervisor.at("name").string, "supervisor");
  EXPECT_EQ(supervisor.at("retried_work_groups").number, 2.0);
  EXPECT_EQ(supervisor.at("quarantined_work_groups").number, 1.0);
  EXPECT_EQ(supervisor.at("backend_failovers").number, 1.0);
}

TEST(ExportTest, EscapesStageNames) {
  obs::AggregateSink sink;
  sink.record("weird\"stage\\name", 1.0);
  const std::string json = obs::to_json(sink.snapshot());
  EXPECT_NE(json.find("\"weird\\\"stage\\\\name\""), std::string::npos);
}

// --- hardware perf_event counters (obs/perfcounters.hpp, DESIGN.md §15) -------

TEST(PerfCountersTest, MultiplexScalingMatchesSyntheticRatios) {
  // Ran the whole window: raw passes through unscaled.
  EXPECT_EQ(obs::scale_multiplexed(1000, 500, 500), 1000u);
  EXPECT_EQ(obs::scale_multiplexed(1000, 500, 800), 1000u);
  // Ran half the window: extrapolate by 2 (perf stat's estimate).
  EXPECT_EQ(obs::scale_multiplexed(1000, 1000, 500), 2000u);
  // One third, with rounding to nearest.
  EXPECT_EQ(obs::scale_multiplexed(100, 3000, 1000), 300u);
  EXPECT_EQ(obs::scale_multiplexed(1, 3, 2), 2u);  // 1.5 rounds up
  // Never scheduled: nothing was counted, whatever raw claims.
  EXPECT_EQ(obs::scale_multiplexed(1000, 500, 0), 0u);
  EXPECT_EQ(obs::scale_multiplexed(0, 1000, 500), 0u);
}

TEST(PerfCountersTest, DeltaAppliesScalingPerWindow) {
  using Raw = obs::PerfCounterSession::RawSample;
  Raw begin, end;
  begin.valid = end.valid = true;
  begin.time_enabled_ns = 1000;
  begin.time_running_ns = 1000;
  end.time_enabled_ns = 3000;   // window enabled 2000 ns...
  end.time_running_ns = 2000;   // ...but only counting for 1000 ns
  for (std::size_t i = 0; i < obs::kNrHwCounters; ++i) {
    begin.present[i] = end.present[i] = true;
    begin.value[i] = 100;
    end.value[i] = 100 + 50 * (i + 1);  // raw deltas 50, 100, 150, ...
  }
  begin.task_clock_present = end.task_clock_present = true;
  begin.task_clock_ns = 500;
  end.task_clock_ns = 2500;

  const obs::HwCounters hw = obs::PerfCounterSession::delta(begin, end);
  EXPECT_EQ(hw.samples, 1u);
  // Every group member extrapolated by enabled/running = 2.
  EXPECT_EQ(hw.cycles, 100u);
  EXPECT_EQ(hw.instructions, 200u);
  EXPECT_EQ(hw.llc_loads, 300u);
  EXPECT_EQ(hw.llc_misses, 400u);
  EXPECT_EQ(hw.stalled_cycles_backend, 500u);
  // The task clock lives on its own fd: delta is never scaled.
  EXPECT_EQ(hw.task_clock_ns, 2000u);
  EXPECT_EQ(hw.time_enabled_ns, 2000u);
  EXPECT_EQ(hw.time_running_ns, 1000u);
  EXPECT_DOUBLE_EQ(hw.multiplex_fraction(), 0.5);
}

TEST(PerfCountersTest, DeltaSkipsAbsentCountersAndInvalidSamples) {
  using Raw = obs::PerfCounterSession::RawSample;
  Raw begin, end;
  begin.valid = end.valid = true;
  begin.time_enabled_ns = 0;
  begin.time_running_ns = 0;
  end.time_enabled_ns = 100;
  end.time_running_ns = 100;
  // Only cycles and instructions opened (e.g. a VM without LLC events).
  for (auto i : {obs::kHwCycles, obs::kHwInstructions}) {
    begin.present[i] = end.present[i] = true;
    end.value[i] = 42;
  }
  end.value[obs::kHwLlcLoads] = 9999;  // garbage in an absent slot
  obs::HwCounters hw = obs::PerfCounterSession::delta(begin, end);
  EXPECT_EQ(hw.samples, 1u);
  EXPECT_EQ(hw.cycles, 42u);
  EXPECT_EQ(hw.llc_loads, 0u);  // absent counter contributes nothing
  EXPECT_EQ(hw.task_clock_ns, 0u);

  // An invalid endpoint yields the empty (samples == 0) result.
  end.valid = false;
  hw = obs::PerfCounterSession::delta(begin, end);
  EXPECT_EQ(hw.samples, 0u);
  EXPECT_FALSE(hw.any());
}

TEST(PerfCountersTest, HwCountersDerivedRatesAndMerge) {
  obs::HwCounters a;
  a.samples = 1;
  a.cycles = 1000;
  a.instructions = 2500;
  a.llc_loads = 200;
  a.llc_misses = 50;
  a.time_enabled_ns = 100;
  a.time_running_ns = 100;
  EXPECT_DOUBLE_EQ(a.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(a.llc_miss_rate(), 0.25);
  EXPECT_EQ(a.llc_miss_bytes(), 50u * 64u);
  EXPECT_DOUBLE_EQ(a.multiplex_fraction(), 1.0);

  obs::HwCounters b = a;
  b.cycles = 3000;
  a += b;
  EXPECT_EQ(a.samples, 2u);
  EXPECT_EQ(a.cycles, 4000u);
  EXPECT_EQ(a.instructions, 5000u);

  // Zero denominators stay finite.
  const obs::HwCounters zero;
  EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(zero.llc_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(zero.multiplex_fraction(), 1.0);
  EXPECT_FALSE(zero.any());
}

TEST(PerfCountersTest, AggregateSinkAccumulatesHwPerStage) {
  obs::AggregateSink sink;
  obs::HwCounters hw;
  hw.samples = 1;
  hw.cycles = 10;
  hw.instructions = 20;
  sink.record_hw("gridder", hw);
  sink.record_hw("gridder", hw);
  sink.record_hw("adder", hw);
  const auto snap = sink.snapshot();
  EXPECT_EQ(snap.at("gridder").hw.samples, 2u);
  EXPECT_EQ(snap.at("gridder").hw.cycles, 20u);
  EXPECT_EQ(snap.at("adder").hw.samples, 1u);
  // record_hw alone creates no wall time / invocations.
  EXPECT_EQ(snap.at("gridder").invocations, 0u);
}

TEST(PerfCountersTest, JsonOmitsHwBlockWithoutRecordedCounters) {
  // The golden fixture never records counters: the schema bump to v6 must
  // not change the export byte for byte beyond the version line, so a
  // counter-less snapshot serializes with no "hw" key at all.
  const std::string json = obs::to_json(golden_snapshot());
  EXPECT_EQ(json.find("\"hw\""), std::string::npos);
}

TEST(PerfCountersTest, HwBlockExportedWhenRecorded) {
  obs::AggregateSink sink;
  sink.record("gridder", 2.0);
  obs::HwCounters hw;
  hw.samples = 3;
  hw.cycles = 1000;
  hw.instructions = 1500;
  hw.llc_loads = 100;
  hw.llc_misses = 25;
  hw.stalled_cycles_backend = 80;
  hw.task_clock_ns = 123456;
  hw.time_enabled_ns = 200;
  hw.time_running_ns = 100;
  sink.record_hw("gridder", hw);
  sink.record("idle", 1.0);  // no counters: stays hw-less in the same doc

  const auto doc = testjson::parse(obs::to_json(sink.snapshot()));
  const auto& gridder = doc.at("stages").at(0);
  ASSERT_EQ(gridder.at("name").string, "gridder");
  const auto& block = gridder.at("hw");
  EXPECT_EQ(block.at("samples").number, 3.0);
  EXPECT_EQ(block.at("cycles").number, 1000.0);
  EXPECT_EQ(block.at("instructions").number, 1500.0);
  EXPECT_EQ(block.at("llc_loads").number, 100.0);
  EXPECT_EQ(block.at("llc_misses").number, 25.0);
  EXPECT_EQ(block.at("stalled_cycles_backend").number, 80.0);
  EXPECT_EQ(block.at("task_clock_ns").number, 123456.0);
  EXPECT_EQ(block.at("llc_miss_bytes").number, 1600.0);
  EXPECT_DOUBLE_EQ(block.at("ipc").number, 1.5);
  EXPECT_DOUBLE_EQ(block.at("llc_miss_rate").number, 0.25);
  EXPECT_DOUBLE_EQ(block.at("multiplex_fraction").number, 0.5);
  const auto& idle = doc.at("stages").at(1);
  ASSERT_EQ(idle.at("name").string, "idle");
  EXPECT_THROW((void)idle.at("hw"), std::exception);
}

TEST(PerfCountersTest, ScopedCountersNoopWithoutSession) {
  ASSERT_EQ(obs::global_perf_session(), nullptr);
  obs::ScopedCounters window;
  EXPECT_FALSE(window.active());
  obs::HwCounters hw;
  EXPECT_FALSE(window.stop(hw));
  EXPECT_FALSE(hw.any());
  // Spans keep working (and record no hw) with no session installed.
  obs::AggregateSink sink;
  { obs::Span span(sink, "stage"); }
  EXPECT_FALSE(sink.snapshot().at("stage").hw.any());
  obs::warm_thread_counters();  // no-op, must not crash
}

TEST(PerfCountersTest, ProbeReportsParanoidLevelAndNamedReason) {
  const obs::PerfProbe probe = obs::probe_perf_counters();
  EXPECT_FALSE(probe.detail.empty());
  if (probe.paranoid_level != obs::kPerfParanoidUnknown) {
    // Real /proc values are small integers (-1..4 across kernels).
    EXPECT_GE(probe.paranoid_level, -1);
    EXPECT_LE(probe.paranoid_level, 4);
  }
  if (!probe.available) {
    // The refusal is named, never silent.
    EXPECT_NE(probe.detail, "ok");
  }
}

TEST(PerfCountersTest, DisableEnvForcesStub) {
  ::setenv("IDG_PERF_DISABLE", "1", 1);
  std::string why;
  auto session = obs::PerfCounterSession::open(&why);
  EXPECT_EQ(session, nullptr);
  EXPECT_NE(why.find("IDG_PERF_DISABLE"), std::string::npos);
  const obs::PerfProbe probe = obs::probe_perf_counters();
  EXPECT_FALSE(probe.available);
  ::unsetenv("IDG_PERF_DISABLE");
}

TEST(PerfCountersTest, LiveSessionMeasuresSpansWhenAvailable) {
  std::string why;
  auto session = obs::PerfCounterSession::open(&why);
  if (session == nullptr) {
    GTEST_SKIP() << "hw counters unavailable on this host: " << why;
  }
  obs::set_global_perf_session(session.get());
  obs::AggregateSink sink;
  {
    obs::Span span(sink, "busy");
    // Enough user-space work that cycles/instructions cannot round to 0.
    volatile double x = 1.0;
    for (int i = 0; i < 200000; ++i) x = x * 1.0000001 + 1e-9;
  }
  obs::set_global_perf_session(nullptr);

  const auto m = sink.snapshot().at("busy");
  EXPECT_EQ(m.invocations, 1u);
  ASSERT_TRUE(m.hw.any());
  EXPECT_GT(m.hw.cycles, 0u);
  EXPECT_GT(m.hw.instructions, 0u);
  EXPECT_GT(m.hw.time_enabled_ns, 0u);
  // The hw block then shows up in the v6 export.
  const auto doc = testjson::parse(obs::to_json(sink.snapshot()));
  EXPECT_GT(doc.at("stages").at(0).at("hw").at("cycles").number, 0.0);
}

// --- BoundedQueue --------------------------------------------------------------

TEST(BoundedQueueTest, DrainsRemainingItemsAfterClose) {
  BoundedQueue<int> queue(4);
  queue.push(1);
  queue.push(2);
  queue.push(3);
  queue.close();
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.pop(out));  // drained + closed
  EXPECT_FALSE(queue.pop(out));  // stays closed
}

TEST(BoundedQueueTest, PopUnblocksOnClose) {
  BoundedQueue<int> queue(2);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(queue.pop(out));
    returned = true;
  });
  // The consumer is (very likely) blocked in pop(); close() must wake it.
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(BoundedQueueTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> queue(3);  // small capacity forces back-pressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i)
        queue.push(p * kPerProducer + i);
    });
  }
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      int value = 0;
      while (queue.pop(value)) seen[static_cast<std::size_t>(value)]++;
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "item " << i;
}

TEST(BoundedQueueTest, TracksDepthHighWaterMarkWithinCapacity) {
  BoundedQueue<int> queue(3);
  EXPECT_EQ(queue.capacity(), 3u);
  EXPECT_EQ(queue.max_depth(), 0u);
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.max_depth(), 2u);
  int out = 0;
  queue.pop(out);
  queue.push(3);
  queue.push(4);
  EXPECT_EQ(queue.max_depth(), 3u);  // never exceeds the bound
  EXPECT_LE(queue.max_depth(), queue.capacity());
}

// --- TraceSink ------------------------------------------------------------------

TEST(TraceTest, GlobalTraceIsNullByDefault) {
  EXPECT_EQ(obs::global_trace(), nullptr);
  {
    ScopedTrace trace;
    EXPECT_EQ(obs::global_trace(), &trace.sink());
  }
  EXPECT_EQ(obs::global_trace(), nullptr);
}

TEST(TraceTest, RecordsSpansCountersAndThreadNames) {
  obs::TraceSink sink;
  sink.set_thread_name("tester");
  const char* work = sink.intern("work");
  const char* depth = sink.intern("queue-depth");
  EXPECT_EQ(work, sink.intern("work"));  // interning is idempotent
  const std::int64_t t0 = sink.now_ns();
  sink.record_span(work, t0, 100, /*group=*/7);
  sink.record_counter(depth, 3);
  sink.record_instant(sink.intern("marker"));

  const auto tracks = sink.collect();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "tester");
  EXPECT_EQ(tracks[0].dropped, 0u);
  ASSERT_EQ(tracks[0].events.size(), 3u);
  const auto& span = tracks[0].events[0];
  EXPECT_EQ(span.kind, obs::TraceEvent::Kind::kSpan);
  EXPECT_STREQ(span.name, "work");
  EXPECT_EQ(span.ts_ns, t0);
  EXPECT_EQ(span.dur_ns, 100);
  EXPECT_EQ(span.value, 7);
  EXPECT_EQ(tracks[0].events[1].kind, obs::TraceEvent::Kind::kCounter);
  EXPECT_EQ(tracks[0].events[1].value, 3);
}

TEST(TraceTest, EachThreadGetsItsOwnTrack) {
  obs::TraceSink sink;
  const char* name = sink.intern("t");
  sink.record_instant(name);  // main thread's track
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) sink.record_instant(name);
    });
  }
  for (auto& t : threads) t.join();
  const auto tracks = sink.collect();
  ASSERT_EQ(tracks.size(), 4u);
  std::size_t total = 0;
  std::set<int> tids;
  for (const auto& track : tracks) {
    tids.insert(track.tid);
    total += track.events.size();
  }
  EXPECT_EQ(tids.size(), 4u);  // distinct tids
  EXPECT_EQ(total, 31u);       // nothing lost
}

TEST(TraceTest, RingBufferDropsOldestAndCountsThem) {
  obs::TraceSink sink(/*capacity_per_thread=*/8);
  const char* name = sink.intern("e");
  for (std::int64_t i = 0; i < 20; ++i) sink.record_span(name, i, 1);
  const auto tracks = sink.collect();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].events.size(), 8u);
  EXPECT_EQ(tracks[0].dropped, 12u);
  // Oldest-first of the *surviving* window: begins at ts 12.
  EXPECT_EQ(tracks[0].events.front().ts_ns, 12);
  EXPECT_EQ(tracks[0].events.back().ts_ns, 19);
}

TEST(TraceTest, ChromeJsonIsValidAndCompletesTracks) {
  obs::TraceSink sink;
  sink.set_thread_name("main");
  sink.record_span(sink.intern("stage-a"), 0, 1000, 0);
  sink.record_counter(sink.intern("depth"), 2);
  const auto doc = testjson::parse(sink.to_chrome_json());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_span = false, saw_counter = false, saw_thread_name = false;
  for (const auto& e : events.array) {
    const std::string ph = e.at("ph").string;
    if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(e.at("name").string, "stage-a");
      EXPECT_EQ(e.at("dur").number, 1.0);  // 1000 ns = 1 us
      EXPECT_EQ(e.at("args").at("group").number, 0.0);
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_EQ(e.at("args").at("value").number, 2.0);
    } else if (ph == "M" && e.at("name").string == "thread_name") {
      saw_thread_name = true;
      EXPECT_EQ(e.at("args").at("name").string, "main");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_thread_name);
}

TEST(TraceTest, SpanEmitsTraceEventWhenGlobalTraceInstalled) {
  ScopedTrace trace;
  obs::AggregateSink sink;
  { obs::Span span(sink, "traced-stage", /*group=*/5); }
  const auto tracks = trace.sink().collect();
  ASSERT_EQ(tracks.size(), 1u);
  ASSERT_EQ(tracks[0].events.size(), 1u);
  const auto& e = tracks[0].events[0];
  EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kSpan);
  EXPECT_STREQ(e.name, "traced-stage");
  EXPECT_EQ(e.value, 5);
  EXPECT_GE(e.dur_ns, 0);
  // The aggregate sink still saw the span as usual.
  EXPECT_EQ(sink.snapshot().at("traced-stage").invocations, 1u);
}

TEST(TraceTest, InstrumentedQueueEmitsDepthSamplesWithinBound) {
  ScopedTrace trace;
  BoundedQueue<int> queue(2);
  queue.instrument("test-queue");
  queue.push(1);
  queue.push(2);
  int out = 0;
  queue.pop(out);
  queue.pop(out);
  std::int64_t samples = 0;
  for (const auto& track : trace.sink().collect()) {
    for (const auto& e : track.events) {
      ASSERT_EQ(e.kind, obs::TraceEvent::Kind::kCounter);
      EXPECT_STREQ(e.name, "test-queue");
      EXPECT_GE(e.value, 0);
      EXPECT_LE(e.value, 2);  // never exceeds the queue's bound
      ++samples;
    }
  }
  EXPECT_EQ(samples, 4);  // one per push + one per pop
}

TEST(TraceTest, InstrumentedWorkerPoolTracksOccupancy) {
  ScopedTrace trace;
  WorkerPool pool(3);
  pool.instrument("test-pool");
  EXPECT_EQ(pool.max_active(), 0u);
  std::atomic<int> done{0};
  pool.parallel_for(64, [&](std::size_t) {
    ++done;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  EXPECT_EQ(done, 64);
  EXPECT_GE(pool.max_active(), 1u);
  EXPECT_LE(pool.max_active(), pool.nr_threads());
  for (const auto& track : trace.sink().collect()) {
    for (const auto& e : track.events) {
      if (e.kind != obs::TraceEvent::Kind::kCounter) continue;
      EXPECT_GE(e.value, 0);
      EXPECT_LE(e.value, static_cast<std::int64_t>(pool.nr_threads()));
    }
  }
}

// --- backend factory and parity -------------------------------------------------

struct Setup {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;

  static Setup make() {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 32;
    cfg.nr_channels = 4;
    cfg.grid_size = 256;
    cfg.subgrid_size = 16;
    auto ds = sim::make_benchmark_dataset(cfg);

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 4;
    params.work_group_size = 4;  // several work groups in flight
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms =
        sim::make_identity_aterms(1, cfg.nr_stations, cfg.subgrid_size);
    return {std::move(ds), params, std::move(plan), std::move(aterms)};
  }
};

TEST(BackendTest, FactoryCreatesEveryListedBackend) {
  Parameters params;
  params.image_size = 0.01;
  for (const auto& name : backend_names()) {
    auto backend = make_backend(name, params);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->parameters().grid_size, params.grid_size);
  }
}

TEST(BackendTest, FactoryAcceptsAliases) {
  Parameters params;
  params.image_size = 0.01;
  EXPECT_EQ(make_backend("sync", params)->name(), "synchronous");
  EXPECT_EQ(make_backend("async", params)->name(), "pipelined");
}

TEST(BackendTest, FactoryRejectsUnknownNamesDescriptively) {
  Parameters params;
  params.image_size = 0.01;
  try {
    make_backend("gpu", params);
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu"), std::string::npos);
    EXPECT_NE(what.find("pipelined"), std::string::npos);
    EXPECT_NE(what.find("synchronous"), std::string::npos);
  }
}

TEST(BackendTest, ProcessorAndPipelinedReportIdenticalOpCounts) {
  auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 1u);

  auto sync = make_backend("synchronous", s.params);
  auto pipelined = make_backend("pipelined", s.params);

  Array3D<cfloat> grid_sync(4, s.params.grid_size, s.params.grid_size);
  Array3D<cfloat> grid_async(4, s.params.grid_size, s.params.grid_size);
  obs::AggregateSink sink_sync, sink_async;

  // Grid both from the same input, then degrid into separate buffers
  // (degridding overwrites the covered visibility entries).
  sync->grid(s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
             s.aterms.cview(), grid_sync.view(), sink_sync);
  pipelined->grid(s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
                  s.aterms.cview(), grid_async.view(), sink_async);
  Array3D<Visibility> vis_sync(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                               s.ds.nr_channels());
  Array3D<Visibility> vis_async(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                s.ds.nr_channels());
  sync->degrid(s.plan, s.ds.uvw.cview(), grid_sync.cview(), s.aterms.cview(),
               vis_sync.view(), sink_sync);
  pipelined->degrid(s.plan, s.ds.uvw.cview(), grid_async.cview(),
                    s.aterms.cview(), vis_async.view(), sink_async);

  const auto a = sink_sync.snapshot();
  const auto b = sink_async.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [stage_name, ma] : a) {
    ASSERT_TRUE(b.count(stage_name)) << stage_name;
    const auto& mb = b.at(stage_name);
    // Analytic counters derive from the plan alone: bit-for-bit identical
    // regardless of execution strategy.
    EXPECT_EQ(ma.ops.fma, mb.ops.fma) << stage_name;
    EXPECT_EQ(ma.ops.mul, mb.ops.mul) << stage_name;
    EXPECT_EQ(ma.ops.add, mb.ops.add) << stage_name;
    EXPECT_EQ(ma.ops.sincos, mb.ops.sincos) << stage_name;
    EXPECT_EQ(ma.ops.dev_bytes, mb.ops.dev_bytes) << stage_name;
    EXPECT_EQ(ma.ops.shared_bytes, mb.ops.shared_bytes) << stage_name;
    EXPECT_EQ(ma.ops.visibilities, mb.ops.visibilities) << stage_name;
    EXPECT_EQ(ma.invocations, mb.invocations) << stage_name;
  }

  // And so are the gridded pixels (same kernels, same accumulation order)
  // and the predicted visibilities.
  for (std::size_t i = 0; i < grid_sync.size(); ++i) {
    ASSERT_EQ(grid_sync.data()[i], grid_async.data()[i]) << "pixel " << i;
  }
  EXPECT_EQ(
      std::memcmp(vis_sync.data(), vis_async.data(), vis_sync.bytes()), 0);
}

TEST(BackendTest, PipelinedThreadsAccumulateIntoOneSink) {
  auto s = Setup::make();
  auto pipelined = make_backend("pipelined", s.params);
  Array3D<cfloat> grid(4, s.params.grid_size, s.params.grid_size);
  obs::AggregateSink sink;
  pipelined->grid(s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
                  s.aterms.cview(), grid.view(), sink);
  const auto snapshot = sink.snapshot();
  // Each of the three stages ran once per work group, reported from its own
  // thread into the shared sink.
  const auto groups = s.plan.nr_work_groups();
  EXPECT_EQ(snapshot.at(stage::kGridder).invocations, groups);
  EXPECT_EQ(snapshot.at(stage::kSubgridFft).invocations, groups);
  EXPECT_EQ(snapshot.at(stage::kAdder).invocations, groups);
}

// --- end-to-end pipeline tracing ------------------------------------------------

/// What one traced pipelined grid+degrid run looked like, reduced to its
/// timing-independent content.
struct TraceRunSummary {
  std::multiset<std::pair<std::string, std::int64_t>> spans;  // (stage, group)
  std::set<int> span_tids;
  std::map<std::string, std::size_t> queue_samples;  // per counter track
  std::map<std::string, std::int64_t> queue_max;
  std::string chrome_json;
};

TraceRunSummary traced_pipelined_run(const Setup& s) {
  ScopedTrace trace;
  // Backend created while the trace is installed so queues/pools latch it.
  auto pipelined = make_backend("pipelined", s.params);
  Array3D<cfloat> grid(4, s.params.grid_size, s.params.grid_size);
  Array3D<Visibility> vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  obs::AggregateSink sink;
  pipelined->grid(s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
                  s.aterms.cview(), grid.view(), sink);
  pipelined->degrid(s.plan, s.ds.uvw.cview(), grid.cview(), s.aterms.cview(),
                    vis.view(), sink);

  TraceRunSummary summary;
  for (const auto& track : trace.sink().collect()) {
    EXPECT_EQ(track.dropped, 0u);
    for (const auto& e : track.events) {
      if (e.kind == obs::TraceEvent::Kind::kSpan) {
        summary.spans.emplace(e.name, e.value);
        summary.span_tids.insert(track.tid);
      } else if (e.kind == obs::TraceEvent::Kind::kCounter &&
                 std::string_view(e.name).find("pool") ==
                     std::string_view::npos) {
        // Queue depth sampling is exactly one event per push/pop, hence
        // deterministic; pool occupancy sampling depends on worker wakeup
        // timing and is excluded from the determinism comparison.
        summary.queue_samples[e.name]++;
        auto& mx = summary.queue_max[e.name];
        mx = std::max(mx, e.value);
      }
    }
  }
  summary.chrome_json = trace.sink().to_chrome_json();
  return summary;
}

TEST(PipelinedTraceTest, TimelineShowsConcurrentStagesAndBoundedQueues) {
  auto s = Setup::make();
  const std::size_t groups = s.plan.nr_work_groups();
  ASSERT_GT(groups, 1u);
  const auto run = traced_pipelined_run(s);

  // The paper's Fig 7 structure: stage spans on >= 3 distinct threads
  // (the caller's scrub, grid kernel streams + adder thread, degrid kernel
  // streams).
  EXPECT_GE(run.span_tids.size(), 3u);

  // Every work group left one span per stage, tagged with its group id.
  for (const char* stage_name :
       {stage::kGridder, stage::kAdder, stage::kDegridder, stage::kSplitter}) {
    for (std::size_t g = 0; g < groups; ++g) {
      EXPECT_EQ(run.spans.count({stage_name, static_cast<std::int64_t>(g)}),
                1u)
          << stage_name << " group " << g;
    }
  }
  // The subgrid FFT runs once per group in each direction.
  for (std::size_t g = 0; g < groups; ++g) {
    EXPECT_EQ(run.spans.count({stage::kSubgridFft,
                               static_cast<std::int64_t>(g)}), 2u);
  }

  // All five queue counter tracks reported, with depths within the bound
  // (3 buffers) and deterministic sample counts (one per push/pop).
  ASSERT_EQ(run.queue_samples.size(), 5u);
  for (const auto& [name, mx] : run.queue_max) {
    EXPECT_LE(mx, 3) << name;  // nr_buffers = 3
  }
  EXPECT_EQ(run.queue_samples.at("pipeline:grid:free-buffers"),
            3 + 2 * groups);
  EXPECT_EQ(run.queue_samples.at("pipeline:grid:to-kernel"), 2 * groups);
  EXPECT_EQ(run.queue_samples.at("pipeline:degrid:to-kernel"), 2 * groups);

  // The exported Chrome trace is well-formed JSON.
  EXPECT_NO_THROW(testjson::parse(run.chrome_json));
}

TEST(PipelinedTraceTest, TwoIdenticalRunsTraceIdenticalEventSets) {
  auto s = Setup::make();
  const auto a = traced_pipelined_run(s);
  const auto b = traced_pipelined_run(s);
  // Identical modulo timestamps and thread interleaving: same span
  // multiset, same queue sample counts.
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.queue_samples, b.queue_samples);
}

TEST(PipelinedTraceTest, TraceSessionWritesFileAndUninstalls) {
  const std::string path = ::testing::TempDir() + "idg_trace_session.json";
  {
    obs::TraceSession session(path);
    ASSERT_TRUE(session.enabled());
    EXPECT_EQ(obs::global_trace(), session.sink());
    obs::AggregateSink sink;
    { obs::Span span(sink, "session-span"); }
  }
  EXPECT_EQ(obs::global_trace(), nullptr);
  const auto doc = testjson::parse(read_file(path));
  bool found = false;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "X" && e.at("name").string == "session-span") {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  obs::TraceSession disabled("");
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(obs::global_trace(), nullptr);
}

// --- Parameters::validated ------------------------------------------------------

TEST(ParametersTest, ValidConfigurationHasNoError) {
  Parameters params;
  params.image_size = 0.01;
  EXPECT_FALSE(params.validated().has_value());
  EXPECT_NO_THROW(params.validate());
}

TEST(ParametersTest, SubgridLargerThanGridIsDescriptive) {
  Parameters params;
  params.image_size = 0.01;
  params.grid_size = 64;
  params.subgrid_size = 128;
  auto error = params.validated();
  ASSERT_TRUE(error.has_value());
  const std::string what = error->what();
  EXPECT_NE(what.find("subgrid_size (128)"), std::string::npos);
  EXPECT_NE(what.find("grid_size (64)"), std::string::npos);
  EXPECT_THROW(params.validate(), Error);
}

TEST(ParametersTest, EveryInconsistencyIsCaught) {
  const auto error_of = [](auto&& mutate) {
    Parameters params;
    params.image_size = 0.01;
    mutate(params);
    return params.validated();
  };
  EXPECT_TRUE(error_of([](Parameters& p) { p.grid_size = 1; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.subgrid_size = 2; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.image_size = 0.0; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.image_size = -1.0; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.kernel_size = 0; }));
  EXPECT_TRUE(
      error_of([](Parameters& p) { p.kernel_size = p.subgrid_size; }));
  EXPECT_TRUE(
      error_of([](Parameters& p) { p.max_timesteps_per_subgrid = 0; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.aterm_interval = -1; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.work_group_size = 0; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.adder_tile_size = 0; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.adder_tile_size = 12; }));
  // Sizes whose int casts wrap: a 2^32 tile casts to 0 and would divide
  // by zero in the tile binning.
  EXPECT_TRUE(
      error_of([](Parameters& p) { p.adder_tile_size = std::size_t{1} << 32; }));
  EXPECT_TRUE(
      error_of([](Parameters& p) { p.grid_size = kMaxGridSize + 64; }));
}

TEST(ParametersTest, ProcessorRejectsBadParametersAtConstruction) {
  Parameters params;
  params.image_size = 0.01;
  params.subgrid_size = params.grid_size;  // inconsistent
  EXPECT_THROW(Processor{params}, Error);
  EXPECT_THROW(make_backend("pipelined", params), Error);
}

TEST(ParametersTest, EdgeCaseValuesAreCaught) {
  const auto error_of = [](auto&& mutate) {
    Parameters params;
    params.image_size = 0.01;
    mutate(params);
    return params.validated();
  };
  // Non-finite geometry must be rejected, not silently propagated into
  // every subsequent coordinate computation.
  EXPECT_TRUE(error_of(
      [](Parameters& p) { p.image_size = std::numeric_limits<double>::quiet_NaN(); }));
  EXPECT_TRUE(error_of(
      [](Parameters& p) { p.image_size = std::numeric_limits<double>::infinity(); }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.image_size = -0.01; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.subgrid_size = 0; }));
  EXPECT_TRUE(error_of([](Parameters& p) { p.grid_size = 0; }));
  // Enum fields fed from untrusted config: out-of-range values throw.
  EXPECT_TRUE(error_of([](Parameters& p) {
    p.plan_ordering = static_cast<PlanOrdering>(99);
  }));
  EXPECT_TRUE(error_of([](Parameters& p) {
    p.bad_sample_policy = static_cast<BadSamplePolicy>(-1);
  }));
  EXPECT_TRUE(error_of([](Parameters& p) {
    p.bad_sample_policy = static_cast<BadSamplePolicy>(3);
  }));
  const auto policy_error = error_of([](Parameters& p) {
    p.bad_sample_policy = static_cast<BadSamplePolicy>(7);
  });
  ASSERT_TRUE(policy_error.has_value());
  EXPECT_NE(std::string(policy_error->what()).find("bad_sample_policy"),
            std::string::npos);
}

TEST(ParametersTest, BadSamplePolicyStringRoundtrip) {
  using enum BadSamplePolicy;
  EXPECT_EQ(bad_sample_policy_from_string("reject"), kReject);
  EXPECT_EQ(bad_sample_policy_from_string("zero_and_continue"),
            kZeroAndContinue);
  EXPECT_EQ(bad_sample_policy_from_string("zero"), kZeroAndContinue);
  EXPECT_EQ(bad_sample_policy_from_string("skip_work_group"), kSkipWorkGroup);
  EXPECT_EQ(bad_sample_policy_from_string("skip"), kSkipWorkGroup);
  EXPECT_FALSE(bad_sample_policy_from_string("drop").has_value());
  EXPECT_STREQ(to_string(kReject), "reject");
  EXPECT_STREQ(to_string(kZeroAndContinue), "zero_and_continue");
  EXPECT_STREQ(to_string(kSkipWorkGroup), "skip_work_group");
}

TEST(WPlaneModelTest, RejectsNonPositiveSpacing) {
  EXPECT_THROW(WPlaneModel(8, 0.0), Error);  // nr_planes > 1 needs w_max > 0
  EXPECT_THROW(WPlaneModel(0, 100.0), Error);
  EXPECT_NO_THROW(WPlaneModel(1, 0.0));
  EXPECT_NO_THROW(WPlaneModel(8, 100.0));
}

TEST(PlanTest, RejectsZeroChannelsDescriptively) {
  auto s = Setup::make();
  EXPECT_THROW(Plan(s.params, s.ds.uvw, {}, s.ds.baselines), Error);
}

}  // namespace
