#include "idg/pipelined.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/threadpool.hpp"
#include "idg/accounting.hpp"
#include "idg/adder.hpp"
#include "idg/scrub.hpp"
#include "obs/perfcounters.hpp"
#include "obs/span.hpp"

namespace idg {

namespace {
/// One in-flight work group: the buffer it owns and its dispatch order.
struct Ticket {
  std::size_t group = 0;
  std::size_t buffer = 0;
  std::size_t seq = 0;  ///< dispatch order; skipped groups take none
};

/// The pipelined executor's fault and cancel sites in the group steps.
constexpr GridSites kPipelinedGridSites{
    "pipelined.grid.kernel", "pipelined.grid.fft", "pipelined.grid.buffer"};
constexpr DegridSites kPipelinedDegridSites{"pipelined.degrid.splitter",
                                            "pipelined.degrid.fft",
                                            "pipelined.degrid.kernel"};

/// Adder-stage pool size when the caller passes 0: a small slice of the
/// CPUs this process may use — the kernel streams' OpenMP teams remain the
/// main consumers of cores; the memory-bound adder saturates long before.
std::size_t default_adder_threads() {
  const auto procs = static_cast<std::size_t>(omp_get_num_procs());
  return std::clamp<std::size_t>(procs / 4, 2, 4);
}

/// How long the orchestrating thread waits on the free-buffer queue before
/// re-checking the pipeline's failure state. A stage failure closes every
/// queue (waking the wait immediately); the timeout is the safety net that
/// keeps the wait loop observable rather than parked forever.
constexpr auto kOrchestratorPollInterval = std::chrono::milliseconds(50);

/// Starts one call's kernel streams (DESIGN.md §9): as many OpenMP teams of
/// the caller's size as the CPUs this process may use hold, at least one
/// and fewer than the buffers, so one buffer is left to stage the next
/// group. Each stream is a "pipeline:kernel" thread that runs `body`. A
/// started stream is in `streams` at once, so the caller can join every
/// started stream even when starting a later one throws.
template <typename Body>
void start_kernel_streams(std::size_t nr_buffers, const Body& body,
                          std::vector<std::thread>& streams) {
  const int team = std::max(1, omp_get_max_threads());
  const std::size_t count = std::clamp<std::size_t>(
      static_cast<std::size_t>(omp_get_num_procs() / team), 1,
      nr_buffers - 1);
  streams.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    streams.emplace_back([team, &body] {
      if (auto* trace = obs::global_trace()) {
        trace->set_thread_name("pipeline:kernel");
      }
      // Open this thread's counter group up front so the fd-open cost is
      // not charged to the first span's window (no-op without a session).
      obs::warm_thread_counters();
      omp_set_num_threads(team);
      body();
    });
  }
}

/// Stage L, on the calling thread: hands every group that is not skipped a
/// free buffer and the next dispatch sequence number, in group order.
/// Taking a free buffer is the back-pressure point that keeps at most
/// nr_buffers groups in flight. Returns when every group is dispatched or
/// the run failed (the queues closed); a cancellation observed while
/// waiting throws, so the caller fails the run through the same path.
template <typename Skipped>
void dispatch_groups(std::size_t nr_groups, const Skipped& skipped,
                     BoundedQueue<std::size_t>& free_buffers,
                     BoundedQueue<Ticket>& to_kernel,
                     const PipelineError& error, const RunControl& ctl,
                     const char* site) {
  std::size_t seq = 0;
  for (std::size_t g = 0; g < nr_groups; ++g) {
    if (skipped(g)) continue;
    const auto group = static_cast<std::int64_t>(g);
    ctl.check_cancel(site, group);
    std::size_t buffer = 0;
    for (;;) {
      const QueueWaitResult r =
          free_buffers.pop_for(buffer, kOrchestratorPollInterval);
      if (r == QueueWaitResult::kOk) break;
      ctl.check_cancel(site, group);
      if (r == QueueWaitResult::kClosed || error.failed()) return;
    }
    if (!to_kernel.push({g, buffer, seq++})) return;
  }
}

/// The rotating buffer pool (the paper's three device buffer sets). RAII:
/// released on every exit path, including a failed run.
std::vector<Array4D<cfloat>> make_buffers(const Parameters& params,
                                          std::size_t count) {
  std::vector<Array4D<cfloat>> buffers;
  buffers.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    buffers.push_back(make_group_subgrids(params));
  }
  return buffers;
}
}  // namespace

PipelinedProcessor::PipelinedProcessor(Parameters params,
                                       const KernelSet& kernels,
                                       std::size_t nr_buffers,
                                       std::size_t nr_adder_threads)
    : processor_(params, kernels),
      nr_buffers_(nr_buffers),
      nr_adder_threads_(nr_adder_threads == 0 ? default_adder_threads()
                                              : nr_adder_threads) {
  IDG_CHECK(nr_buffers_ >= 2, "pipelining needs at least two buffers");
}

void PipelinedProcessor::grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                              ArrayView<const Visibility, 3> visibilities,
                              FlagView flags,
                              ArrayView<const Jones, 4> aterms,
                              ArrayView<cfloat, 3> grid,
                              obs::MetricsSink& sink,
                              const RunControl& ctl_in) const {
  const Parameters& params = parameters();
  check_grid_stack(params, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const std::size_t nr_groups = plan.nr_work_groups();
  if (nr_groups == 0) return;

  // Bad-sample policy application (DESIGN.md §11) happens up front on the
  // calling thread, before any stage thread starts: the stage threads then
  // only ever see a clean cube, and skipped groups are never dispatched.
  const ScrubbedVisibilities scrubbed = [&] {
    obs::Span span(sink, stage::kScrub);
    return scrub_gridder_input(params, plan, visibilities, flags, ctl.cancel);
  }();
  sink.record_data_quality(stage::kScrub, scrubbed.report().scrubbed(),
                           scrubbed.report().skipped_samples);
  const ArrayView<const Visibility, 3> vis = scrubbed.view();

  std::vector<Array4D<cfloat>> buffers = make_buffers(params, nr_buffers_);
  // Per-subgrid float count, used by the fault-injection guard below
  // (which compiles to a no-op unless IDG_FAULT_INJECTION is on).
  [[maybe_unused]] const std::size_t active_floats =
      static_cast<std::size_t>(kNrPolarizations) * params.subgrid_size *
      params.subgrid_size * 2;
  const KernelData data = processor_.kernel_data(plan, uvw, aterms);

  // Queues between the stages; free_buffers recycles finished buffers back
  // to the head of the pipeline (the CUDA-event "input buffer may be
  // overwritten" signal of Fig 7).
  BoundedQueue<std::size_t> free_buffers(nr_buffers_);
  BoundedQueue<Ticket> to_kernel(nr_buffers_);
  BoundedQueue<Ticket> to_adder(nr_buffers_);
  free_buffers.instrument("pipeline:grid:free-buffers");
  to_kernel.instrument("pipeline:grid:to-kernel");
  to_adder.instrument("pipeline:grid:to-adder");
  for (std::size_t b = 0; b < nr_buffers_; ++b) free_buffers.push(b);

  // Shared failure state: the first stage exception is recorded here and
  // every queue is closed with close_with_error(), so all stages unwind
  // within a bounded time and the failure rethrows below as one
  // descriptive idg::Error (never a deadlock).
  PipelineError error;
  const auto fail = [&](const char* site, std::int64_t group) {
    error.set(site, group, std::current_exception());
    free_buffers.close_with_error();
    to_kernel.close_with_error();
    to_adder.close_with_error();
  };

  // Stage X, the kernel streams: the Processor's gridding step per work
  // group, several groups at once. The step names its own stage on
  // failure; every stream records its spans directly into the shared sink
  // (thread-safe).
  const auto kernel_stream = [&] {
    std::int64_t group = -1;
    try {
      Ticket ticket;
      while (to_kernel.pop(ticket)) {
        group = static_cast<std::int64_t>(ticket.group);
        processor_.grid_group_subgrids(plan, ticket.group, data, vis,
                                       buffers[ticket.buffer].view(), sink,
                                       ctl, kPipelinedGridSites);
        // The hand-off to the adder ends the FFT stage.
        with_stage_context(stage::kSubgridFft, group, [&] {
          IDG_FAULT_POINT("pipelined.grid.push", group);
        });
        if (!to_adder.push(ticket)) break;
      }
    } catch (...) {
      fail(stage::kGridder, group);
    }
  };

  // Stage S: one consumer adds the groups in dispatch order — preserving
  // the free-buffer back-pressure and one adder span per work group — and
  // fans each group's tile-binned accumulation out over a small worker
  // pool. Tiles are disjoint grid regions, so the workers never race on
  // `grid`; a worker exception aborts the job and rethrows here
  // (threadpool.hpp).
  WorkerPool adder_pool(nr_adder_threads_ - 1);
  adder_pool.instrument("pipeline:grid:adder-pool");
  std::thread adder_thread([&] {
    if (auto* trace = obs::global_trace()) {
      trace->set_thread_name("pipeline:adder");
    }
    obs::warm_thread_counters();
    std::int64_t group = -1;
    try {
      // The streams finish groups out of order. Early tickets wait here for
      // their turn, so every pixel sums its groups in the synchronous
      // Processor's order and the grid stays bit-identical.
      std::map<std::size_t, Ticket> pending;
      std::size_t next = 0;
      Ticket arrived;
      while (to_adder.pop(arrived)) {
        pending.emplace(arrived.seq, arrived);
        while (!pending.empty() && pending.begin()->first == next) {
          const Ticket ticket = pending.begin()->second;
          pending.erase(pending.begin());
          ++next;
          const auto items = plan.work_group(ticket.group);
          const TileBinning& binning = plan.work_group_tiles(ticket.group);
          const auto subgrids = buffers[ticket.buffer].cview();
          group = static_cast<std::int64_t>(ticket.group);
          ctl.check_cancel("pipelined.grid.adder", group);
          IDG_FAULT_GUARD_FINITE(
              "pipelined.grid.adder", group,
              reinterpret_cast<const float*>(subgrids.data()),
              items.size() * active_floats);
          {
            obs::Span span(sink, stage::kAdder, group);
            IDG_FAULT_POINT("pipelined.grid.adder", group);
            adder_pool.parallel_for(
                binning.nr_tiles(),
                [&](std::size_t tile) {
                  add_tile(params, items, binning, tile, subgrids, grid);
                },
                ctl.cancel);
          }
          sink.record_bytes(stage::kAdder,
                            adder_moved_bytes(params, items.size()));
          if (!free_buffers.push(ticket.buffer)) return;
        }
      }
    } catch (...) {
      fail(stage::kAdder, group);
    }
  });

  // Stage L (this thread). The visibility gather happens inside the kernel,
  // so dispatching a group is acquiring its buffer.
  std::vector<std::thread> streams;
  try {
    start_kernel_streams(nr_buffers_, kernel_stream, streams);
    dispatch_groups(
        nr_groups,
        [&](std::size_t g) {
          return scrubbed.group_skipped(g) || ctl.group_skipped(g);
        },
        free_buffers, to_kernel, error, ctl, "pipelined.grid.dispatch");
  } catch (...) {
    fail("dispatch", -1);
  }
  to_kernel.close();
  for (auto& stream : streams) stream.join();
  to_adder.close();
  adder_thread.join();
  error.rethrow_if_failed();

  // Same plan, same analytic counters as the synchronous Processor.
  sink.record_ops(stage::kGridder, gridder_op_counts(plan));
  sink.record_ops(stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(stage::kAdder, adder_op_counts(plan));
}

void PipelinedProcessor::degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                                ArrayView<const cfloat, 3> grid,
                                FlagView flags,
                                ArrayView<const Jones, 4> aterms,
                                ArrayView<Visibility, 3> visibilities,
                                obs::MetricsSink& sink,
                                const RunControl& ctl_in) const {
  const Parameters& params = parameters();
  check_grid_stack(params, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const std::size_t nr_groups = plan.nr_work_groups();
  if (nr_groups == 0) return;

  // Mask pre-pass (kReject throws here, before any thread starts).
  DegridScrub scrubbed;
  if (flags.size() != 0) {
    obs::Span span(sink, stage::kScrub);
    scrubbed = scrub_degrid_plan(params, plan, flags);
  }

  std::vector<Array4D<cfloat>> buffers = make_buffers(params, nr_buffers_);
  const KernelData data = processor_.kernel_data(plan, uvw, aterms);

  BoundedQueue<std::size_t> free_buffers(nr_buffers_);
  BoundedQueue<Ticket> to_kernel(nr_buffers_);
  free_buffers.instrument("pipeline:degrid:free-buffers");
  to_kernel.instrument("pipeline:degrid:to-kernel");
  for (std::size_t b = 0; b < nr_buffers_; ++b) free_buffers.push(b);

  PipelineError error;
  const auto fail = [&](const char* site, std::int64_t group) {
    error.set(site, group, std::current_exception());
    free_buffers.close_with_error();
    to_kernel.close_with_error();
  };

  // The kernel streams: the Processor's degridding step per work group,
  // which polls the cancel token before each stage so a deadline that
  // expires mid-group is seen at the next stage. Disjoint (baseline, time,
  // channel) blocks per work item make concurrent writes to
  // `visibilities` race-free, across streams as within one — the same
  // disjointness makes the per-group flag zeroing race-free.
  std::atomic<std::uint64_t> zeroed{0};
  const auto kernel_stream = [&] {
    std::int64_t group = -1;
    try {
      Ticket ticket;
      while (to_kernel.pop(ticket)) {
        group = static_cast<std::int64_t>(ticket.group);
        zeroed += processor_.degrid_group(
            plan, ticket.group, data, grid, flags,
            buffers[ticket.buffer].view(), visibilities, sink, ctl,
            kPipelinedDegridSites);
        if (!free_buffers.push(ticket.buffer)) break;
      }
    } catch (...) {
      fail(stage::kSplitter, group);
    }
  };

  // This thread only hands out buffers.
  std::vector<std::thread> streams;
  try {
    start_kernel_streams(nr_buffers_, kernel_stream, streams);
    dispatch_groups(
        nr_groups,
        [&](std::size_t g) {
          return scrubbed.group_skipped(g) || ctl.group_skipped(g);
        },
        free_buffers, to_kernel, error, ctl, "pipelined.degrid.dispatch");
  } catch (...) {
    fail("dispatch", -1);
  }
  to_kernel.close();
  for (auto& stream : streams) stream.join();
  error.rethrow_if_failed();

  if (flags.size() != 0) {
    sink.record_data_quality(stage::kScrub,
                             zeroed.load() + scrubbed.report.scrubbed(),
                             scrubbed.report.skipped_samples);
  }

  sink.record_ops(stage::kSplitter, splitter_op_counts(plan));
  sink.record_ops(stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(stage::kDegridder, degridder_op_counts(plan));
}

}  // namespace idg
