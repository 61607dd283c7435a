#include "idg/pipelined.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/threadpool.hpp"
#include "idg/accounting.hpp"
#include "idg/adder.hpp"
#include "idg/processor.hpp"
#include "idg/scrub.hpp"
#include "idg/subgrid_fft.hpp"
#include "idg/taper.hpp"
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
}  // namespace

PipelinedGridder::PipelinedGridder(Parameters params, const KernelSet& kernels,
                                   std::size_t nr_buffers,
                                   std::size_t nr_adder_threads)
    : params_(params),
      kernels_(&kernels),
      nr_buffers_(nr_buffers),
      nr_adder_threads_(nr_adder_threads == 0 ? default_adder_threads()
                                              : nr_adder_threads),
      taper_(make_taper_for(params)) {
  params_.validate();
  IDG_CHECK(nr_buffers_ >= 2, "pipelining needs at least two buffers");
}

void PipelinedGridder::grid_visibilities(const Plan& plan,
                                         ArrayView<const UVW, 2> uvw,
                                         ArrayView<const Visibility, 3> visibilities,
                                         FlagView flags,
                                         ArrayView<const Jones, 4> aterms,
                                         ArrayView<cfloat, 3> grid,
                                         obs::MetricsSink& sink,
                                         const RunControl& ctl_in) const {
  check_grid_stack(params_, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params_.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const std::size_t n = params_.subgrid_size;
  const std::size_t nr_groups = plan.nr_work_groups();
  if (nr_groups == 0) return;

  // Bad-sample policy application (DESIGN.md §11) happens up front on the
  // calling thread, before any stage thread starts: the stage threads then
  // only ever see a clean cube, and skipped groups are never dispatched.
  const ScrubbedVisibilities scrubbed = [&] {
    obs::Span span(sink, stage::kScrub);
    return scrub_gridder_input(params_, plan, visibilities, flags, ctl.cancel);
  }();
  sink.record_data_quality(stage::kScrub, scrubbed.report().scrubbed(),
                           scrubbed.report().skipped_samples);
  const ArrayView<const Visibility, 3> vis = scrubbed.view();

  // The rotating buffer pool (the paper's three device buffer sets). RAII:
  // released on every exit path, including a failed run.
  std::vector<Array4D<cfloat>> buffers;
  buffers.reserve(nr_buffers_);
  for (std::size_t b = 0; b < nr_buffers_; ++b) {
    buffers.emplace_back(params_.work_group_size,
                         static_cast<std::size_t>(kNrPolarizations), n, n);
  }
  // Per-subgrid float count, used by the fault-injection hooks below (which
  // compile to no-ops unless IDG_FAULT_INJECTION is on).
  [[maybe_unused]] const std::size_t active_floats =
      static_cast<std::size_t>(kNrPolarizations) * n * n * 2;

  check_aterm_raster(aterms, n);
  KernelData data{uvw, plan.wavenumbers(), aterms, taper_.cview()};

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

  // Stage X, the kernel streams: gridder kernel + subgrid FFT per work
  // group, several groups at once. Every stream records its spans directly
  // into the shared sink (thread-safe).
  const auto kernel_stream = [&] {
    const char* site = stage::kGridder;
    std::int64_t group = -1;
    try {
      Ticket ticket;
      while (to_kernel.pop(ticket)) {
        const auto items = plan.work_group(ticket.group);
        group = static_cast<std::int64_t>(ticket.group);
        ctl.check_cancel("pipelined.grid.kernel", group);
        {
          site = stage::kGridder;
          obs::Span span(sink, stage::kGridder, group);
          IDG_FAULT_POINT("pipelined.grid.kernel", group);
          kernels_->grid(params_, data, items, vis,
                         buffers[ticket.buffer].view());
        }
        {
          site = stage::kSubgridFft;
          obs::Span span(sink, stage::kSubgridFft, group);
          IDG_FAULT_POINT("pipelined.grid.fft", group);
          subgrid_fft(SubgridFftDirection::ToFourier,
                      buffers[ticket.buffer].view(), items.size());
        }
        IDG_FAULT_CORRUPT(
            "pipelined.grid.buffer", group,
            reinterpret_cast<float*>(buffers[ticket.buffer].data()),
            items.size() * active_floats);
        IDG_FAULT_POINT("pipelined.grid.push", group);
        if (!to_adder.push(ticket)) break;
      }
    } catch (...) {
      fail(site, group);
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
              reinterpret_cast<const float*>(buffers[ticket.buffer].data()),
              items.size() * active_floats);
          {
            obs::Span span(sink, stage::kAdder, group);
            IDG_FAULT_POINT("pipelined.grid.adder", group);
            adder_pool.parallel_for(
                binning.nr_tiles(),
                [&](std::size_t tile) {
                  add_tile(params_, items, binning, tile, subgrids, grid);
                },
                ctl.cancel);
          }
          sink.record_bytes(stage::kAdder,
                            adder_moved_bytes(params_, items.size()));
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

PipelinedDegridder::PipelinedDegridder(Parameters params,
                                       const KernelSet& kernels,
                                       std::size_t nr_buffers)
    : params_(params),
      kernels_(&kernels),
      nr_buffers_(nr_buffers),
      taper_(make_taper_for(params)) {
  params_.validate();
  IDG_CHECK(nr_buffers_ >= 2, "pipelining needs at least two buffers");
}

void PipelinedDegridder::degrid_visibilities(
    const Plan& plan, ArrayView<const UVW, 2> uvw,
    ArrayView<const cfloat, 3> grid, FlagView flags,
    ArrayView<const Jones, 4> aterms, ArrayView<Visibility, 3> visibilities,
    obs::MetricsSink& sink, const RunControl& ctl_in) const {
  check_grid_stack(params_, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params_.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const std::size_t n = params_.subgrid_size;
  const std::size_t nr_groups = plan.nr_work_groups();
  if (nr_groups == 0) return;

  // Mask pre-pass (kReject throws here, before any thread starts).
  DegridScrub scrubbed;
  if (flags.size() != 0) {
    obs::Span span(sink, stage::kScrub);
    scrubbed = scrub_degrid_plan(params_, plan, flags);
  }
  const bool zero_flagged =
      flags.size() != 0 &&
      params_.bad_sample_policy == BadSamplePolicy::kZeroAndContinue;

  std::vector<Array4D<cfloat>> buffers;
  buffers.reserve(nr_buffers_);
  for (std::size_t b = 0; b < nr_buffers_; ++b) {
    buffers.emplace_back(params_.work_group_size,
                         static_cast<std::size_t>(kNrPolarizations), n, n);
  }

  check_aterm_raster(aterms, n);
  KernelData data{uvw, plan.wavenumbers(), aterms, taper_.cview()};

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

  // The kernel streams: splitter (reads the immutable grid into the
  // group's buffer) -> subgrid IFFT -> degridder kernel per work group,
  // polling the cancel token before each stage so a deadline that expires
  // mid-group is seen at the next stage. Disjoint (baseline, time, channel)
  // blocks per work item make concurrent writes to `visibilities`
  // race-free, across streams as within one — the same disjointness makes
  // the per-group flag zeroing race-free.
  std::atomic<std::uint64_t> zeroed{0};
  const auto kernel_stream = [&] {
    const char* site = stage::kSplitter;
    std::int64_t group = -1;
    try {
      Ticket ticket;
      while (to_kernel.pop(ticket)) {
        const auto items = plan.work_group(ticket.group);
        group = static_cast<std::int64_t>(ticket.group);
        ctl.check_cancel("pipelined.degrid.splitter", group);
        {
          site = stage::kSplitter;
          obs::Span span(sink, stage::kSplitter, group);
          IDG_FAULT_POINT("pipelined.degrid.splitter", group);
          split_subgrids_from_grid(params_, items,
                                   plan.work_group_tiles(ticket.group), grid,
                                   buffers[ticket.buffer].view());
        }
        sink.record_bytes(stage::kSplitter,
                          splitter_moved_bytes(params_, items.size()));
        ctl.check_cancel("pipelined.degrid.fft", group);
        {
          site = stage::kSubgridFft;
          obs::Span span(sink, stage::kSubgridFft, group);
          IDG_FAULT_POINT("pipelined.degrid.fft", group);
          subgrid_fft(SubgridFftDirection::ToImage,
                      buffers[ticket.buffer].view(), items.size());
        }
        ctl.check_cancel("pipelined.degrid.kernel", group);
        {
          site = stage::kDegridder;
          obs::Span span(sink, stage::kDegridder, group);
          IDG_FAULT_POINT("pipelined.degrid.kernel", group);
          kernels_->degrid(params_, data, items,
                           buffers[ticket.buffer].cview(), visibilities);
        }
        if (zero_flagged) {
          zeroed += zero_flagged_outputs(items, flags, visibilities);
        }
        if (!free_buffers.push(ticket.buffer)) break;
      }
    } catch (...) {
      fail(site, group);
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

PipelinedProcessor::PipelinedProcessor(Parameters params,
                                       const KernelSet& kernels,
                                       std::size_t nr_buffers,
                                       std::size_t nr_adder_threads)
    : gridder_(params, kernels, nr_buffers, nr_adder_threads),
      degridder_(params, kernels, nr_buffers) {}

}  // namespace idg
