// Triple-buffered, asynchronous pipeline execution (paper §V-C-a, Fig 7).
//
// The paper's GPU implementation hides PCI-E transfers behind kernel
// execution: three host threads issue (1) host-to-device input copies,
// (2) kernel launches and (3) device-to-host result copies on three CUDA
// streams, synchronized with events, with three buffer sets so a stage can
// start on work group k+1 while the next stage still holds k.
//
// `PipelinedProcessor` reproduces that execution structure on the CPU. It
// holds one synchronous `Processor` and schedules that processor's group
// steps (idg/processor.hpp) differently: pipeline stages connected by
// bounded queues over a rotating pool of subgrid buffers,
//
//   stage L ("HtoD", the calling thread): hand a free buffer to the next
//     work group, in group order;
//   stage X ("kernel"), the kernel streams: Processor::grid_group_subgrids
//     (gridder kernel + subgrid FFT) or Processor::degrid_group (splitter +
//     subgrid IFFT + degridder kernel + flagged-output zeroing);
//   stage S ("DtoH", gridding only): adder into the grid.
//
// Stage X runs as several kernel streams, the CPU counterpart of the
// paper's CUDA streams: each is a thread that takes one (group, buffer)
// ticket at a time and runs one OpenMP team of the caller's size on it. A
// call starts omp_get_num_procs() / omp_get_max_threads() streams, at least
// one and at most nr_buffers - 1, so the kernels use every CPU the process
// may use. The streams finish groups out of order; stage S is one consumer
// that adds them in dispatch order (early tickets wait for their turn), so
// every grid pixel sums its groups in the synchronous order. Inside each
// ticket it fans the tile-binned adder out over a small WorkerPool: tiles
// are disjoint grid regions, so the workers accumulate concurrently
// without atomics (see adder.hpp). Degridding needs no stage S: work items
// own disjoint visibilities, so the streams write them directly.
//
// The stages are the synchronous Processor's own code, so the output is
// bit-identical to it (verified by tests). The buffer pool size (default
// 3 = triple buffering) bounds memory exactly like the paper's three
// device buffer sets. All threads record their spans into one shared
// obs::MetricsSink, so the aggregated per-stage view is directly
// comparable to the synchronous Processor's.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>

#include "common/array.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "idg/backend.hpp"
#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace idg {

/// Outcome of a timed queue wait.
enum class QueueWaitResult {
  kOk,       ///< element transferred
  kClosed,   ///< queue closed (graceful close: only after draining)
  kTimeout,  ///< deadline expired; queue still open
};

/// A minimal bounded MPMC queue for pipeline hand-off.
///
/// Shutdown has two flavours (the error-propagation contract, DESIGN.md
/// §11): close() is the graceful end-of-stream — producers stop, consumers
/// drain the remaining elements, then pop returns false. close_with_error()
/// aborts — pending elements are discarded, every blocked producer and
/// consumer wakes immediately, and the optional exception_ptr is kept for
/// introspection. Both are idempotent; an abort wins over a graceful close.
///
/// The queue always tracks its depth high-water mark (max_depth(), used by
/// the tests to assert the bound is respected); instrument() additionally
/// samples every depth change into the global trace as a counter track, so
/// the exported timeline shows the pipeline's back-pressure directly.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Names this queue's trace counter track and latches the global trace
  /// sink. Call before the producing/consuming threads start; a no-op when
  /// tracing is disabled.
  void instrument(const char* name) {
    std::lock_guard lock(mutex_);
    trace_ = obs::global_trace();
    trace_name_ = trace_ != nullptr ? trace_->intern(name) : nullptr;
  }

  std::size_t capacity() const { return capacity_; }

  /// Largest depth ever observed (never exceeds capacity()).
  std::size_t max_depth() const {
    std::lock_guard lock(mutex_);
    return max_depth_;
  }

  /// Blocks until there is room (or the queue closes). Returns false — and
  /// drops `value` — when the queue was closed; a producer that sees false
  /// should stop producing.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push(std::move(value));
    sample_depth_locked();
    not_empty_.notify_one();
    return true;
  }

  /// push() with a deadline: kTimeout when the queue stayed full.
  template <typename Rep, typename Period>
  QueueWaitResult push_for(T value,
                           std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (!not_full_.wait_for(lock, timeout, [&] {
          return closed_ || queue_.size() < capacity_;
        })) {
      return QueueWaitResult::kTimeout;
    }
    if (closed_) return QueueWaitResult::kClosed;
    queue_.push(std::move(value));
    sample_depth_locked();
    not_empty_.notify_one();
    return QueueWaitResult::kOk;
  }

  /// Blocks until an element or close(); returns false when drained+closed
  /// (immediately after close_with_error(), which discards the backlog).
  bool pop(T& out) {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop();
    sample_depth_locked();
    not_full_.notify_one();
    return true;
  }

  /// pop() with a deadline: kTimeout when the queue stayed empty and open.
  template <typename Rep, typename Period>
  QueueWaitResult pop_for(T& out, std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return !queue_.empty() || closed_; })) {
      return QueueWaitResult::kTimeout;
    }
    if (queue_.empty()) return QueueWaitResult::kClosed;
    out = std::move(queue_.front());
    queue_.pop();
    sample_depth_locked();
    not_full_.notify_one();
    return QueueWaitResult::kOk;
  }

  /// Graceful end-of-stream: consumers drain the backlog, then pop returns
  /// false; further pushes are refused.
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Aborting close: discards the backlog so consumers return immediately,
  /// wakes every blocked producer/consumer, and records `error` (optional)
  /// for introspection via error(). Idempotent; the first error sticks.
  void close_with_error(std::exception_ptr error = nullptr) {
    std::lock_guard lock(mutex_);
    closed_ = true;
    if (!error_) error_ = error;
    while (!queue_.empty()) queue_.pop();
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  /// The exception passed to close_with_error(), if any.
  std::exception_ptr error() const {
    std::lock_guard lock(mutex_);
    return error_;
  }

 private:
  void sample_depth_locked() {
    const std::size_t depth = queue_.size();
    if (depth > max_depth_) max_depth_ = depth;
    if (trace_ != nullptr) {
      trace_->record_counter(trace_name_, static_cast<std::int64_t>(depth));
    }
  }

  std::size_t capacity_;
  std::queue<T> queue_;
  bool closed_ = false;
  std::exception_ptr error_;
  std::size_t max_depth_ = 0;
  obs::TraceSink* trace_ = nullptr;
  const char* trace_name_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

/// Shared failure state of one pipeline run (DESIGN.md §11).
///
/// Each stage thread wraps its loop in try/catch; the first exception is
/// stored here (annotated with the stage site) and every queue is closed
/// with close_with_error() so all stages unwind within a bounded time. The
/// orchestrating thread joins the stage threads and calls
/// rethrow_if_failed(), which surfaces the failure as one descriptive
/// idg::Error on the caller — never a deadlock, never a silent bad grid.
class PipelineError {
 public:
  /// Records the first failure (later ones are dropped — the first cause
  /// is the one worth reporting). Returns true when this call stored it.
  bool set(const char* site, std::int64_t group, std::exception_ptr error) {
    std::lock_guard lock(mutex_);
    if (error_) return false;
    error_ = error;
    site_ = site;
    group_ = group;
    failed_.store(true, std::memory_order_release);
    return true;
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Rethrows the stored failure as idg::StageFailure with the stage site
  /// and work-group id prepended (and available structurally, for the
  /// resilient supervisor's retry/quarantine decisions); no-op when
  /// nothing failed. A StageFailure — what a Processor group step raises,
  /// already naming its stage and group — and a CancelledError are
  /// rethrown unchanged: a deadline abort that unwound a stage thread is a
  /// cancellation, not a stage failure, and must never look retryable.
  void rethrow_if_failed() const {
    std::exception_ptr error;
    const char* site = nullptr;
    std::int64_t group = -1;
    {
      std::lock_guard lock(mutex_);
      if (!error_) return;
      error = error_;
      site = site_;
      group = group_;
    }
    std::ostringstream oss;
    oss << "pipeline stage '" << site << "'";
    if (group >= 0) oss << " (work group " << group << ")";
    oss << " failed: ";
    try {
      std::rethrow_exception(error);
    } catch (const CancelledError&) {
      throw;
    } catch (const StageFailure&) {
      throw;
    } catch (const std::exception& e) {
      throw StageFailure(oss.str() + e.what(), site, group);
    } catch (...) {
      throw StageFailure(oss.str() + "unknown exception", site, group);
    }
  }

 private:
  mutable std::mutex mutex_;
  std::exception_ptr error_;
  const char* site_ = "";
  std::int64_t group_ = -1;
  std::atomic<bool> failed_{false};
};

/// The asynchronous execution backend: the synchronous Processor's group
/// steps, scheduled on kernel streams over a rotating buffer pool. Results
/// are identical to Processor::grid_visibilities / degrid_visibilities.
class PipelinedProcessor : public GridderBackend {
 public:
  /// `nr_buffers` = 3 reproduces the paper's triple buffering.
  /// `nr_adder_threads` sizes the adder stage's worker pool (including the
  /// consumer thread itself); 0 picks a small machine-dependent default.
  explicit PipelinedProcessor(Parameters params,
                              const KernelSet& kernels = reference_kernels(),
                              std::size_t nr_buffers = 3,
                              std::size_t nr_adder_threads = 0);

  std::string name() const override { return "pipelined"; }
  const Parameters& parameters() const override {
    return processor_.parameters();
  }

  using GridderBackend::grid;
  using GridderBackend::degrid;
  /// Grids all planned visibilities; the kernel streams and the adder
  /// thread record their spans concurrently into `sink` (thread-safe
  /// accumulation). Flagged / non-finite samples are scrubbed up front (on
  /// the calling thread) per Parameters::bad_sample_policy; a stage
  /// failure closes every queue, joins the threads and rethrows as a
  /// descriptive idg::StageFailure. `ctl` carries the run's CancelToken
  /// (polled before every stage in every stage thread and per poll
  /// interval in the dispatch wait loop — a deadline abort surfaces as
  /// CancelledError within bounded time) and the supervisor's work-group
  /// skip mask.
  void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
            ArrayView<const Visibility, 3> visibilities, FlagView flags,
            ArrayView<const Jones, 4> aterms, ArrayView<cfloat, 3> grid,
            obs::MetricsSink& sink, const RunControl& ctl) const override;
  /// Predicts all planned visibilities, each kernel stream running the
  /// degrid step on its work group, several groups at once.
  void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
              ArrayView<const cfloat, 3> grid, FlagView flags,
              ArrayView<const Jones, 4> aterms,
              ArrayView<Visibility, 3> visibilities, obs::MetricsSink& sink,
              const RunControl& ctl) const override;

 private:
  Processor processor_;
  std::size_t nr_buffers_;
  std::size_t nr_adder_threads_;
};

}  // namespace idg
