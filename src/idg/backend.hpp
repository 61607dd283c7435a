// Unified execution-backend interface.
//
// The paper evaluates one algorithm (IDG) under several execution
// strategies: the synchronous three-stage pipeline of Fig 4 and the
// triple-buffered asynchronous pipeline of Fig 7. `GridderBackend`
// abstracts "grid/degrid all planned visibilities" over those strategies so
// benches, examples and the future service layer select an implementation
// by name (`make_backend`) instead of hard-coding a concrete type, and so
// every backend reports into the same observability layer (obs::MetricsSink).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/array.hpp"
#include "common/cancel.hpp"
#include "common/types.hpp"
#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "obs/sink.hpp"

namespace idg {

/// Per-run execution controls threaded through every backend (DESIGN.md
/// §12): an optional cooperative CancelToken polled at the catalogued
/// check sites, and an optional per-work-group skip mask (one byte per
/// plan work group, non-zero = skip) used by the resilient supervisor to
/// re-run only the groups that still need work after a retry/quarantine
/// decision. The default-constructed value means "run everything, never
/// cancel" — the behaviour of every pre-supervisor call site.
struct RunControl {
  const CancelToken* cancel = nullptr;
  std::span<const std::uint8_t> skip_groups;

  /// True when work group `g` must be skipped. Groups beyond the mask run
  /// normally, so an empty mask skips nothing.
  bool group_skipped(std::size_t g) const {
    return g < skip_groups.size() && skip_groups[g] != 0;
  }

  /// Polls the cancel token (no-op when none is attached).
  void check_cancel(const char* site, std::int64_t group = -1) const {
    if (cancel != nullptr) cancel->check(site, group);
  }
};

/// Binds Parameters::deadline_ms to a RunControl for the duration of one
/// grid/degrid call: when the caller's RunControl carries no token and the
/// parameters set a deadline, owns a fresh deadline token; either way the
/// effective token is registered in the process-wide cancel registry
/// (CancelScope) so injected delay sleeps stay interruptible. Used by both
/// executors at the top of every run.
class ScopedRunControl {
 public:
  ScopedRunControl(const RunControl& ctl, std::uint32_t deadline_ms)
      : eff_(ctl) {
    if (eff_.cancel == nullptr && deadline_ms > 0) {
      deadline_.emplace(deadline_ms);
      eff_.cancel = &*deadline_;
    }
    if (eff_.cancel != nullptr) scope_.emplace(*eff_.cancel);
  }

  ScopedRunControl(const ScopedRunControl&) = delete;
  ScopedRunControl& operator=(const ScopedRunControl&) = delete;

  const RunControl& ctl() const { return eff_; }

 private:
  RunControl eff_;
  std::optional<CancelToken> deadline_;
  std::optional<CancelScope> scope_;
};

/// Gridding/degridding over a Plan, metrics reported into a MetricsSink.
class GridderBackend {
 public:
  virtual ~GridderBackend() = default;

  /// Backend name as accepted by make_backend().
  virtual std::string name() const = 0;

  virtual const Parameters& parameters() const = 0;

  /// Grids all planned visibilities onto `grid` (accumulated), a plane
  /// stack [planes*4][N][N] stored plane by plane: each work item adds to
  /// the four polarisations of its w_plane, so a plain plan needs one plane
  /// and a w-stacked plan one per w-plane (check_grid_stack rejects a
  /// shorter stack). Per-stage wall time and op counts are recorded into
  /// `sink`. `flags`
  /// is the dataset's per-visibility mask (empty = nothing flagged);
  /// flagged and non-finite samples are handled per
  /// Parameters::bad_sample_policy (idg/scrub.hpp, DESIGN.md §11). `ctl`
  /// carries the run's cancellation token and work-group skip mask; groups
  /// masked out by ctl contribute nothing to `grid` (partial-result
  /// semantics identical to BadSamplePolicy::kSkipWorkGroup).
  virtual void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                    ArrayView<const Visibility, 3> visibilities,
                    FlagView flags, ArrayView<const Jones, 4> aterms,
                    ArrayView<cfloat, 3> grid, obs::MetricsSink& sink,
                    const RunControl& ctl) const = 0;

  /// Predicts all planned visibilities from `grid` (the same plane stack;
  /// overwrites the covered entries of `visibilities`); metrics are
  /// recorded into `sink`. Flagged
  /// predictions are handled per Parameters::bad_sample_policy; groups
  /// masked out by `ctl` leave their visibilities untouched.
  virtual void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                      ArrayView<const cfloat, 3> grid, FlagView flags,
                      ArrayView<const Jones, 4> aterms,
                      ArrayView<Visibility, 3> visibilities,
                      obs::MetricsSink& sink,
                      const RunControl& ctl) const = 0;

  /// Convenience overloads without run controls, flag mask and/or sink.
  void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
            ArrayView<const Visibility, 3> visibilities, FlagView flags,
            ArrayView<const Jones, 4> aterms, ArrayView<cfloat, 3> grid,
            obs::MetricsSink& sink) const {
    this->grid(plan, uvw, visibilities, flags, aterms, grid, sink,
               RunControl{});
  }
  void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
              ArrayView<const cfloat, 3> grid, FlagView flags,
              ArrayView<const Jones, 4> aterms,
              ArrayView<Visibility, 3> visibilities,
              obs::MetricsSink& sink) const {
    this->degrid(plan, uvw, grid, flags, aterms, visibilities, sink,
                 RunControl{});
  }
  void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<const Jones, 4> aterms, ArrayView<cfloat, 3> grid,
            obs::MetricsSink& sink) const {
    this->grid(plan, uvw, visibilities, FlagView{}, aterms, grid, sink);
  }
  void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<const Jones, 4> aterms, ArrayView<cfloat, 3> grid) const {
    this->grid(plan, uvw, visibilities, FlagView{}, aterms, grid,
               obs::null_sink());
  }
  void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
              ArrayView<const cfloat, 3> grid,
              ArrayView<const Jones, 4> aterms,
              ArrayView<Visibility, 3> visibilities,
              obs::MetricsSink& sink) const {
    this->degrid(plan, uvw, grid, FlagView{}, aterms, visibilities, sink);
  }
  void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
              ArrayView<const cfloat, 3> grid,
              ArrayView<const Jones, 4> aterms,
              ArrayView<Visibility, 3> visibilities) const {
    this->degrid(plan, uvw, grid, FlagView{}, aterms, visibilities,
                 obs::null_sink());
  }
};

/// Recovery policy of one ResilientBackend (DESIGN.md §12). Lives here —
/// not in supervisor.hpp — so BackendOptions can carry the supervisor
/// knobs without a header cycle.
struct SupervisorConfig {
  /// Failed attempts a single work group is allowed before quarantine.
  std::uint32_t max_attempts_per_group = 3;
  /// Failures on the active backend before failing over to the fallback
  /// (when one is configured). Counts every failed attempt, attributable
  /// or not: a backend that keeps failing is suspect even when the
  /// failures name a group.
  std::uint32_t failover_after = 2;
  /// Hard bound on attempts per grid/degrid call; 0 derives a bound that
  /// still lets every group exhaust its attempts
  /// (nr_groups * max_attempts_per_group + failover_after + 1).
  std::uint32_t max_run_attempts = 0;
  /// Backoff between attempts: min(cap, base << attempt) milliseconds plus
  /// a deterministic jitter drawn from `seed` — bounded, reproducible, and
  /// interruptible by the run's CancelToken.
  std::uint32_t backoff_base_ms = 1;
  std::uint32_t backoff_cap_ms = 50;
  std::uint64_t seed = 0;
  /// Per-run deadline override; 0 falls back to Parameters::deadline_ms.
  /// The supervisor owns the deadline token so its backoff sleeps count
  /// against the deadline too.
  std::uint32_t deadline_ms = 0;
};

/// Structured backend selection: what the string spelling
/// ("resilient:<inner>" etc.) used to encode, in one options struct (the
/// string form remains as parse_backend_spec, a thin parser over this).
struct BackendOptions {
  /// Executor: "synchronous" (Processor), "pipelined" (PipelinedProcessor)
  /// or "resilient" (ResilientBackend). Aliases "sync"/"processor" and
  /// "async" are accepted.
  std::string executor = "synchronous";

  /// Inner executor wrapped by a resilient backend; empty = "pipelined"
  /// (the default pairing: pipelined primary, synchronous failover).
  /// Ignored for non-resilient executors.
  std::string inner;

  /// Supervisor knobs for the resilient executor; nullopt = defaults.
  /// Setting this on a non-resilient executor wraps it in a
  /// ResilientBackend (the --retries convention of the benches).
  std::optional<SupervisorConfig> supervisor;

  /// Kernel set the executors run; nullptr = the reference set. The
  /// reference set honours Parameters::accumulation, so an
  /// epsilon-configured Parameters keeps its accuracy contract with the
  /// default. Callers linking the optimized kernel library can pass
  /// &kernels::kernel_set(accuracy::preferred_kernel_set(params)) for the
  /// tier's faster kernels. make_backend() rejects a set that does not
  /// implement params.accumulation (check_accumulation). Must outlive the
  /// returned backend.
  const KernelSet* kernels = nullptr;
};

/// Parses the string spelling of a backend selection into options:
/// "synchronous" | "sync" | "processor" | "pipelined" | "async" |
/// "resilient" | "resilient:<inner>". Throws idg::Error for unknown names,
/// listing the valid ones.
BackendOptions parse_backend_spec(const std::string& spec);

/// Names accepted by parse_backend_spec()/make_backend(), in preference
/// order: "synchronous" (Processor), "pipelined" (PipelinedProcessor) and
/// "resilient" (ResilientBackend wrapping "pipelined"; spell
/// "resilient:<inner>" to wrap a specific inner backend).
std::vector<std::string> backend_names();

/// Creates the backend the options describe. A resilient selection wraps
/// the inner executor with the synchronous executor as failover (unless
/// the inner IS synchronous, which then runs with retry/quarantine only).
std::unique_ptr<GridderBackend> make_backend(const BackendOptions& options,
                                             const Parameters& params);

/// String-spelling convenience: make_backend(parse_backend_spec(name) with
/// `kernels`). The KernelSet must outlive the returned backend.
std::unique_ptr<GridderBackend> make_backend(
    const std::string& name, const Parameters& params,
    const KernelSet& kernels = reference_kernels());

}  // namespace idg
