// High-level gridding and degridding pipelines (paper Fig 4).
//
// `Processor` owns the taper and a kernel set and executes the three-stage
// pipelines work-group by work-group:
//
//   gridding:    gridder kernel -> subgrid FFT -> adder
//   degridding:  splitter -> subgrid IFFT -> degridder kernel
//
// The subgrid buffer is sized for one work group and reused, mirroring the
// bounded device buffers of the paper's GPU implementation. Per-stage wall
// times, invocation counts and analytic op/byte counters are recorded into
// an injected obs::MetricsSink — the measurement substrate for the runtime
// and energy distribution figures (Figs 9, 14).
#pragma once

#include <functional>

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/backend.hpp"
#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "obs/sink.hpp"

namespace idg {

/// Stage-name constants shared with the benches.
namespace stage {
inline constexpr const char* kGridder = "gridder";
inline constexpr const char* kDegridder = "degridder";
inline constexpr const char* kSubgridFft = "subgrid-fft";
inline constexpr const char* kAdder = "adder";
inline constexpr const char* kSplitter = "splitter";
inline constexpr const char* kGridFft = "grid-fft";
inline constexpr const char* kScrub = "scrub";
}  // namespace stage

/// Third gridding stage for ONE work group: accumulates its post-FFT
/// subgrids into `grid` in the canonical per-tile item order, under one
/// adder span and with one moved-bytes record. Calling this for groups
/// 0..G-1 in ascending order reproduces the single-process accumulation bit
/// for bit — the property the shard coordinator's in-order merge relies on.
/// `parallel` = false adds the tiles on the calling thread instead of an
/// OpenMP team (the coordinator's cores belong to its worker processes);
/// every tile's sum order, and so the grid, is the same either way.
void add_group_to_grid(const Parameters& params, const Plan& plan,
                       std::size_t g, ArrayView<const cfloat, 4> subgrids,
                       ArrayView<cfloat, 3> grid, obs::MetricsSink& sink,
                       bool parallel = true);

class Processor : public GridderBackend {
 public:
  explicit Processor(Parameters params,
                     const KernelSet& kernels = reference_kernels());

  std::string name() const override { return "synchronous"; }
  const Parameters& parameters() const override { return params_; }
  const KernelSet& kernels() const { return *kernels_; }
  const Array2D<float>& taper() const { return taper_; }

  /// Grids all planned visibilities onto `grid`, a [planes*4][N][N] plane
  /// stack (accumulated; one plane for a plain plan, see GridderBackend).
  /// Per-stage wall time and op counts are recorded into `sink`; flagged /
  /// non-finite samples are scrubbed per Parameters::bad_sample_policy.
  /// `ctl` (optional) carries the run's CancelToken and work-group skip
  /// mask; Parameters::deadline_ms attaches a deadline token automatically
  /// when `ctl` has none.
  void grid_visibilities(const Plan& plan, ArrayView<const UVW, 2> uvw,
                         ArrayView<const Visibility, 3> visibilities,
                         FlagView flags, ArrayView<const Jones, 4> aterms,
                         ArrayView<cfloat, 3> grid,
                         obs::MetricsSink& sink = obs::null_sink(),
                         const RunControl& ctl = RunControl{}) const;
  void grid_visibilities(const Plan& plan, ArrayView<const UVW, 2> uvw,
                         ArrayView<const Visibility, 3> visibilities,
                         ArrayView<const Jones, 4> aterms,
                         ArrayView<cfloat, 3> grid,
                         obs::MetricsSink& sink = obs::null_sink()) const {
    grid_visibilities(plan, uvw, visibilities, FlagView{}, aterms, grid, sink);
  }

  /// First two gridding stages for ONE work group: gridder kernel +
  /// subgrid FFT into `subgrids` ([>= items][4][n][n]; only the group's
  /// item count is written). `visibilities` must already be scrubbed
  /// (scrub_gridder_input) — this is the post-scrub per-group unit the
  /// shard workers execute remotely (src/shard/worker.cpp). Spans and
  /// fault sites are identical to the in-process grid loop.
  void grid_group_subgrids(const Plan& plan, std::size_t g,
                           const KernelData& data,
                           ArrayView<const Visibility, 3> visibilities,
                           ArrayView<cfloat, 4> subgrids,
                           obs::MetricsSink& sink = obs::null_sink()) const;

  /// Predicts all planned visibilities from the plane stack `grid`
  /// (overwrites the covered entries of `visibilities`; un-planned entries
  /// are left untouched).
  void degrid_visibilities(const Plan& plan, ArrayView<const UVW, 2> uvw,
                           ArrayView<const cfloat, 3> grid, FlagView flags,
                           ArrayView<const Jones, 4> aterms,
                           ArrayView<Visibility, 3> visibilities,
                           obs::MetricsSink& sink = obs::null_sink(),
                           const RunControl& ctl = RunControl{}) const;
  void degrid_visibilities(const Plan& plan, ArrayView<const UVW, 2> uvw,
                           ArrayView<const cfloat, 3> grid,
                           ArrayView<const Jones, 4> aterms,
                           ArrayView<Visibility, 3> visibilities,
                           obs::MetricsSink& sink = obs::null_sink()) const {
    degrid_visibilities(plan, uvw, grid, FlagView{}, aterms, visibilities,
                        sink);
  }

  // GridderBackend: forwards to grid_/degrid_visibilities.
  using GridderBackend::grid;
  using GridderBackend::degrid;
  void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
            ArrayView<const Visibility, 3> visibilities, FlagView flags,
            ArrayView<const Jones, 4> aterms, ArrayView<cfloat, 3> grid,
            obs::MetricsSink& sink, const RunControl& ctl) const override {
    grid_visibilities(plan, uvw, visibilities, flags, aterms, grid, sink, ctl);
  }
  void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
              ArrayView<const cfloat, 3> grid, FlagView flags,
              ArrayView<const Jones, 4> aterms,
              ArrayView<Visibility, 3> visibilities, obs::MetricsSink& sink,
              const RunControl& ctl) const override {
    degrid_visibilities(plan, uvw, grid, flags, aterms, visibilities, sink,
                        ctl);
  }

 private:
  Parameters params_;
  const KernelSet* kernels_;
  Array2D<float> taper_;
};

}  // namespace idg
