// High-level gridding and degridding pipelines (paper Fig 4).
//
// `Processor` owns the taper and a kernel set and executes the three-stage
// pipelines work-group by work-group:
//
//   gridding:    gridder kernel -> subgrid FFT -> adder
//   degridding:  splitter -> subgrid IFFT -> degridder kernel
//
// The per-group stages exist once per direction, as the group steps
// grid_group_subgrids and degrid_group. Every executor runs them: this
// synchronous loop, the pipelined executor's kernel streams
// (idg/pipelined.hpp) and the shard workers (src/shard/worker.cpp); only
// the scheduling differs. The subgrid buffer is sized for one work group
// and reused, mirroring the bounded device buffers of the paper's GPU
// implementation. Per-stage wall times, invocation counts and analytic
// op/byte counters are recorded into an injected obs::MetricsSink — the
// measurement substrate for the runtime and energy distribution figures
// (Figs 9, 14).
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

/// The site names an executor reports from a group step (DESIGN.md §11):
/// each stage's fault-injection site, which is also the cancel check site
/// polled right before that stage. Each executor passes its own, so a
/// fault or a cancellation names the executor that ran the step.
struct GridSites {
  const char* kernel;  ///< the gridder kernel
  const char* fft;     ///< the subgrid FFT
  const char* buffer;  ///< corrupt target: the group's post-FFT subgrids
};
struct DegridSites {
  const char* splitter;
  const char* fft;     ///< the subgrid IFFT
  const char* kernel;  ///< the degridder kernel
};
inline constexpr GridSites kProcessorGridSites{
    "processor.grid.kernel", "processor.grid.fft", "processor.grid.buffer"};
inline constexpr DegridSites kProcessorDegridSites{
    "processor.degrid.splitter", "processor.degrid.fft",
    "processor.degrid.kernel"};

/// Scratch for one work group's subgrids, [work_group_size][4][n][n]: the
/// buffer the group steps and the adder work on.
Array4D<cfloat> make_group_subgrids(const Parameters& params);

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

  /// The kernels' inputs of one call, with this processor's taper.
  /// Rejects an A-term raster that is not the subgrid's.
  KernelData kernel_data(const Plan& plan, ArrayView<const UVW, 2> uvw,
                         ArrayView<const Jones, 4> aterms) const;

  /// The gridding step for ONE work group: gridder kernel + subgrid FFT
  /// into `subgrids` ([>= items][4][n][n]; only the group's item count is
  /// written). `visibilities` must already be scrubbed
  /// (scrub_gridder_input). Each stage runs under one span and its stage
  /// context, after a cancel check, at the `sites` of the calling executor.
  void grid_group_subgrids(const Plan& plan, std::size_t g,
                           const KernelData& data,
                           ArrayView<const Visibility, 3> visibilities,
                           ArrayView<cfloat, 4> subgrids,
                           obs::MetricsSink& sink, const RunControl& ctl,
                           const GridSites& sites) const;

  /// The degridding step for ONE work group: splitter -> subgrid IFFT ->
  /// degridder kernel through the scratch `subgrids`, overwriting the
  /// group's entries of `visibilities`; under kZeroAndContinue it then
  /// zeroes the group's flagged predictions and returns how many. Groups
  /// own disjoint visibilities, so concurrent steps on different groups
  /// never race. Spans, stage contexts and cancel checks as for
  /// grid_group_subgrids.
  std::uint64_t degrid_group(const Plan& plan, std::size_t g,
                             const KernelData& data,
                             ArrayView<const cfloat, 3> grid, FlagView flags,
                             ArrayView<cfloat, 4> subgrids,
                             ArrayView<Visibility, 3> visibilities,
                             obs::MetricsSink& sink, const RunControl& ctl,
                             const DegridSites& sites) const;

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
