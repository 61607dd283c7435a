// W-stacking support (paper §III, §IV, §VI-E).
//
// Plain IDG corrects the W-term per visibility inside the subgrid:
// exp(2*pi*i*(w - w0)*n(l, m)) evaluated on the subgrid raster. That raster
// samples the field of view at only N-tilde pixels, so for very large |w|
// the phase screen becomes undersampled and accuracy degrades. W-stacking
// bounds the residual |w - w0| by partitioning the w range into planes:
// every work item is assigned the nearest plane's centre as its w_offset,
// its subgrid is added onto that plane's own grid, and the final image is
// the sum of the per-plane images each corrected by its plane's w screen:
//
//   image(l,m) = (1/N_vis) * sum_p IFFT(grid_p)(l,m) * e^{+2*pi*i*w_p*n(l,m)}
//
// (degridding applies the conjugate screens before the forward FFTs).
//
// The paper notes this combination lets IDG use large subgrids "to
// dramatically limit the number of required W-planes" compared to
// W-projection.
//
// The plane stack [nr_planes][4][grid][grid] is exactly the grid every
// executor takes, [nr_planes*4][grid][grid] stored plane by plane: the
// tiled adder and splitter route each work item to its plane (adder.hpp).
// So gridding and degridding forward to the synchronous Processor, with
// its scrub policy, deadlines, cancellation, fault sites and moved-byte
// accounting; this class adds the plan's plane assignment and the
// plane-combination image transforms. Those are image.hpp's transform pair
// with this processor's w screens: the screens (a quarter raster per
// plane, 1/16 of a plane stack) and the taper correction are built once,
// in the constructor, and every call runs one parallel loop of
// (plane, polarisation) tasks that gives the same bits as transforming,
// screening and summing plane by plane (DESIGN.md §9).
#pragma once

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/wplane.hpp"
#include "obs/sink.hpp"

namespace idg {

/// W-stacking gridding/degridding driver: plans with w-plane assignments,
/// grids and degrids the plane stack through a Processor, and combines the
/// planes into images.
class WStackProcessor {
 public:
  WStackProcessor(Parameters params, WPlaneModel wplanes,
                  const KernelSet& kernels = reference_kernels());

  const Parameters& parameters() const { return processor_.parameters(); }
  const WPlaneModel& wplanes() const { return wplanes_; }

  /// Builds a plan whose work items carry their w-plane assignment.
  Plan make_plan(const Array2D<UVW>& uvw,
                 const std::vector<double>& frequencies,
                 const std::vector<Baseline>& baselines) const;

  /// Allocates the zeroed plane-grid stack: [nr_planes][4][grid][grid].
  Array4D<cfloat> make_grids() const;

  /// Grids all planned visibilities onto the plane stack; per-stage wall
  /// time and op counts are recorded into `sink`.
  void grid_visibilities(const Plan& plan, ArrayView<const UVW, 2> uvw,
                         ArrayView<const Visibility, 3> visibilities,
                         ArrayView<const Jones, 4> aterms,
                         ArrayView<cfloat, 4> grids,
                         obs::MetricsSink& sink = obs::null_sink()) const;

  /// Predicts all planned visibilities from the plane stack.
  void degrid_visibilities(const Plan& plan, ArrayView<const UVW, 2> uvw,
                           ArrayView<const cfloat, 4> grids,
                           ArrayView<const Jones, 4> aterms,
                           ArrayView<Visibility, 3> visibilities,
                           obs::MetricsSink& sink = obs::null_sink()) const;

  /// Combines the plane stack into the taper-corrected dirty image
  /// (per-plane IFFT, w-screen multiply, sum, correction). `grids` must be
  /// [nr_planes][4][grid][grid]; any other shape is rejected by name.
  Array3D<cfloat> make_dirty_image(ArrayView<const cfloat, 4> grids,
                                   std::uint64_t nr_visibilities) const;

  /// Prepares per-plane model grids from a [4][grid][grid] model image
  /// (taper division, conjugate w screens, forward FFTs).
  Array4D<cfloat> model_image_to_grids(
      const Array3D<cfloat>& model_image) const;

 private:
  WPlaneModel wplanes_;
  Processor processor_;
  Array3D<cfloat> screens_;   ///< make_screen_table of the planes
  Array2D<float> correction_;  ///< make_taper_correction_for(parameters())
};

}  // namespace idg
