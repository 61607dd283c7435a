#include "idg/wstack.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "idg/image.hpp"
#include "idg/taper.hpp"

namespace idg {

namespace {
/// Rejects, by name and before any work starts, a plane stack that is not
/// [planes][4][G][G]: the transforms index it through raw pointers.
void check_plane_stack(ArrayView<const cfloat, 4> grids,
                       const WPlaneModel& wplanes, std::size_t g) {
  IDG_CHECK(grids.dim(0) == static_cast<std::size_t>(wplanes.nr_planes()) &&
                grids.dim(1) == kNrPolarizations && grids.dim(2) == g &&
                grids.dim(3) == g,
            "plane-grid stack is " << grids.dim(0) << "x" << grids.dim(1)
                                   << "x" << grids.dim(2) << "x"
                                   << grids.dim(3) << " but must be ["
                                   << wplanes.nr_planes() << "][4][" << g
                                   << "][" << g
                                   << "] (WStackProcessor::make_grids)");
}

/// The [P][4][G][G] plane stack as the [P*4][G][G] grid the executors
/// take (the same memory, plane by plane).
template <typename T>
ArrayView<T, 3> as_grid(ArrayView<T, 4> grids, const WPlaneModel& wplanes,
                        std::size_t g) {
  check_plane_stack(grids, wplanes, g);
  return {grids.data(),
          {grids.dim(0) * grids.dim(1), grids.dim(2), grids.dim(3)}};
}

}  // namespace

WStackProcessor::WStackProcessor(Parameters params, WPlaneModel wplanes,
                                 const KernelSet& kernels)
    : wplanes_(wplanes),
      processor_(params, kernels),
      screens_(make_screen_table(parameters(), wplanes_)),
      correction_(make_taper_correction_for(parameters())) {}

Plan WStackProcessor::make_plan(const Array2D<UVW>& uvw,
                                const std::vector<double>& frequencies,
                                const std::vector<Baseline>& baselines) const {
  return Plan(parameters(), uvw, frequencies, baselines, &wplanes_);
}

Array4D<cfloat> WStackProcessor::make_grids() const {
  const std::size_t g = parameters().grid_size;
  Array4D<cfloat> grids(kUninitialized,
                        static_cast<std::size_t>(wplanes_.nr_planes()),
                        static_cast<std::size_t>(kNrPolarizations), g, g);
  // Zeroed in one parallel loop, one image per iteration: the team faults
  // the pages in here, instead of one thread, and the grid call finds them
  // mapped.
  const std::size_t images = grids.dim(0) * grids.dim(1);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < images; ++i)
    std::fill_n(grids.data() + i * g * g, g * g, cfloat{});
  return grids;
}

void WStackProcessor::grid_visibilities(const Plan& plan,
                                        ArrayView<const UVW, 2> uvw,
                                        ArrayView<const Visibility, 3> visibilities,
                                        ArrayView<const Jones, 4> aterms,
                                        ArrayView<cfloat, 4> grids,
                                        obs::MetricsSink& sink) const {
  processor_.grid_visibilities(plan, uvw, visibilities, aterms,
                               as_grid(grids, wplanes_, parameters().grid_size),
                               sink);
}

void WStackProcessor::degrid_visibilities(const Plan& plan,
                                          ArrayView<const UVW, 2> uvw,
                                          ArrayView<const cfloat, 4> grids,
                                          ArrayView<const Jones, 4> aterms,
                                          ArrayView<Visibility, 3> visibilities,
                                          obs::MetricsSink& sink) const {
  processor_.degrid_visibilities(
      plan, uvw, as_grid(grids, wplanes_, parameters().grid_size), aterms,
      visibilities, sink);
}

Array3D<cfloat> WStackProcessor::make_dirty_image(
    ArrayView<const cfloat, 4> grids, std::uint64_t nr_visibilities) const {
  IDG_CHECK(nr_visibilities > 0, "nr_visibilities must be positive");
  const std::size_t g = parameters().grid_size;
  check_plane_stack(grids, wplanes_, g);
  Array3D<cfloat> image(kUninitialized, kNrPolarizations, g, g);
  planes_to_image(grids, screens_.cview(),
                  1.0f / static_cast<float>(nr_visibilities), correction_,
                  image.view());
  return image;
}

Array4D<cfloat> WStackProcessor::model_image_to_grids(
    const Array3D<cfloat>& model_image) const {
  const std::size_t g = parameters().grid_size;
  IDG_CHECK(model_image.dim(0) == kNrPolarizations &&
                model_image.dim(1) == g && model_image.dim(2) == g,
            "model image is " << model_image.dim(0) << "x"
                              << model_image.dim(1) << "x"
                              << model_image.dim(2) << " but must be [4][" << g
                              << "][" << g << "]");
  Array4D<cfloat> grids(kUninitialized,
                        static_cast<std::size_t>(wplanes_.nr_planes()),
                        static_cast<std::size_t>(kNrPolarizations), g, g);
  image_to_planes(model_image.cview(), screens_.cview(), correction_,
                  grids.view());
  return grids;
}

}  // namespace idg
