#include "idg/wstack.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "idg/image.hpp"
#include "idg/taper.hpp"

namespace idg {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// The [P][4][G][G] plane stack as the [P*4][G][G] grid the executors
/// take (the same memory, plane by plane).
template <typename T>
ArrayView<T, 3> as_grid(ArrayView<T, 4> grids, const WPlaneModel& wplanes) {
  IDG_CHECK(grids.dim(0) == static_cast<std::size_t>(wplanes.nr_planes()),
            "plane-grid stack has wrong number of planes");
  return {grids.data(),
          {grids.dim(0) * grids.dim(1), grids.dim(2), grids.dim(3)}};
}

/// The [4][G][G] slice of plane p of the [P][4][G][G] plane stack.
template <typename T>
ArrayView<T, 3> plane_slice(ArrayView<T, 4> grids, int p) {
  const std::size_t stride = grids.dim(1) * grids.dim(2) * grids.dim(3);
  return {grids.data() + static_cast<std::size_t>(p) * stride,
          {grids.dim(1), grids.dim(2), grids.dim(3)}};
}

/// Multiplies a [4][G][G] cube by exp(sign * 2*pi*i * w0 * n(l,m)) on the
/// full-resolution raster.
void apply_w_screen(ArrayView<cfloat, 3> cube, const Parameters& params,
                    double w0, double sign) {
  const std::size_t g = params.grid_size;
#pragma omp parallel for schedule(static)
  for (std::size_t y = 0; y < g; ++y) {
    const float m = params.grid_lm(y);
    for (std::size_t x = 0; x < g; ++x) {
      const float l = params.grid_lm(x);
      const double phase = sign * kTwoPi * w0 * compute_n(l, m);
      const cfloat screen(static_cast<float>(std::cos(phase)),
                          static_cast<float>(std::sin(phase)));
      for (std::size_t p = 0; p < kNrPolarizations; ++p)
        cube(p, y, x) *= screen;
    }
  }
}
}  // namespace

WStackProcessor::WStackProcessor(Parameters params, WPlaneModel wplanes,
                                 const KernelSet& kernels)
    : wplanes_(wplanes), processor_(params, kernels) {}

Plan WStackProcessor::make_plan(const Array2D<UVW>& uvw,
                                const std::vector<double>& frequencies,
                                const std::vector<Baseline>& baselines) const {
  return Plan(parameters(), uvw, frequencies, baselines, &wplanes_);
}

Array4D<cfloat> WStackProcessor::make_grids() const {
  const std::size_t g = parameters().grid_size;
  return Array4D<cfloat>(static_cast<std::size_t>(wplanes_.nr_planes()),
                         static_cast<std::size_t>(kNrPolarizations), g, g);
}

void WStackProcessor::grid_visibilities(const Plan& plan,
                                        ArrayView<const UVW, 2> uvw,
                                        ArrayView<const Visibility, 3> visibilities,
                                        ArrayView<const Jones, 4> aterms,
                                        ArrayView<cfloat, 4> grids,
                                        obs::MetricsSink& sink) const {
  processor_.grid_visibilities(plan, uvw, visibilities, aterms,
                               as_grid(grids, wplanes_), sink);
}

void WStackProcessor::degrid_visibilities(const Plan& plan,
                                          ArrayView<const UVW, 2> uvw,
                                          ArrayView<const cfloat, 4> grids,
                                          ArrayView<const Jones, 4> aterms,
                                          ArrayView<Visibility, 3> visibilities,
                                          obs::MetricsSink& sink) const {
  processor_.degrid_visibilities(plan, uvw, as_grid(grids, wplanes_), aterms,
                                 visibilities, sink);
}

Array3D<cfloat> WStackProcessor::make_dirty_image(
    ArrayView<const cfloat, 4> grids, std::uint64_t nr_visibilities) const {
  IDG_CHECK(nr_visibilities > 0, "nr_visibilities must be positive");
  const std::size_t g = parameters().grid_size;
  Array3D<cfloat> accum(kNrPolarizations, g, g);
  Array3D<cfloat> work(kNrPolarizations, g, g);

  for (int p = 0; p < wplanes_.nr_planes(); ++p) {
    auto plane = plane_slice(grids, p);
    std::copy(plane.begin(), plane.end(), work.begin());
    fft_grid_to_image(work.view());
    // Undo the plane's residual w phase: multiply by e^{+2 pi i w_p n}.
    apply_w_screen(work.view(), parameters(), wplanes_.center(p), +1.0);
    for (std::size_t i = 0; i < accum.size(); ++i)
      accum.data()[i] += work.data()[i];
  }

  const Array2D<float> correction = make_taper_correction_for(parameters());
  const float scale = 1.0f / static_cast<float>(nr_visibilities);
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < kNrPolarizations; ++p)
    for (std::size_t y = 0; y < g; ++y)
      for (std::size_t x = 0; x < g; ++x)
        accum(p, y, x) *= scale * correction(y, x);
  return accum;
}

Array4D<cfloat> WStackProcessor::model_image_to_grids(
    const Array3D<cfloat>& model_image) const {
  const std::size_t g = parameters().grid_size;
  IDG_CHECK(model_image.dim(1) == g, "model image size mismatch");
  Array4D<cfloat> grids = make_grids();
  const Array2D<float> correction = make_taper_correction_for(parameters());

  for (int p = 0; p < wplanes_.nr_planes(); ++p) {
    auto plane = plane_slice(grids.view(), p);
    for (std::size_t pol = 0; pol < kNrPolarizations; ++pol)
      for (std::size_t y = 0; y < g; ++y)
        for (std::size_t x = 0; x < g; ++x)
          plane(pol, y, x) = model_image(pol, y, x) * correction(y, x);
    // Conjugate screen: the degridder restores e^{-2 pi i w n} exactly for
    // w = w_p and corrects the residual per visibility.
    apply_w_screen(plane, parameters(), wplanes_.center(p), -1.0);
    fft_image_to_grid(plane);
  }
  return grids;
}

}  // namespace idg
