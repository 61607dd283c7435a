#include "idg/wstack.hpp"

#include <omp.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "idg/image.hpp"
#include "idg/taper.hpp"

namespace idg {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Rejects, by name and before any work starts, a plane stack that is not
/// [planes][4][G][G]: the passes below index it through raw pointers.
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

/// The [4][G][G] slice of plane p of the [P][4][G][G] plane stack.
template <typename T>
ArrayView<T, 3> plane_slice(ArrayView<T, 4> grids, int p) {
  const std::size_t stride = grids.dim(1) * grids.dim(2) * grids.dim(3);
  return {grids.data() + static_cast<std::size_t>(p) * stride,
          {grids.dim(1), grids.dim(2), grids.dim(3)}};
}

/// Writes row y of the screen exp(sign * 2*pi*i * w0 * n(l, m)) on the
/// full-resolution raster into `row`. grid_lm(G - x) == -grid_lm(x) bit for
/// bit, and n(l, m) reads l only as l*l, so pixels x and G - x share their
/// screen value: only pixel 0 and the right half of the row are evaluated.
void screen_row(const Parameters& params, std::size_t y, double w0,
                double sign, cfloat* row) {
  const std::size_t g = params.grid_size;
  const float m = params.grid_lm(y);
  const auto screen = [&](std::size_t x) {
    const float l = params.grid_lm(x);
    const double phase = sign * kTwoPi * w0 * compute_n(l, m);
    return cfloat(static_cast<float>(std::cos(phase)),
                  static_cast<float>(std::sin(phase)));
  };
  row[0] = screen(0);
  for (std::size_t x = (g + 1) / 2; x < g; ++x) row[x] = row[g - x] = screen(x);
}

/// Runs body(y, row) for every grid row y in one parallel loop; `row` is a
/// G-element scratch row of the calling thread, from one buffer per call.
template <typename Body>
void for_each_row(std::size_t g, const Body& body) {
  std::vector<cfloat> rows(static_cast<std::size_t>(omp_get_max_threads()) *
                           g);
#pragma omp parallel
  {
    cfloat* row =
        rows.data() + static_cast<std::size_t>(omp_get_thread_num()) * g;
#pragma omp for schedule(static)
    for (std::size_t y = 0; y < g; ++y) body(y, row);
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
  Array3D<cfloat> accum(kNrPolarizations, g, g);
  Array3D<cfloat> work(kNrPolarizations, g, g);

  for (int p = 0; p < wplanes_.nr_planes(); ++p) {
    fft_grid_to_image(plane_slice(grids, p), work.view());
    // Undo the plane's residual w phase: add the image times
    // e^{+2 pi i w_p n}, one screen row for all four polarisations.
    const double w0 = wplanes_.center(p);
    for_each_row(g, [&](std::size_t y, cfloat* screen) {
      screen_row(parameters(), y, w0, +1.0, screen);
      for (std::size_t pol = 0; pol < kNrPolarizations; ++pol) {
        const cfloat* in = &work(pol, y, 0);
        cfloat* out = &accum(pol, y, 0);
        for (std::size_t x = 0; x < g; ++x) out[x] += in[x] * screen[x];
      }
    });
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
  IDG_CHECK(model_image.dim(0) == kNrPolarizations &&
                model_image.dim(1) == g && model_image.dim(2) == g,
            "model image is " << model_image.dim(0) << "x"
                              << model_image.dim(1) << "x"
                              << model_image.dim(2) << " but must be [4][" << g
                              << "][" << g << "]");
  Array4D<cfloat> grids = make_grids();
  const Array2D<float> correction = make_taper_correction_for(parameters());

  // Model times correction times the plane's conjugate screen, straight
  // into every plane: the degridder restores e^{-2 pi i w n} exactly for
  // w = w_p and corrects the residual per visibility.
  for_each_row(g, [&](std::size_t y, cfloat* screen) {
    const float* corr = &correction(y, 0);
    for (int p = 0; p < wplanes_.nr_planes(); ++p) {
      screen_row(parameters(), y, wplanes_.center(p), -1.0, screen);
      for (std::size_t pol = 0; pol < kNrPolarizations; ++pol) {
        const cfloat* in = &model_image(pol, y, 0);
        cfloat* out = &grids(static_cast<std::size_t>(p), pol, y, 0);
        for (std::size_t x = 0; x < g; ++x)
          out[x] = in[x] * corr[x] * screen[x];
      }
    }
  });
  fft_image_to_grid(grids.view());
  return grids;
}

}  // namespace idg
