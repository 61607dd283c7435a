#include "idg/image.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "fft/fft.hpp"
#include "idg/taper.hpp"

namespace idg {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// This thread's FFT workspace. Kept across calls: allocating it per call
/// in every OpenMP thread fragments the malloc arenas and raises peak RSS.
fft::Workspace<float>& thread_workspace() {
  static thread_local fft::Workspace<float> ws;
  return ws;
}

void check_cube(ArrayView<const cfloat, 3> cube) {
  IDG_CHECK(cube.dim(0) == kNrPolarizations && cube.dim(1) == cube.dim(2),
            "cube must be [4][n][n]");
}

/// Centred transform of each polarisation of a [4][n][n] cube, in place.
void transform_cube(ArrayView<cfloat, 3> cube, fft::Direction direction) {
  check_cube(cube);
  const std::size_t n = cube.dim(1);
  const fft::Plan2D<float>& plan = fft::cached_plan2d<float>(n, direction);
#pragma omp parallel for schedule(static)
  for (std::size_t pol = 0; pol < kNrPolarizations; ++pol)
    plan.execute_centred(cube.data() + pol * n * n, thread_workspace());
}

/// Checks the shapes the transform pair indexes through raw pointers: a
/// [P][4][n][n] plane stack, a [4][n][n] image, an [n][n] correction, and
/// either a [P][q][q] screen table or no screens and one plane.
void check_pair(ArrayView<const cfloat, 4> planes,
                ArrayView<const cfloat, 3> screens,
                const Array2D<float>& correction,
                ArrayView<const cfloat, 3> image) {
  const std::size_t n = image.dim(1);
  check_cube(image);
  IDG_CHECK(planes.dim(1) == kNrPolarizations && planes.dim(2) == n &&
                planes.dim(3) == n,
            "plane stack must be [planes][4][n][n] with the image's n");
  IDG_CHECK(correction.dim(0) == n && correction.dim(1) == n,
            "taper correction must be [n][n] with the image's n");
  if (screens.size() == 0) {
    IDG_CHECK(planes.dim(0) == 1, "a plane stack without screens must hold "
                                  "one plane");
  } else {
    const std::size_t q = n / 2 + 1;
    IDG_CHECK(screens.dim(0) == planes.dim(0) && screens.dim(1) == q &&
                  screens.dim(2) == q,
              "screen table must be [planes][n/2+1][n/2+1]");
  }
}

/// The pixel of entry k of a quarter row or column (make_screen_table's
/// layout): its q = n/2 + 1 entries hold pixel 0 and pixels n - q + 1 to
/// n - 1.
std::size_t quarter_pixel(std::size_t k, std::size_t n, std::size_t q) {
  return k == 0 ? 0 : n - q + k;
}

/// The entry of pixel x, which it shares with its mirror n - x.
std::size_t quarter_entry(std::size_t x, std::size_t n, std::size_t q) {
  return x == 0 ? 0 : std::max(x, n - x) - (n - q);
}

/// Writes the quarter row of the screen e^{+2 pi i w0 n(l, m)} at pixel row
/// y into `row`.
void screen_row(const Parameters& params, std::size_t y, double w0,
                cfloat* row) {
  const std::size_t g = params.grid_size;
  const std::size_t q = g / 2 + 1;
  const float m = params.grid_lm(y);
  for (std::size_t k = 0; k < q; ++k) {
    const float l = params.grid_lm(quarter_pixel(k, g, q));
    const double phase = kTwoPi * w0 * compute_n(l, m);
    row[k] = cfloat(static_cast<float>(std::cos(phase)),
                    static_cast<float>(std::sin(phase)));
  }
}

/// Writes row y of plane p's screen (conjugated if asked) at full
/// resolution into the n-element `row`: pixel n - x copies pixel x.
void expand_row(ArrayView<const cfloat, 3> screens, std::size_t p,
                std::size_t y, std::size_t n, bool conjugate, cfloat* row) {
  const std::size_t q = screens.dim(1);
  const cfloat* quarter = &screens(p, quarter_entry(y, n, q), 0);
  const auto entry = [&](std::size_t k) {
    return conjugate ? std::conj(quarter[k]) : quarter[k];
  };
  row[0] = entry(0);
  for (std::size_t x = n - q + 1; x < n; ++x)
    row[x] = row[n - x] = entry(x - (n - q));
}
}  // namespace

void fft_grid_to_image(ArrayView<cfloat, 3> cube) {
  transform_cube(cube, fft::Direction::Backward);
}

void fft_image_to_grid(ArrayView<cfloat, 3> cube) {
  transform_cube(cube, fft::Direction::Forward);
}

Array3D<cfloat> make_screen_table(const Parameters& params,
                                  const WPlaneModel& wplanes) {
  const std::size_t g = params.grid_size;
  const std::size_t q = g / 2 + 1;
  const auto planes = static_cast<std::size_t>(wplanes.nr_planes());
  Array3D<cfloat> table(kUninitialized, planes, q, q);
#pragma omp parallel for collapse(2) schedule(static)
  for (std::size_t p = 0; p < planes; ++p)
    for (std::size_t k = 0; k < q; ++k)
      screen_row(params, quarter_pixel(k, g, q),
                 wplanes.center(static_cast<int>(p)), &table(p, k, 0));
  return table;
}

void planes_to_image(ArrayView<const cfloat, 4> planes,
                     ArrayView<const cfloat, 3> screens, float scale,
                     const Array2D<float>& correction,
                     ArrayView<cfloat, 3> image) {
  check_pair(planes, screens, correction, image);
  const std::size_t n = image.dim(1);
  const std::size_t pixels = n * n;
  const std::size_t nr_planes = planes.dim(0);
  const bool screened = screens.size() != 0;
  const fft::Plan2D<float>& plan =
      fft::cached_plan2d<float>(n, fft::Direction::Backward);
  // With screens a task transforms into its thread's scratch image and
  // adds that into the output; without, it transforms the output itself.
  Array2D<cfloat> scratch(
      kUninitialized,
      screened ? static_cast<std::size_t>(omp_get_max_threads()) : 0, pixels);
  const std::size_t tasks = nr_planes * kNrPolarizations;

#pragma omp parallel
  {
    std::vector<cfloat> row(screened ? n : 0);
    cfloat* work =
        screened ? &scratch(static_cast<std::size_t>(omp_get_thread_num()), 0)
                 : nullptr;
    // Round-robin tasks in plane order, so the ordered adds into one
    // polarisation run plane after plane while the transforms overlap.
#pragma omp for ordered schedule(static, 1)
    for (std::size_t t = 0; t < tasks; ++t) {
      const std::size_t p = t / kNrPolarizations;
      const std::size_t pol = t % kNrPolarizations;
      cfloat* out = &image(pol, 0, 0);
      cfloat* in = screened ? work : out;
      std::copy_n(&planes(p, pol, 0, 0), pixels, in);
      plan.execute_centred(in, thread_workspace());
      if (screened) {
        if (p == 0) std::fill_n(out, pixels, cfloat{});
        // Undo the plane's residual w phase: add the image times
        // e^{+2 pi i w_p n}.
#pragma omp ordered
        for (std::size_t y = 0; y < n; ++y) {
          expand_row(screens, p, y, n, false, row.data());
          const cfloat* src = in + y * n;
          cfloat* dst = out + y * n;
          for (std::size_t x = 0; x < n; ++x) dst[x] += src[x] * row[x];
        }
      }
      if (p + 1 == nr_planes) {
        for (std::size_t y = 0; y < n; ++y) {
          const float* corr = &correction(y, 0);
          cfloat* dst = out + y * n;
          for (std::size_t x = 0; x < n; ++x) dst[x] *= scale * corr[x];
        }
      }
    }
  }
}

void image_to_planes(ArrayView<const cfloat, 3> image,
                     ArrayView<const cfloat, 3> screens,
                     const Array2D<float>& correction,
                     ArrayView<cfloat, 4> planes) {
  check_pair(planes, screens, correction, image);
  const std::size_t n = image.dim(1);
  const bool screened = screens.size() != 0;
  const fft::Plan2D<float>& plan =
      fft::cached_plan2d<float>(n, fft::Direction::Forward);
  const std::size_t tasks = planes.dim(0) * kNrPolarizations;

#pragma omp parallel
  {
    std::vector<cfloat> row(screened ? n : 0);
#pragma omp for schedule(static)
    for (std::size_t t = 0; t < tasks; ++t) {
      const std::size_t p = t / kNrPolarizations;
      const std::size_t pol = t % kNrPolarizations;
      cfloat* out = &planes(p, pol, 0, 0);
      for (std::size_t y = 0; y < n; ++y) {
        const cfloat* in = &image(pol, y, 0);
        const float* corr = &correction(y, 0);
        cfloat* dst = out + y * n;
        if (screened) {
          // The conjugate screen: the degridder restores e^{-2 pi i w n}
          // exactly for w = w_p and corrects the residual per visibility.
          expand_row(screens, p, y, n, true, row.data());
          for (std::size_t x = 0; x < n; ++x)
            dst[x] = in[x] * corr[x] * row[x];
        } else {
          for (std::size_t x = 0; x < n; ++x) dst[x] = in[x] * corr[x];
        }
      }
      plan.execute_centred(out, thread_workspace());
    }
  }
}

Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 std::uint64_t nr_visibilities,
                                 const Parameters& params) {
  IDG_CHECK(grid.dim(1) == params.grid_size,
            "grid does not match Parameters::grid_size");
  IDG_CHECK(nr_visibilities > 0, "normalization must be positive");
  check_cube(grid.cview());
  const std::size_t n = grid.dim(1);
  Array3D<cfloat> image(kUninitialized, kNrPolarizations, n, n);
  planes_to_image({grid.data(), {1, kNrPolarizations, n, n}}, {},
                  static_cast<float>(1.0 / static_cast<double>(nr_visibilities)),
                  make_taper_correction_for(params), image.view());
  return image;
}

Array3D<cfloat> model_image_to_grid(const Array3D<cfloat>& model_image,
                                    const Parameters& params) {
  IDG_CHECK(model_image.dim(1) == params.grid_size,
            "model image does not match Parameters::grid_size");
  const std::size_t n = model_image.dim(1);
  Array3D<cfloat> grid(kUninitialized, kNrPolarizations, n, n);
  image_to_planes(model_image.cview(), {}, make_taper_correction_for(params),
                  {grid.data(), {1, kNrPolarizations, n, n}});
  return grid;
}

}  // namespace idg
