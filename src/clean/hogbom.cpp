#include "clean/hogbom.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace idg::clean {

namespace {

/// Stokes I from a pixel's XX and YY values.
float stokes_i_of(cfloat xx, cfloat yy) {
  return 0.5f * (xx.real() + yy.real());
}

struct Peak {
  float value = 0.0f;  ///< largest |Stokes I|, 0 when every pixel is 0 or NaN
  std::size_t y = 0;
  std::size_t x = 0;
};

/// The Stokes-I peak by absolute value inside the window [lo, hi)^2: each
/// row's maximum in one vectorised pass, then the first pixel holding the
/// overall maximum. That is the pixel a row-major scan with a strict `>`
/// keeps, and `v > max ? v : max` never takes a NaN.
Peak find_peak(ArrayView<const cfloat, 3> residual, std::size_t lo,
               std::size_t hi) {
  const std::size_t n = residual.dim(1);
  const cfloat* xx = residual.data();
  const cfloat* yy = residual.data() + 3 * n * n;
  Peak peak{0.0f, lo, lo};
  for (std::size_t y = lo; y < hi; ++y) {
    const cfloat* xx_row = xx + y * n;
    const cfloat* yy_row = yy + y * n;
    float row_max = 0.0f;
#pragma omp simd reduction(max : row_max)
    for (std::size_t x = lo; x < hi; ++x) {
      const float v = std::abs(stokes_i_of(xx_row[x], yy_row[x]));
      row_max = v > row_max ? v : row_max;
    }
    if (row_max > peak.value) {
      peak.value = row_max;
      peak.y = y;
    }
  }
  if (peak.value > 0.0f) {
    const cfloat* xx_row = xx + peak.y * n;
    const cfloat* yy_row = yy + peak.y * n;
    peak.x = lo;
    while (std::abs(stokes_i_of(xx_row[peak.x], yy_row[peak.x])) != peak.value)
      ++peak.x;
  }
  return peak;
}

/// Pixels [begin, end) of an n-pixel axis whose PSF pixel, shifted by
/// `offset`, lies inside the PSF.
std::pair<std::size_t, std::size_t> overlap(long offset, std::size_t n) {
  const long size = static_cast<long>(n);
  return {static_cast<std::size_t>(std::max(0L, offset)),
          static_cast<std::size_t>(std::min(size, size + offset))};
}

}  // namespace

float stokes_i(ArrayView<const cfloat, 3> cube, std::size_t y, std::size_t x) {
  return stokes_i_of(cube(0, y, x), cube(3, y, x));
}

CleanResult hogbom_clean(ArrayView<cfloat, 3> residual,
                         ArrayView<const cfloat, 3> psf,
                         ArrayView<cfloat, 3> model_image,
                         const CleanConfig& config) {
  const std::size_t n = residual.dim(1);
  const auto cube_of = [n](const std::array<std::size_t, 3>& dims) {
    return dims[0] == kNrPolarizations && dims[1] == n && dims[2] == n;
  };
  IDG_CHECK(cube_of(residual.dims()), "residual must be [4][n][n]");
  IDG_CHECK(cube_of(psf.dims()), "psf is " << psf.dim(0) << "x" << psf.dim(1)
                                           << "x" << psf.dim(2)
                                           << " but the residual is [4][" << n
                                           << "][" << n << "]");
  IDG_CHECK(cube_of(model_image.dims()),
            "model is " << model_image.dim(0) << "x" << model_image.dim(1)
                        << "x" << model_image.dim(2)
                        << " but the residual is [4][" << n << "][" << n
                        << "]");
  IDG_CHECK(config.gain > 0.0f && config.gain <= 1.0f,
            "loop gain must be in (0, 1]");
  IDG_CHECK(config.major_gain > 0.0f && config.major_gain <= 1.0f,
            "major_gain must be in (0, 1]");
  IDG_CHECK(config.max_iterations >= 0, "max_iterations must be >= 0");

  IDG_CHECK(config.border_fraction >= 0.0f && config.border_fraction < 0.5f,
            "border_fraction must be in [0, 0.5)");

  const std::size_t c0 = n / 2;  // PSF centre
  const std::size_t lo = static_cast<std::size_t>(
      config.border_fraction * static_cast<float>(n));
  const std::size_t hi = n - lo;
  CleanResult result;
  float stop_at = config.threshold;

  for (int it = 0; it < config.max_iterations; ++it) {
    // Find the Stokes-I peak (by absolute value, so negative artefacts are
    // cleaned too) inside the clean window.
    const Peak peak = find_peak(residual, lo, hi);
    const std::size_t py = peak.y, px = peak.x;
    result.final_peak = peak.value;
    if (it == 0) {
      stop_at = std::max(config.threshold,
                         (1.0f - config.major_gain) * peak.value);
    }
    if (peak.value <= stop_at) break;

    const float flux = config.gain * stokes_i(residual, py, px);
    result.components.push_back({px, py, flux});
    ++result.iterations;

    // Subtract flux * PSF shifted to the peak over the pixels it covers;
    // accumulate into the model. The per-pixel body is the serial loop's:
    // which multiply-subtracts the compiler fuses into FMAs depends on it,
    // and a different choice changes the last bits (DESIGN.md §9).
    const long dy0 = static_cast<long>(py) - static_cast<long>(c0);
    const long dx0 = static_cast<long>(px) - static_cast<long>(c0);
    const auto [y_begin, y_end] = overlap(dy0, n);
    const auto [x_begin, x_end] = overlap(dx0, n);
    for (std::size_t y = y_begin; y < y_end; ++y) {
      const auto sy = static_cast<std::size_t>(static_cast<long>(y) - dy0);
      for (std::size_t x = x_begin; x < x_end; ++x) {
        const auto sx = static_cast<std::size_t>(static_cast<long>(x) - dx0);
        for (std::size_t p = 0; p < kNrPolarizations; ++p) {
          // Unpolarized model: flux enters XX and YY only.
          if (p == 1 || p == 2) continue;
          residual(p, y, x) -= flux * psf(p, sy, sx);
        }
      }
    }
    model_image(0, py, px) += flux;
    model_image(3, py, px) += flux;
  }
  return result;
}

}  // namespace idg::clean
