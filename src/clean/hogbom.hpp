// Högbom CLEAN minor cycle and the major-cycle imaging loop (paper Fig 2).
//
// The imaging step alternates: image the residual visibilities (gridding +
// inverse FFT), extract the brightest components with CLEAN into the sky
// model, predict the model's visibilities (FFT + degridding) and subtract
// them from the input to reveal fainter sources — repeated until the model
// converges. IDG supplies the gridding/degridding; this module supplies the
// deconvolution and the loop.
#pragma once

#include <vector>

#include "common/array.hpp"
#include "common/types.hpp"

namespace idg::clean {

struct CleanConfig {
  float gain = 0.1f;        ///< loop gain per component subtraction
  int max_iterations = 200; ///< minor-cycle iteration cap
  float threshold = 0.0f;   ///< stop when the residual peak drops below this

  /// Major-cycle gain (WSClean's "mgain"): one minor-cycle run stops once
  /// the residual peak falls below (1 - major_gain) * initial_peak, leaving
  /// the rest for the next major cycle. Deep single-pass cleaning on a
  /// sparse-coverage PSF diverges on mutual sidelobes; stopping early and
  /// re-imaging with exactly predicted visibilities is the standard cure.
  float major_gain = 0.8f;

  /// Clean window: peaks are only searched inside
  /// [border_fraction * n, (1 - border_fraction) * n) in both dimensions.
  /// The image-plane taper correction diverges toward the field edge (the
  /// prolate spheroidal falls to ~4e-3 there), so edge pixels are amplified
  /// noise that must never enter the model.
  float border_fraction = 0.125f;
};

/// One CLEAN component: a delta at pixel (x, y) with Stokes-I flux.
struct Component {
  std::size_t x = 0;
  std::size_t y = 0;
  float flux = 0.0f;
};

struct CleanResult {
  std::vector<Component> components;
  int iterations = 0;
  float final_peak = 0.0f;  ///< residual Stokes-I peak after the last iteration
};

/// Runs Högbom minor cycles on the Stokes-I residual: repeatedly find the
/// peak, subtract gain * peak * PSF centred there, and record the component.
/// `residual`, `psf` and `model_image` are [4][n][n] cubes (Stokes I =
/// (XX + YY)/2); any other shape is rejected by name. The PSF must peak with
/// value ~1 at its centre pixel (n/2, n/2). `residual` is modified in place;
/// subtracted flux is accumulated into `model_image`.
///
/// The peak is the largest |Stokes I| in the clean window. When several
/// pixels hold it, the first in row-major order (lowest y, then lowest x)
/// wins; NaN pixels are never the peak.
CleanResult hogbom_clean(ArrayView<cfloat, 3> residual,
                         ArrayView<const cfloat, 3> psf,
                         ArrayView<cfloat, 3> model_image,
                         const CleanConfig& config);

/// Stokes-I view helper: (XX + YY).real() / 2 at one pixel.
float stokes_i(ArrayView<const cfloat, 3> cube, std::size_t y, std::size_t x);

}  // namespace idg::clean
