// Vectorized transcendental math — the reproduction's stand-in for Intel
// SVML / VML (paper §V-B: "The sine/cosine-computations are precomputed for
// the entire batch of visibilities with either Intel's Short Vector Math
// Library (SVML) or Vector Math Library (VML)").
//
// `sincos_batch` evaluates sine and cosine over a contiguous batch with a
// polynomial kernel written so the compiler auto-vectorizes it (plain loops
// + `#pragma omp simd`): Cody-Waite style range reduction to [-pi/4, pi/4]
// followed by minimax polynomials. Accuracy is ~2 ulp for arguments within
// +-2^13 radians — the same "medium accuracy, arguments in [-1e4, 1e4]"
// regime the paper selects for SVML (§VI-C1).
//
// `sincos_lut` is the ablation variant: a 4096-entry quarter-resolution
// lookup table with linear interpolation (~1e-3 absolute error), included to
// quantify the accuracy/throughput trade-off of cheap transcendentals.
#pragma once

#include <cstddef>

namespace idg::vmath {

/// out_sin[i] = sin(x[i]), out_cos[i] = cos(x[i]) for i < n: the polynomial
/// of kernels/loops.hpp, which the runtime-compiled kernels inline.
/// All pointers must be non-aliasing; best performance with 64-byte aligned
/// buffers whose length is a multiple of the SIMD width.
void sincos_batch(std::size_t n, const float* x, float* out_sin,
                  float* out_cos);

/// Lookup-table sincos (fast, ~1e-3 absolute accuracy).
void sincos_lut(std::size_t n, const float* x, float* out_sin,
                float* out_cos);

/// Scalar reference used by the tests (calls libm).
void sincos_libm(std::size_t n, const float* x, float* out_sin,
                 float* out_cos);

}  // namespace idg::vmath
