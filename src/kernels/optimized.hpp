// Optimized CPU kernels (paper §V-B) and the kernel registry.
//
// The optimized gridder/degridder implement the paper's three CPU
// optimizations:
//  (1) each work item's visibilities are staged once into aligned arrays
//      (gridder: [t][c][pol re/im], broadcast into the SIMD lanes; degridder:
//      A-term-corrected pixels as split re/im arrays);
//  (2) the sine/cosine evaluations are performed over whole batches with a
//      vectorized math library (vmath — our SVML stand-in) or a lookup
//      table;
//  (3) the polarization accumulation is vectorized: the gridder puts a tile
//      of pixels in the SIMD lanes with its eight accumulators in registers;
//      the degridder is a SIMD reduction over pixels.
//
// Both kernels also make the "algorithmic change" of §VI-C1 ("we cannot use
// the full computational capacity of HASWELL and FIJI without algorithmic
// changes"). For uniformly spaced channels the phase is linear in the
// channel index, phi(t, c) = phi(t, 0) + c * base(pixel, t) * dk, so each
// (pixel, timestep) evaluates sincos only for the channel-0 phasor and the
// rotator e^{i base dk}, and advances every further channel by one complex
// multiply. Items whose wavenumbers are not uniform (or that have fewer
// than three channels) evaluate one sincos per channel in the same loops.
//
// Variants registered: "reference" (scalar transcription of the
// pseudocode), "optimized" (vmath polynomial sincos), "optimized-lut"
// (lookup-table sincos), "optimized-libm" (scalar libm sincos — isolates
// the math-library contribution, the paper's §VI-C1 observation that kernel
// performance is dominated by how fast the library evaluates sincos).
#pragma once

#include <string>
#include <vector>

#include "idg/kernels.hpp"

namespace idg::kernels {

/// Batched sincos signature shared with vmath.
using SincosFn = void (*)(std::size_t, const float*, float*, float*);

/// Optimized kernels parameterized by the sincos implementation.
const KernelSet& optimized_kernels();       // vmath polynomial
const KernelSet& optimized_lut_kernels();   // lookup table
const KernelSet& optimized_libm_kernels();  // scalar libm

/// Lookup by name: "reference", "optimized", "optimized-lut",
/// "optimized-libm", "jit", "tuned" (tuning-database
/// dispatch, kernels/autotune.hpp), the statically-instantiated coarsened
/// family "coarsen<V>x<P>c<C>" (kernels/coarsen.hpp) and its
/// runtime-compiled twins "jit-coarsen<V>x<P>c<C>". Throws idg::Error for
/// unknown names. Linking this library also installs the registry as the
/// core library's BackendOptions::kernel_set resolver.
const KernelSet& kernel_set(const std::string& name);

/// All registered kernel-set names, in registry order.
std::vector<std::string> kernel_set_names();

}  // namespace idg::kernels
