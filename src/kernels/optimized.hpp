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
// The loops themselves, with the channel-phasor recurrence of §VI-C1, live
// in kernels/loops.hpp; every set below runs them.
//
// Variants registered: "reference" (scalar transcription of the
// pseudocode), "optimized" (vmath polynomial sincos), "optimized-lut"
// (lookup-table sincos), "optimized-libm" (scalar libm sincos — isolates
// the math-library contribution, the paper's §VI-C1 observation that kernel
// performance is dominated by how fast the library evaluates sincos),
// "jit" ("optimized" with each (subgrid, channels) shape's loops compiled
// at run time, kernels/jit.hpp) and "tuned" (tuning-database dispatch,
// kernels/autotune.hpp).
#pragma once

#include <string>
#include <vector>

#include "idg/kernels.hpp"
#include "kernels/loops.hpp"

namespace idg::kernels {

/// Batched sincos signature shared with vmath.
using loops::SincosFn;

/// Optimized kernels parameterized by the sincos implementation. All of
/// them, and "jit", implement single-precision accumulation only.
const KernelSet& optimized_kernels();       // vmath polynomial
const KernelSet& optimized_lut_kernels();   // lookup table
const KernelSet& optimized_libm_kernels();  // scalar libm

/// "optimized" with the loops of each (subgrid, channels) shape compiled at
/// run time with -march=native (kernels/jit.hpp). Without a toolchain it
/// runs the static loops, so it always gives a result.
const KernelSet& jit_kernels();

/// Lookup by name: "reference", "optimized", "optimized-lut",
/// "optimized-libm", "jit" and "tuned". Throws idg::Error for unknown
/// names.
const KernelSet& kernel_set(const std::string& name);

/// All registered kernel-set names, in registry order.
std::vector<std::string> kernel_set_names();

}  // namespace idg::kernels
