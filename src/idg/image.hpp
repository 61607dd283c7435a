// Grid <-> image transforms and taper correction.
//
// Conventions (DESIGN.md §6): both the grid and the image keep their centre
// (DC / phase centre) at pixel N/2, so each transform is
// fftshift o (I)FFT o fftshift:
//
//   image = shift(Backward(shift(grid)))            (unnormalized)
//   grid  = shift(Forward(shift(image)))
//
// The dirty image additionally divides by the number of gridded
// visibilities and by the image-plane taper evaluated on the
// full-resolution raster (the "simple correction" of the NFFT); model
// images are divided by the same taper *before* transforming to the grid
// for degridding. Imaging weights and their normalisation belong to the
// imager that calls IDG.
//
// Both directions exist once, as a pair of functions over a plane stack
// (planes_to_image, image_to_planes). Each runs one parallel loop of
// (plane, polarisation) tasks, and a task takes one n x n image through its
// whole chain while it is in cache. W-stacking passes the planes' w screens
// (make_screen_table, DESIGN.md §9); the plain one-plane transforms
// make_dirty_image and model_image_to_grid are the no-screen case.
#pragma once

#include <cstdint>

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"
#include "idg/wplane.hpp"

namespace idg {

/// In-place grid -> image transform on a [4][n][n] cube (unnormalized).
void fft_grid_to_image(ArrayView<cfloat, 3> cube);

/// In-place image -> grid transform on a [4][n][n] cube (unnormalized).
void fft_image_to_grid(ArrayView<cfloat, 3> cube);

/// The w screens e^{+2 pi i w_p n(l, m)} of every plane of `wplanes` on
/// the full-resolution raster of `params`, as one quarter raster per plane:
/// [planes][q][q] with q = grid_size / 2 + 1. Entry k of a row or a column
/// holds pixel 0 for k = 0, else pixel G - q + k and its mirror q - k:
/// grid_lm(G - x) == -grid_lm(x) bit for bit, and n(l, m) reads l and m
/// only squared. The conjugate screen e^{-2 pi i w_p n} is each entry
/// conjugated, bit for bit.
Array3D<cfloat> make_screen_table(const Parameters& params,
                                  const WPlaneModel& wplanes);

/// Grid -> image half of the transform pair. For every polarisation,
/// image = scale * correction * sum over p (in plane order) of
/// shift(IFFT(shift(planes[p]))) * screen_p. `planes` is [P][4][n][n],
/// `screens` a make_screen_table raster of its P planes, or empty for one
/// plane without a screen. `image` ([4][n][n]) is overwritten entirely, so
/// it need not be initialised.
void planes_to_image(ArrayView<const cfloat, 4> planes,
                     ArrayView<const cfloat, 3> screens, float scale,
                     const Array2D<float>& correction,
                     ArrayView<cfloat, 3> image);

/// Image -> grid half: planes[p] = shift(FFT(shift(image * correction *
/// conj(screen_p)))), without the screen factor when `screens` is empty
/// (one plane). `planes` is overwritten entirely, so it need not be
/// initialised.
void image_to_planes(ArrayView<const cfloat, 3> image,
                     ArrayView<const cfloat, 3> screens,
                     const Array2D<float>& correction,
                     ArrayView<cfloat, 4> planes);

/// Produces the taper-corrected dirty image from a gridded visibility cube:
/// image = shift(IFFT(shift(grid))) / nr_visibilities / taper(l, m). The
/// correction raster matches the taper family the subgrids were tapered
/// with (Parameters::taper, which the epsilon contract may set to ES).
Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 std::uint64_t nr_visibilities,
                                 const Parameters& params);

/// Prepares a model grid for degridding: grid = FFT(model_image / taper),
/// with the taper of `params` as above.
Array3D<cfloat> model_image_to_grid(const Array3D<cfloat>& model_image,
                                    const Parameters& params);

}  // namespace idg
