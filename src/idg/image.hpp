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
#pragma once

#include <cstdint>

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"

namespace idg {

/// In-place grid -> image transform on a [4][n][n] cube (unnormalized).
void fft_grid_to_image(ArrayView<cfloat, 3> cube);

/// Grid -> image transform of a [4][n][n] cube into `image` (same shape,
/// unnormalized): each polarisation is copied and transformed by one
/// iteration of the same parallel loop.
void fft_grid_to_image(ArrayView<const cfloat, 3> grid,
                       ArrayView<cfloat, 3> image);

/// In-place image -> grid transform on a [4][n][n] cube (unnormalized).
void fft_image_to_grid(ArrayView<cfloat, 3> cube);

/// In-place image -> grid transform of every cube of a [planes][4][n][n]
/// stack, all planes * 4 transforms in one parallel loop.
void fft_image_to_grid(ArrayView<cfloat, 4> planes);

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
