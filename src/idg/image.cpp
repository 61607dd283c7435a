#include "idg/image.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fft/fft.hpp"
#include "idg/taper.hpp"

namespace idg {

namespace {
void check_cube(ArrayView<const cfloat, 3> cube) {
  IDG_CHECK(cube.dim(0) == kNrPolarizations && cube.dim(1) == cube.dim(2),
            "cube must be [4][n][n]");
}

/// Transforms the `count` consecutive n x n images at `in` into `out`
/// (the same memory for an in-place transform), one image per iteration
/// of one parallel loop.
void transform_images(const cfloat* in, cfloat* out, std::size_t count,
                      std::size_t n, fft::Direction direction) {
  const fft::Plan2D<float>& plan = fft::cached_plan2d<float>(n, direction);
  const std::size_t pixels = n * n;
#pragma omp parallel
  {
    // Kept per thread across calls: allocating it per call in every
    // OpenMP thread fragments the malloc arenas and raises peak RSS.
    static thread_local fft::Workspace<float> ws;
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < count; ++i) {
      cfloat* image = out + i * pixels;
      if (in != out) std::copy_n(in + i * pixels, pixels, image);
      plan.execute_centred(image, ws);
    }
  }
}
}  // namespace

void fft_grid_to_image(ArrayView<cfloat, 3> cube) {
  check_cube(cube);
  transform_images(cube.data(), cube.data(), kNrPolarizations, cube.dim(1),
                   fft::Direction::Backward);
}

void fft_grid_to_image(ArrayView<const cfloat, 3> grid,
                       ArrayView<cfloat, 3> image) {
  check_cube(grid);
  IDG_CHECK(image.dims() == grid.dims(), "image and grid cubes differ in shape");
  transform_images(grid.data(), image.data(), kNrPolarizations, grid.dim(1),
                   fft::Direction::Backward);
}

void fft_image_to_grid(ArrayView<cfloat, 3> cube) {
  check_cube(cube);
  transform_images(cube.data(), cube.data(), kNrPolarizations, cube.dim(1),
                   fft::Direction::Forward);
}

void fft_image_to_grid(ArrayView<cfloat, 4> planes) {
  IDG_CHECK(planes.dim(1) == kNrPolarizations && planes.dim(2) == planes.dim(3),
            "plane stack must be [planes][4][n][n]");
  transform_images(planes.data(), planes.data(),
                   planes.dim(0) * kNrPolarizations, planes.dim(2),
                   fft::Direction::Forward);
}

Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 std::uint64_t nr_visibilities,
                                 const Parameters& params) {
  IDG_CHECK(grid.dim(1) == params.grid_size,
            "grid does not match Parameters::grid_size");
  IDG_CHECK(nr_visibilities > 0, "normalization must be positive");
  const Array2D<float> correction = make_taper_correction_for(params);
  const std::size_t n = grid.dim(1);
  Array3D<cfloat> image(kNrPolarizations, n, n);
  fft_grid_to_image(grid.cview(), image.view());

  const float scale =
      static_cast<float>(1.0 / static_cast<double>(nr_visibilities));
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < kNrPolarizations; ++p) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        image(p, y, x) *= scale * correction(y, x);
      }
    }
  }
  return image;
}

Array3D<cfloat> model_image_to_grid(const Array3D<cfloat>& model_image,
                                    const Parameters& params) {
  IDG_CHECK(model_image.dim(1) == params.grid_size,
            "model image does not match Parameters::grid_size");
  const Array2D<float> correction = make_taper_correction_for(params);
  const std::size_t n = model_image.dim(1);
  Array3D<cfloat> grid(kNrPolarizations, n, n);
  std::copy(model_image.begin(), model_image.end(), grid.begin());

#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < kNrPolarizations; ++p) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        grid(p, y, x) *= correction(y, x);
      }
    }
  }
  fft_image_to_grid(grid.view());
  return grid;
}

}  // namespace idg
