#include "idg/subgrid_fft.hpp"

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace idg {

void subgrid_fft(SubgridFftDirection direction, ArrayView<cfloat, 4> subgrids,
                 std::size_t count) {
  IDG_CHECK(count <= subgrids.dim(0), "count exceeds subgrid buffer");
  const std::size_t n = subgrids.dim(2);
  IDG_CHECK(subgrids.dim(3) == n && subgrids.dim(1) == kNrPolarizations,
            "subgrid buffer must be [count][4][n][n]");
  if (count == 0) return;

  const auto fft_dir = direction == SubgridFftDirection::ToFourier
                           ? fft::Direction::Forward
                           : fft::Direction::Backward;
  const fft::Plan2D<float>& plan = fft::cached_plan2d<float>(n, fft_dir);
  const float scale = 1.0f / static_cast<float>(n * n);
  const std::size_t batches = count * kNrPolarizations;

#pragma omp parallel
  {
    // Kept per thread across calls: allocating it per call in every
    // OpenMP thread fragments the malloc arenas and raises peak RSS.
    static thread_local fft::Workspace<float> ws;
#pragma omp for schedule(dynamic)
    for (std::size_t b = 0; b < batches; ++b)
      plan.execute_centred(subgrids.data() + b * n * n, ws, scale);
  }
}

}  // namespace idg
