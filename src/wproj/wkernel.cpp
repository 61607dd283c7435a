#include "wproj/wkernel.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "idg/taper.hpp"

namespace idg::wproj {

void WKernelConfig::validate() const {
  IDG_CHECK(support >= 2 && support % 2 == 0,
            "kernel support must be an even number >= 2");
  IDG_CHECK(oversampling >= 1, "oversampling must be >= 1");
  IDG_CHECK(nr_w_planes >= 1, "nr_w_planes must be >= 1");
  IDG_CHECK(w_max >= 0.0, "w_max must be non-negative");
  IDG_CHECK(image_size > 0.0, "image_size must be positive");
}

namespace {
std::size_t next_smooth(std::size_t n) {
  auto is_smooth = [](std::size_t v) {
    for (int p : {2, 3, 5, 7})
      while (v % static_cast<std::size_t>(p) == 0)
        v /= static_cast<std::size_t>(p);
    return v == 1;
  };
  while (!is_smooth(n)) ++n;
  return n;
}
}  // namespace

WKernelSet::WKernelSet(const WKernelConfig& config) : config_(config) {
  config_.validate();
  Timer timer;

  const std::size_t s = config_.support;
  const std::size_t o = config_.oversampling;
  // Stored footprint: the support plus one guard cell on each side so that
  // sub-cell oversample offsets never index outside the array.
  os_size_ = (s + 2) * o + 1;

  // Screen raster: C >= 2*(s+2) field-of-view samples (smooth for the FFT),
  // zero-padded to M = C * oversampling for sub-cell kernel resolution.
  const std::size_t c = next_smooth(2 * (s + 2));
  const std::size_t m = c * o;
  const double dl = config_.image_size / static_cast<double>(c);

  planes_.reserve(static_cast<std::size_t>(config_.nr_w_planes));
  const fft::Plan2D<double> plan(m, m, fft::Direction::Forward);

  std::vector<std::complex<double>> screen(m * m);
  fft::Workspace<double> ws;
  for (int p = 0; p < config_.nr_w_planes; ++p) {
    const double w =
        config_.nr_w_planes == 1
            ? 0.0
            : -config_.w_max + 2.0 * config_.w_max * p /
                                   (config_.nr_w_planes - 1);

    std::fill(screen.begin(), screen.end(), std::complex<double>{});
    for (std::size_t yc = 0; yc < c; ++yc) {
      const double mm = (static_cast<double>(yc) -
                         static_cast<double>(c) / 2.0) *
                        dl;
      const double eta_m = 2.0 * mm / config_.image_size;
      for (std::size_t xc = 0; xc < c; ++xc) {
        const double ll = (static_cast<double>(xc) -
                           static_cast<double>(c) / 2.0) *
                          dl;
        const double eta_l = 2.0 * ll / config_.image_size;
        const double taper = idg::pswf(eta_l) * idg::pswf(eta_m);
        const double r2 = ll * ll + mm * mm;
        const double n = r2 >= 1.0 ? 1.0 : 1.0 - std::sqrt(1.0 - r2);
        const double phase = 2.0 * std::numbers::pi * w * n;
        const std::size_t y = m / 2 - c / 2 + yc;
        const std::size_t x = m / 2 - c / 2 + xc;
        screen[y * m + x] = std::polar(taper, phase);
      }
    }

    plan.execute_centred(screen.data(), ws);

    // Crop the central os_size x os_size samples; normalize by 1/C^2 (the
    // IDG subgrid FFT convention, so grids from both algorithms match).
    Array2D<cfloat> kernel(os_size_, os_size_);
    const double scale = 1.0 / (static_cast<double>(c) * static_cast<double>(c));
    const std::size_t begin = m / 2 - os_size_ / 2;
    for (std::size_t y = 0; y < os_size_; ++y) {
      for (std::size_t x = 0; x < os_size_; ++x) {
        const std::complex<double> v =
            screen[(begin + y) * m + (begin + x)] * scale;
        kernel(y, x) = {static_cast<float>(v.real()),
                        static_cast<float>(v.imag())};
      }
    }
    planes_.push_back(std::move(kernel));
  }
  construction_seconds_ = timer.seconds();
}

int WKernelSet::plane_of(double w_lambda) const {
  if (config_.nr_w_planes == 1) return 0;
  const double t = (w_lambda + config_.w_max) / (2.0 * config_.w_max) *
                   (config_.nr_w_planes - 1);
  return static_cast<int>(std::clamp(
      std::lround(t), 0L, static_cast<long>(config_.nr_w_planes - 1)));
}

const cfloat* WKernelSet::plane(int p) const {
  IDG_CHECK(p >= 0 && p < config_.nr_w_planes, "w-plane index out of range");
  return planes_[static_cast<std::size_t>(p)].data();
}

cfloat WKernelSet::at(int p, int dv, int ov, int du, int ou) const {
  const int o = static_cast<int>(config_.oversampling);
  const int c0 = static_cast<int>(os_size_ / 2);
  const int iy = c0 + dv * o + ov;
  const int ix = c0 + du * o + ou;
  IDG_ASSERT(iy >= 0 && ix >= 0 && iy < static_cast<int>(os_size_) &&
                 ix < static_cast<int>(os_size_),
             "kernel sample out of range");
  return planes_[static_cast<std::size_t>(p)](static_cast<std::size_t>(iy),
                                              static_cast<std::size_t>(ix));
}

std::size_t WKernelSet::storage_bytes() const {
  return planes_.size() * os_size_ * os_size_ * sizeof(cfloat);
}

}  // namespace idg::wproj
