// Unit and property tests for the FFT substrate (src/fft).
//
// Ground truth is the O(n^2) naive DFT. Tolerances scale with transform
// length because rounding error grows ~ O(sqrt(log n)) per butterfly level.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "fft/fft.hpp"

namespace {

using idg::fft::Direction;
using idg::fft::Plan;
using idg::fft::Plan2D;
using idg::fft::Workspace;

std::vector<std::complex<float>> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<std::complex<float>> x(n);
  for (auto& v : x) v = {dist(rng), dist(rng)};
  return x;
}

double max_abs_error(const std::vector<std::complex<float>>& a,
                     const std::vector<std::complex<float>>& b) {
  EXPECT_EQ(a.size(), b.size());
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, static_cast<double>(std::abs(a[i] - b[i])));
  return err;
}

double tolerance(std::size_t n) { return 2e-5 * std::sqrt(static_cast<double>(n)) * std::max(1.0, std::log2(static_cast<double>(n))); }

// ---------------------------------------------------------------------------
// Parameterized over transform length: smooth sizes, primes (Bluestein),
// and the sizes the pipelines actually use (24, 32, 48, 2048, ...).
class Fft1DSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DSizes, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 42 + static_cast<unsigned>(n));
  auto expected = idg::fft::naive_dft(x, Direction::Forward);

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  EXPECT_LT(max_abs_error(out, expected), tolerance(n)) << "n=" << n;
}

TEST_P(Fft1DSizes, BackwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 1000 + static_cast<unsigned>(n));
  auto expected = idg::fft::naive_dft(x, Direction::Backward);

  Plan<float> plan(n, Direction::Backward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  EXPECT_LT(max_abs_error(out, expected), tolerance(n)) << "n=" << n;
}

TEST_P(Fft1DSizes, RoundTripIsIdentityUpToScale) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 7 + static_cast<unsigned>(n));

  Plan<float> fwd(n, Direction::Forward);
  Plan<float> bwd(n, Direction::Backward);
  Workspace<float> ws;
  std::vector<std::complex<float>> mid(n), back(n);
  fwd.execute(x.data(), 1, mid.data(), ws);
  bwd.execute(mid.data(), 1, back.data(), ws);

  for (auto& v : back) v /= static_cast<float>(n);
  EXPECT_LT(max_abs_error(back, x), tolerance(n)) << "n=" << n;
}

TEST_P(Fft1DSizes, ParsevalEnergyConservation) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 99 + static_cast<unsigned>(n));

  Plan<float> fwd(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  fwd.execute(x.data(), 1, out.data(), ws);

  double e_time = 0.0, e_freq = 0.0;
  for (auto v : x) e_time += std::norm(std::complex<double>(v));
  for (auto v : out) e_freq += std::norm(std::complex<double>(v));
  e_freq /= static_cast<double>(n);
  EXPECT_NEAR(e_freq, e_time, 1e-3 * e_time + 1e-6) << "n=" << n;
}

TEST_P(Fft1DSizes, InplaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 5 + static_cast<unsigned>(n));

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  auto inplace = x;
  plan.execute_inplace(inplace.data(), ws);
  EXPECT_LT(max_abs_error(inplace, out), 1e-6) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Fft1DSizes,
    ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24,
                      25, 27, 32, 35, 48, 49, 64, 96, 100, 105, 128, 240, 256,
                      // primes and prime-ish sizes exercise Bluestein:
                      11, 13, 17, 31, 97, 101, 211,
                      // pipeline sizes:
                      512, 1024, 2048));

// ---------------------------------------------------------------------------

TEST(Fft1D, LinearityHolds) {
  const std::size_t n = 48;
  auto x = random_signal(n, 1);
  auto y = random_signal(n, 2);
  const std::complex<float> alpha{0.7f, -1.3f};

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> fx(n), fy(n), fz(n), z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] + alpha * y[i];
  plan.execute(x.data(), 1, fx.data(), ws);
  plan.execute(y.data(), 1, fy.data(), ws);
  plan.execute(z.data(), 1, fz.data(), ws);

  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(fz[i] - (fx[i] + alpha * fy[i])), 1e-4f);
}

TEST(Fft1D, DeltaTransformsToConstant) {
  const std::size_t n = 24;
  std::vector<std::complex<float>> x(n, {0.0f, 0.0f});
  x[0] = {1.0f, 0.0f};

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);
  for (auto v : out) EXPECT_LT(std::abs(v - std::complex<float>{1.0f, 0.0f}), 1e-5f);
}

TEST(Fft1D, SingleToneLandsOnOneBin) {
  const std::size_t n = 32;
  const std::size_t k0 = 5;
  std::vector<std::complex<float>> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k0 * j) /
                         static_cast<double>(n);
    x[j] = {static_cast<float>(std::cos(angle)),
            static_cast<float>(std::sin(angle))};
  }
  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);
  for (std::size_t k = 0; k < n; ++k) {
    const float expected = k == k0 ? static_cast<float>(n) : 0.0f;
    EXPECT_NEAR(std::abs(out[k]), expected, 2e-4f) << "bin " << k;
  }
}

TEST(Fft1D, StridedInputReadsCorrectElements) {
  const std::size_t n = 24, stride = 3;
  auto packed = random_signal(n, 12);
  std::vector<std::complex<float>> strided(n * stride, {-99.0f, -99.0f});
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = packed[i];

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> a(n), b(n);
  plan.execute(packed.data(), 1, a.data(), ws);
  plan.execute(strided.data(), stride, b.data(), ws);
  EXPECT_LT(max_abs_error(a, b), 1e-6);
}

TEST(Fft1D, ThrowsOnZeroLength) {
  EXPECT_THROW(Plan<float>(0, Direction::Forward), idg::Error);
}

TEST(Fft1D, DoublePrecisionIsMoreAccurate) {
  const std::size_t n = 101;  // Bluestein path
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {dist(rng), dist(rng)};

  auto expected = idg::fft::naive_dft(x, Direction::Forward);
  Plan<double> plan(n, Direction::Forward);
  Workspace<double> ws;
  std::vector<std::complex<double>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(out[i] - expected[i]));
  EXPECT_LT(err, 1e-10);
}

// ---------------------------------------------------------------------------

class Fft2DSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Fft2DSizes, MatchesRowColumnNaiveDft) {
  const auto [rows, cols] = GetParam();
  auto x = random_signal(rows * cols, 17);

  // Ground truth: naive DFT on rows, then on columns.
  std::vector<std::complex<float>> expected = x;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::complex<float>> row(expected.begin() + r * cols,
                                         expected.begin() + (r + 1) * cols);
    auto t = idg::fft::naive_dft(row, Direction::Forward);
    std::copy(t.begin(), t.end(), expected.begin() + r * cols);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<std::complex<float>> col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = expected[r * cols + c];
    auto t = idg::fft::naive_dft(col, Direction::Forward);
    for (std::size_t r = 0; r < rows; ++r) expected[r * cols + c] = t[r];
  }

  Plan2D<float> plan(rows, cols, Direction::Forward);
  Workspace<float> ws;
  auto data = x;
  plan.execute_inplace(data.data(), ws);
  EXPECT_LT(max_abs_error(data, expected), tolerance(rows * cols));
}

TEST_P(Fft2DSizes, RoundTrip) {
  const auto [rows, cols] = GetParam();
  auto x = random_signal(rows * cols, 23);

  Plan2D<float> fwd(rows, cols, Direction::Forward);
  Plan2D<float> bwd(rows, cols, Direction::Backward);
  Workspace<float> ws;
  auto data = x;
  fwd.execute_inplace(data.data(), ws);
  bwd.execute_inplace(data.data(), ws);
  const float scale = 1.0f / static_cast<float>(rows * cols);
  for (auto& v : data) v *= scale;
  EXPECT_LT(max_abs_error(data, x), tolerance(rows * cols));
}

using Dims = std::pair<std::size_t, std::size_t>;
INSTANTIATE_TEST_SUITE_P(Sizes, Fft2DSizes,
                         ::testing::Values(Dims{1, 1}, Dims{2, 2}, Dims{4, 4},
                                           Dims{8, 8}, Dims{24, 24},
                                           Dims{32, 32}, Dims{48, 48},
                                           Dims{64, 64}, Dims{16, 24},
                                           Dims{5, 7}, Dims{128, 128}));

// ---------------------------------------------------------------------------
// Accuracy against a double-precision reference, at the sizes the pipelines
// use: 24^2 and 48^2 subgrids (radix 3), 32^2, and 256^2 / 512^2 grids.

using DoubleVec = std::vector<std::complex<double>>;

/// Row DFTs then column DFTs in double through per-length twiddle tables:
/// O(rows * cols * (rows + cols)), fast enough for 512^2.
DoubleVec reference_dft2d(const DoubleVec& x, std::size_t rows,
                          std::size_t cols, Direction direction) {
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  auto table = [&](std::size_t n) {
    DoubleVec w(n);
    for (std::size_t k = 0; k < n; ++k)
      w[k] = std::polar(1.0, sign * 2.0 * std::numbers::pi *
                                 static_cast<double>(k) /
                                 static_cast<double>(n));
    return w;
  };
  const DoubleVec wc = table(cols), wr = table(rows);
  DoubleVec t(rows * cols), out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < cols; ++k) {
      std::complex<double> acc{};
      for (std::size_t j = 0; j < cols; ++j)
        acc += x[r * cols + j] * wc[(j * k) % cols];
      t[r * cols + k] = acc;
    }
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t k = 0; k < rows; ++k) {
      std::complex<double> acc{};
      for (std::size_t j = 0; j < rows; ++j)
        acc += t[j * cols + c] * wr[(j * k) % rows];
      out[k * cols + c] = acc;
    }
  return out;
}

template <typename T>
double relative_l2(const std::vector<std::complex<T>>& y,
                   const DoubleVec& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    num += std::norm(std::complex<double>(y[i]) - ref[i]);
    den += std::norm(ref[i]);
  }
  return std::sqrt(num / den);
}

/// Size and the relative-l2 error the recursive radix-4 transform this
/// executor replaced measured on the same input (random_signal(n*n, 7+n)).
struct AccuracyCase {
  std::size_t n;
  double replaced_rel_l2;
};

void PrintTo(const AccuracyCase& c, std::ostream* os) { *os << c.n << "^2"; }

class Fft2DAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(Fft2DAccuracy, RelativeL2AtMostTwiceTheReplacedTransform) {
  const auto [n, replaced] = GetParam();
  const auto x = random_signal(n * n, 7 + static_cast<unsigned>(n));
  const DoubleVec xd(x.begin(), x.end());
  // Both directions where the reference is cheap; forward only at 512^2.
  for (Direction dir : {Direction::Forward, Direction::Backward}) {
    if (n > 256 && dir == Direction::Backward) continue;
    const DoubleVec ref = reference_dft2d(xd, n, n, dir);
    Plan2D<float> plan(n, n, dir);
    Workspace<float> ws;
    auto y = x;
    plan.execute_inplace(y.data(), ws);
    EXPECT_LE(relative_l2(y, ref), 2.0 * replaced)
        << "n=" << n << (dir == Direction::Forward ? " forward" : " backward");
  }
}

INSTANTIATE_TEST_SUITE_P(PipelineSizes, Fft2DAccuracy,
                         ::testing::Values(AccuracyCase{24, 1.075e-7},
                                           AccuracyCase{32, 1.081e-7},
                                           AccuracyCase{48, 1.202e-7},
                                           AccuracyCase{256, 1.466e-7},
                                           AccuracyCase{512, 1.558e-7}));

// w-projection screens are smooth double sizes with factors 5 and 7.
TEST(Fft2DDouble, SmoothSizeWithFactorsFiveAndSeven) {
  const std::size_t n = 70;  // 2 * 5 * 7
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> x(n * n);
  for (auto& v : x) v = {dist(rng), dist(rng)};
  for (Direction dir : {Direction::Forward, Direction::Backward}) {
    const DoubleVec ref = reference_dft2d(x, n, n, dir);
    Plan2D<double> plan(n, n, dir);
    Workspace<double> ws;
    auto y = x;
    plan.execute_inplace(y.data(), ws);
    EXPECT_LT(relative_l2(y, ref), 1e-14);
  }
}

// ---------------------------------------------------------------------------
// The executor runs kLanes sequences side by side; a sequence's result must
// not depend on the block or lane it ran in. A 2-D transform batches its
// columns (adjacent sequences) and its rows (sequences a row apart), so it
// must equal transforming every column alone, then every row alone.

template <typename T>
void expect_batched_equals_single(std::size_t rows, std::size_t cols) {
  std::mt19937 rng(static_cast<unsigned>(rows * cols));
  std::uniform_real_distribution<T> dist(-1, 1);
  std::vector<std::complex<T>> x(rows * cols);
  for (auto& v : x) v = {dist(rng), dist(rng)};

  auto batched = x;
  Workspace<T> ws;
  Plan2D<T>(rows, cols, Direction::Forward).execute_inplace(batched.data(), ws);

  const Plan<T> col_plan(rows, Direction::Forward);
  const Plan<T> row_plan(cols, Direction::Forward);
  std::vector<std::complex<T>> single(rows * cols), column(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    col_plan.execute(x.data() + c, cols, column.data(), ws);
    for (std::size_t r = 0; r < rows; ++r) single[r * cols + c] = column[r];
  }
  for (std::size_t r = 0; r < rows; ++r)
    row_plan.execute_inplace(single.data() + r * cols, ws);

  EXPECT_EQ(std::memcmp(batched.data(), single.data(),
                        single.size() * sizeof(single[0])),
            0)
      << rows << "x" << cols;
}

TEST(FftBatch, BatchedEqualsOneAtATimeBitwise) {
  // 37 and 35 leave partial blocks; 37 and 13 run Bluestein; 35 = 5 * 7.
  for (const auto& [rows, cols] :
       {Dims{24, 37}, Dims{256, 35}, Dims{13, 48}}) {
    expect_batched_equals_single<float>(rows, cols);
    expect_batched_equals_single<double>(rows, cols);
  }
}

// ---------------------------------------------------------------------------
// The centred transform equals shift o FFT o shift with the scale applied.

class FftCentred
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FftCentred, MatchesShiftFftShift) {
  const auto [rows, cols] = GetParam();
  const float scale = 0.25f;
  for (Direction dir : {Direction::Forward, Direction::Backward}) {
    const auto x = random_signal(rows * cols, 41);
    const Plan2D<float> plan(rows, cols, dir);
    Workspace<float> ws;

    auto expected = x;
    idg::fft::fftshift2d(expected.data(), rows, cols, -1);
    plan.execute_inplace(expected.data(), ws);
    idg::fft::fftshift2d(expected.data(), rows, cols, +1);
    for (auto& v : expected) v *= scale;

    auto centred = x;
    plan.execute_centred(centred.data(), ws, scale);
    EXPECT_LT(max_abs_error(centred, expected), tolerance(rows * cols))
        << rows << "x" << cols;
  }
}

// Even squares, even non-square sizes whose two global signs do not cancel
// (6x8: 3 + 4 odd), odd and mixed sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftCentred,
                         ::testing::Values(Dims{24, 24}, Dims{32, 32},
                                           Dims{6, 8}, Dims{16, 24},
                                           Dims{5, 5}, Dims{15, 15},
                                           Dims{5, 8}));

TEST(FftCentred, CachedPlanIsSharedPerSizeAndDirection) {
  const auto& a = idg::fft::cached_plan2d<float>(24, Direction::Forward);
  const auto& b = idg::fft::cached_plan2d<float>(24, Direction::Forward);
  const auto& c = idg::fft::cached_plan2d<float>(24, Direction::Backward);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.rows(), 24u);
}

// ---------------------------------------------------------------------------

TEST(FftShift, EvenSizeIsInvolution) {
  const std::size_t n = 24;
  auto x = random_signal(n * n, 31);
  auto y = x;
  idg::fft::fftshift2d(y.data(), n, n, +1);
  EXPECT_NE(max_abs_error(x, y), 0.0);  // actually moved something
  idg::fft::fftshift2d(y.data(), n, n, +1);
  EXPECT_EQ(max_abs_error(x, y), 0.0);
}

TEST(FftShift, OddSizeForwardBackwardCancel) {
  const std::size_t n = 5;
  auto x = random_signal(n * n, 37);
  auto y = x;
  idg::fft::fftshift2d(y.data(), n, n, +1);
  idg::fft::fftshift2d(y.data(), n, n, -1);
  EXPECT_EQ(max_abs_error(x, y), 0.0);
}

TEST(FftShift, MovesCenterToOrigin) {
  const std::size_t n = 8;
  std::vector<std::complex<float>> x(n * n, {0.0f, 0.0f});
  x[(n / 2) * n + (n / 2)] = {1.0f, 0.0f};
  idg::fft::fftshift2d(x.data(), n, n, +1);
  EXPECT_FLOAT_EQ(x[0].real(), 1.0f);
}

}  // namespace
