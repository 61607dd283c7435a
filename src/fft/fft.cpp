#include "fft/fft.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

namespace idg::fft {

namespace {

constexpr std::size_t L = kLanes;

bool is_smooth(std::size_t n) {
  for (std::size_t p : {2, 3, 5, 7})
    while (n % p == 0) n /= p;
  return n == 1;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

/// Radices in execution order: fours first (fewer passes), then 2, 3, 5, 7.
std::vector<int> factorize(std::size_t n) {
  std::vector<int> radices;
  for (; n % 4 == 0; n /= 4) radices.push_back(4);
  for (int p : {2, 3, 5, 7})
    for (; n % static_cast<std::size_t>(p) == 0; n /= static_cast<std::size_t>(p))
      radices.push_back(p);
  return radices;
}

/// exp(sign * 2 pi i k / n), evaluated in double.
std::complex<double> root(std::size_t n, std::size_t k, double sign) {
  const double angle = sign * 2.0 * std::numbers::pi *
                       static_cast<double>(k % n) / static_cast<double>(n);
  return {std::cos(angle), std::sin(angle)};
}

// --- butterflies ------------------------------------------------------------
//
// Each call transforms one butterfly in all L lanes. Leg q of the input sits
// q * in_leg values after xr/xi, leg q of the output q * out_leg values after
// yr/yi. Twiddle == false skips the multiply by w^0 = 1. The radix-4 and
// odd-radix butterflies compute the forward DFT of their legs; a backward
// DFT is the same with output legs q and r - q exchanged (radix 4 via
// `fwd`) or with the sine constants negated (radix 3/5/7, folded into
// Stage::rot_im).

template <typename T, bool Twiddle>
void twiddle(T& re, T& im, T wr, T wi) {
  if constexpr (Twiddle) {
    const T r = re * wr - im * wi;
    im = re * wi + im * wr;
    re = r;
  }
}

template <typename T, bool Twiddle>
void radix2(const T* __restrict xr, const T* __restrict xi, T* __restrict yr,
            T* __restrict yi, std::size_t in_leg, std::size_t out_leg,
            const T* __restrict wr, const T* __restrict wi) {
  const T w1r = wr[0], w1i = wi[0];
#pragma omp simd
  for (std::size_t b = 0; b < L; ++b) {
    const T ar = xr[b], ai = xi[b];
    T br = xr[in_leg + b], bi = xi[in_leg + b];
    twiddle<T, Twiddle>(br, bi, w1r, w1i);
    yr[b] = ar + br;
    yi[b] = ai + bi;
    yr[out_leg + b] = ar - br;
    yi[out_leg + b] = ai - bi;
  }
}

template <typename T, bool Twiddle>
void radix4(const T* __restrict xr, const T* __restrict xi, T* __restrict yr,
            T* __restrict yi, std::size_t in_leg, std::size_t out_leg,
            const T* __restrict wr, const T* __restrict wi, bool fwd) {
  const T w1r = wr[0], w1i = wi[0], w2r = wr[1], w2i = wi[1], w3r = wr[2],
          w3i = wi[2];
  const std::size_t o1 = fwd ? out_leg : 3 * out_leg;
  const std::size_t o3 = fwd ? 3 * out_leg : out_leg;
#pragma omp simd
  for (std::size_t b = 0; b < L; ++b) {
    const T x0r = xr[b], x0i = xi[b];
    T x1r = xr[in_leg + b], x1i = xi[in_leg + b];
    T x2r = xr[2 * in_leg + b], x2i = xi[2 * in_leg + b];
    T x3r = xr[3 * in_leg + b], x3i = xi[3 * in_leg + b];
    twiddle<T, Twiddle>(x1r, x1i, w1r, w1i);
    twiddle<T, Twiddle>(x2r, x2i, w2r, w2i);
    twiddle<T, Twiddle>(x3r, x3i, w3r, w3i);
    const T t0r = x0r + x2r, t0i = x0i + x2i;
    const T t1r = x0r - x2r, t1i = x0i - x2i;
    const T t2r = x1r + x3r, t2i = x1i + x3i;
    const T t3r = x1r - x3r, t3i = x1i - x3i;
    yr[b] = t0r + t2r;
    yi[b] = t0i + t2i;
    yr[2 * out_leg + b] = t0r - t2r;
    yi[2 * out_leg + b] = t0i - t2i;
    // Forward: y1 = t1 - i t3, y3 = t1 + i t3.
    yr[o1 + b] = t1r + t3i;
    yi[o1 + b] = t1i - t3r;
    yr[o3 + b] = t1r - t3i;
    yi[o3 + b] = t1i + t3r;
  }
}

/// Odd radix R: pairs legs j and R-j, so y_k = x0 + sum_j [cos s_j + i sin d_j]
/// with s_j = x_j + x_{R-j}, d_j = x_j - x_{R-j}.
template <typename T, int R, bool Twiddle>
void radix_odd(const T* __restrict xr, const T* __restrict xi,
               T* __restrict yr, T* __restrict yi, std::size_t in_leg,
               std::size_t out_leg, const T* __restrict wr,
               const T* __restrict wi, const T* __restrict rot_re,
               const T* __restrict rot_im) {
  constexpr int H = (R - 1) / 2;
  T w_r[R], w_i[R], c[R], s[R];
  for (int q = 1; q < R; ++q) {
    w_r[q] = wr[q - 1];
    w_i[q] = wi[q - 1];
  }
  for (int q = 0; q < R; ++q) {
    c[q] = rot_re[q];
    s[q] = rot_im[q];
  }
#pragma omp simd
  for (std::size_t b = 0; b < L; ++b) {
    T vr[R], vi[R];
    for (int q = 0; q < R; ++q) {
      vr[q] = xr[q * in_leg + b];
      vi[q] = xi[q * in_leg + b];
    }
    for (int q = 1; q < R; ++q) twiddle<T, Twiddle>(vr[q], vi[q], w_r[q], w_i[q]);
    T sr[H + 1], si[H + 1], dr[H + 1], di[H + 1];
    T y0r = vr[0], y0i = vi[0];
    for (int j = 1; j <= H; ++j) {
      sr[j] = vr[j] + vr[R - j];
      si[j] = vi[j] + vi[R - j];
      dr[j] = vr[j] - vr[R - j];
      di[j] = vi[j] - vi[R - j];
      y0r += sr[j];
      y0i += si[j];
    }
    yr[b] = y0r;
    yi[b] = y0i;
    for (int k = 1; k <= H; ++k) {
      T ar = vr[0], ai = vi[0], tr = 0, ti = 0;
      for (int j = 1; j <= H; ++j) {
        const int idx = (j * k) % R;
        ar += c[idx] * sr[j];
        ai += c[idx] * si[j];
        tr += s[idx] * di[j];
        ti += s[idx] * dr[j];
      }
      yr[k * out_leg + b] = ar - tr;
      yi[k * out_leg + b] = ai + ti;
      yr[(R - k) * out_leg + b] = ar + tr;
      yi[(R - k) * out_leg + b] = ai - ti;
    }
  }
}

/// One Stockham pass over a block of n elements x L lanes: for j = g*ns + k,
/// legs j + q*(n/R) are twiddled by w_{ns*R}^(q*k), transformed, and written
/// to g*ns*R + k + q*ns. The output is again in natural order for the
/// lengths combined so far, so no bit reversal is ever needed.
template <typename T, int R, typename Stage>
void pass(const T* x, T* y, std::size_t n, const Stage& st, bool fwd) {
  const std::size_t m = n / R;
  const std::size_t ns = st.ns;
  const T* xr = x;
  const T* xi = x + n * L;
  T* yr = y;
  T* yi = y + n * L;
  const std::size_t in_leg = m * L, out_leg = ns * L;
  auto run = [&]<bool Tw>(std::size_t k) {
    const T* wr = st.tw_re.data() + k * (R - 1);
    const T* wi = st.tw_im.data() + k * (R - 1);
    for (std::size_t j = k; j < m; j += ns) {
      const std::size_t in = j * L, out = ((j - k) * R + k) * L;
      if constexpr (R == 2) {
        radix2<T, Tw>(xr + in, xi + in, yr + out, yi + out, in_leg, out_leg,
                      wr, wi);
      } else if constexpr (R == 4) {
        radix4<T, Tw>(xr + in, xi + in, yr + out, yi + out, in_leg, out_leg,
                      wr, wi, fwd);
      } else {
        radix_odd<T, R, Tw>(xr + in, xi + in, yr + out, yi + out, in_leg,
                            out_leg, wr, wi, st.rot_re, st.rot_im);
      }
    }
  };
  run.template operator()<false>(0);
  for (std::size_t k = 1; k < ns; ++k) run.template operator()<true>(k);
}

/// Factors of (element j, sequence s0 + b): scale, negated on odd j + s.
template <typename T, typename Weight>
void lane_factors(Weight w, std::size_t s0, T (&even)[L], T (&odd)[L]) {
  for (std::size_t b = 0; b < L; ++b) {
    even[b] = w.checkerboard && ((s0 + b) & 1) ? -w.scale : w.scale;
    odd[b] = w.checkerboard ? -even[b] : even[b];
  }
}

}  // namespace

// --- Plan -------------------------------------------------------------------

template <typename T>
Plan<T>::Plan(std::size_t n, Direction direction)
    : n_(n), direction_(direction) {
  IDG_CHECK(n >= 1, "FFT length must be positive");
  if (is_smooth(n)) {
    build_stages();
  } else {
    build_bluestein();
  }
}

template <typename T>
void Plan<T>::build_stages() {
  const double sign = direction_ == Direction::Forward ? -1.0 : 1.0;
  std::size_t ns = 1;
  for (int r : factorize(n_)) {
    const auto ur = static_cast<std::size_t>(r);
    Stage st;
    st.radix = r;
    st.ns = ns;
    st.tw_re.resize(ns * (ur - 1));
    st.tw_im.resize(ns * (ur - 1));
    for (std::size_t k = 0; k < ns; ++k) {
      for (std::size_t q = 1; q < ur; ++q) {
        const std::complex<double> w = root(ns * ur, q * k, sign);
        st.tw_re[k * (ur - 1) + q - 1] = static_cast<T>(w.real());
        st.tw_im[k * (ur - 1) + q - 1] = static_cast<T>(w.imag());
      }
    }
    for (std::size_t i = 0; i < ur; ++i) {
      const std::complex<double> w = root(ur, i, sign);
      st.rot_re[i] = static_cast<T>(w.real());
      st.rot_im[i] = static_cast<T>(w.imag());
    }
    stages_.push_back(std::move(st));
    ns *= ur;
  }
}

template <typename T>
void Plan<T>::build_bluestein() {
  const std::size_t m = next_pow2(2 * n_ - 1);
  fwd_ = std::make_unique<Plan>(m, Direction::Forward);
  bwd_ = std::make_unique<Plan>(m, Direction::Backward);
  chirp_re_.resize(n_);
  chirp_im_.resize(n_);
  const double sign = direction_ == Direction::Forward ? -1.0 : 1.0;
  for (std::size_t k = 0; k < n_; ++k) {
    // exp(sign * pi * i * k^2 / n); reduce k^2 mod 2n to keep the argument
    // small for large n.
    const std::size_t k2 = (k * k) % (2 * n_);
    const double angle = sign * std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n_);
    chirp_re_[k] = static_cast<T>(std::cos(angle));
    chirp_im_[k] = static_cast<T>(std::sin(angle));
  }
  // FFT of the zero-padded conjugate chirp (the convolution kernel), with
  // the inverse transform's exact 1/m folded in.
  std::vector<std::complex<T>> b(m, std::complex<T>{});
  for (std::size_t k = 0; k < n_; ++k) {
    b[k] = {chirp_re_[k], -chirp_im_[k]};
    b[(m - k) % m] = b[k];
  }
  Workspace<T> ws;
  fwd_->execute_inplace(b.data(), ws);
  const T inv_m = static_cast<T>(1.0 / static_cast<double>(m));
  kernel_re_.resize(m);
  kernel_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    kernel_re_[k] = b[k].real() * inv_m;
    kernel_im_[k] = b[k].imag() * inv_m;
  }
}

template <typename T>
std::size_t Plan<T>::workspace_size() const {
  // Two blocks (x, y) of n elements, plus two of m for Bluestein.
  const std::size_t block = 2 * n_ * L;
  return 2 * block + (fwd_ ? 2 * (2 * fwd_->n_ * L) : 0);
}

template <typename T>
T* Plan<T>::run(T* x, T* y, T* extra) const {
  if (fwd_) return run_bluestein(x, extra);
  const bool fwd = direction_ == Direction::Forward;
  for (const Stage& st : stages_) {
    switch (st.radix) {
      case 2: pass<T, 2>(x, y, n_, st, fwd); break;
      case 3: pass<T, 3>(x, y, n_, st, fwd); break;
      case 4: pass<T, 4>(x, y, n_, st, fwd); break;
      case 5: pass<T, 5>(x, y, n_, st, fwd); break;
      case 7: pass<T, 7>(x, y, n_, st, fwd); break;
      default: IDG_ASSERT(false, "unsupported FFT radix");
    }
    std::swap(x, y);
  }
  return x;
}

template <typename T>
T* Plan<T>::run_bluestein(T* x, T* extra) const {
  const std::size_t m = fwd_->n_;
  T* a = extra;
  T* b = extra + 2 * m * L;
  const T* xr = x;
  const T* xi = x + n_ * L;
  T* ar = a;
  T* ai = a + m * L;
  for (std::size_t k = 0; k < n_; ++k) {
    const T cr = chirp_re_[k], ci = chirp_im_[k];
    for (std::size_t l = 0; l < L; ++l) {
      const T vr = xr[k * L + l], vi = xi[k * L + l];
      ar[k * L + l] = vr * cr - vi * ci;
      ai[k * L + l] = vr * ci + vi * cr;
    }
  }
  std::fill(ar + n_ * L, ar + m * L, T{0});
  std::fill(ai + n_ * L, ai + m * L, T{0});

  T* f = fwd_->run(a, b, nullptr);
  T* fr = f;
  T* fi = f + m * L;
  for (std::size_t k = 0; k < m; ++k) {
    const T kr = kernel_re_[k], ki = kernel_im_[k];
    for (std::size_t l = 0; l < L; ++l) {
      const T vr = fr[k * L + l], vi = fi[k * L + l];
      fr[k * L + l] = vr * kr - vi * ki;
      fi[k * L + l] = vr * ki + vi * kr;
    }
  }
  const T* g = bwd_->run(f, f == a ? b : a, nullptr);
  const T* gr = g;
  const T* gi = g + m * L;
  T* outr = x;
  T* outi = x + n_ * L;
  for (std::size_t k = 0; k < n_; ++k) {
    const T cr = chirp_re_[k], ci = chirp_im_[k];
    for (std::size_t l = 0; l < L; ++l) {
      const T vr = gr[k * L + l], vi = gi[k * L + l];
      outr[k * L + l] = vr * cr - vi * ci;
      outi[k * L + l] = vr * ci + vi * cr;
    }
  }
  return x;
}

template <typename T>
void Plan<T>::transform(const std::complex<T>* in, std::size_t in_elem,
                        std::size_t in_seq, std::complex<T>* out,
                        std::size_t out_elem, std::size_t out_seq,
                        std::size_t count, T* scratch, Weight load,
                        Weight store) const {
  const std::size_t n = n_;
  T* x = scratch;
  T* y = scratch + 2 * n * L;
  T* extra = y + 2 * n * L;
  for (std::size_t s0 = 0; s0 < count; s0 += L) {
    const std::size_t lanes = std::min(L, count - s0);
    T even[L], odd[L];

    // Load: deinterleave into the split block, applying the load weight.
    // Adjacent sequences read a row of lanes; otherwise each lane reads its
    // own sequence (a block transpose).
    T* xr = x;
    T* xi = x + n * L;
    if (lanes < L) std::fill(x, x + 2 * n * L, T{0});
    lane_factors(load, s0, even, odd);
    const T* src = reinterpret_cast<const T*>(in + s0 * in_seq);
    if (in_seq == 1) {
      for (std::size_t j = 0; j < n; ++j) {
        const T* row = src + 2 * j * in_elem;
        const T* f = j & 1 ? odd : even;
#pragma omp simd
        for (std::size_t b = 0; b < lanes; ++b) {
          xr[j * L + b] = row[2 * b] * f[b];
          xi[j * L + b] = row[2 * b + 1] * f[b];
        }
      }
    } else {
      for (std::size_t b = 0; b < lanes; ++b) {
        const T* seq = src + 2 * b * in_seq;
        for (std::size_t j = 0; j < n; ++j) {
          const T f = j & 1 ? odd[b] : even[b];
          xr[j * L + b] = seq[2 * j * in_elem] * f;
          xi[j * L + b] = seq[2 * j * in_elem + 1] * f;
        }
      }
    }

    const T* r = run(x, y, extra);

    // Store: interleave back, applying the store weight.
    const T* rr = r;
    const T* ri = r + n * L;
    lane_factors(store, s0, even, odd);
    T* dst = reinterpret_cast<T*>(out + s0 * out_seq);
    if (out_seq == 1) {
      for (std::size_t j = 0; j < n; ++j) {
        T* row = dst + 2 * j * out_elem;
        const T* f = j & 1 ? odd : even;
#pragma omp simd
        for (std::size_t b = 0; b < lanes; ++b) {
          row[2 * b] = rr[j * L + b] * f[b];
          row[2 * b + 1] = ri[j * L + b] * f[b];
        }
      }
    } else {
      for (std::size_t b = 0; b < lanes; ++b) {
        T* seq = dst + 2 * b * out_seq;
        for (std::size_t j = 0; j < n; ++j) {
          const T f = j & 1 ? odd[b] : even[b];
          seq[2 * j * out_elem] = rr[j * L + b] * f;
          seq[2 * j * out_elem + 1] = ri[j * L + b] * f;
        }
      }
    }
  }
}

template <typename T>
void Plan<T>::execute(const std::complex<T>* in, std::size_t in_stride,
                      std::complex<T>* out, Workspace<T>& ws) const {
  transform(in, in_stride, 0, out, 1, 0, 1, ws.get(workspace_size()), {}, {});
}

template <typename T>
void Plan<T>::execute_inplace(std::complex<T>* data, Workspace<T>& ws) const {
  execute(data, 1, data, ws);
}

// --- Plan2D -----------------------------------------------------------------

template <typename T>
Plan2D<T>::Plan2D(std::size_t rows, std::size_t cols, Direction direction)
    : rows_(rows),
      cols_(cols),
      col_plan_(rows, direction),
      row_plan_(cols, direction) {}

template <typename T>
void Plan2D<T>::run(std::complex<T>* data, Workspace<T>& ws,
                    typename Plan<T>::Weight load,
                    typename Plan<T>::Weight store) const {
  T* scratch =
      ws.get(std::max(col_plan_.workspace_size(), row_plan_.workspace_size()));
  // Columns: sequence x = column (adjacent), element y = row. For both passes
  // the checkerboard parity j + s is x + y.
  col_plan_.transform(data, cols_, 1, data, cols_, 1, cols_, scratch, load, {});
  // Rows: sequence y = row (cols apart), element x = column.
  row_plan_.transform(data, 1, cols_, data, 1, cols_, rows_, scratch, {},
                      store);
}

template <typename T>
void Plan2D<T>::execute_inplace(std::complex<T>* data, Workspace<T>& ws) const {
  run(data, ws, {}, {});
}

template <typename T>
void Plan2D<T>::execute_centred(std::complex<T>* data, Workspace<T>& ws,
                                T scale) const {
  if (rows_ % 2 == 0 && cols_ % 2 == 0) {
    // In 1-D, shift o F o shift = (-1)^(n/2) C o F o C with the
    // checkerboard C_j = (-1)^j; the two global signs fold into the scale.
    const T s = (rows_ / 2 + cols_ / 2) % 2 ? -scale : scale;
    run(data, ws, {T{1}, true}, {s, true});
  } else {
    fftshift2d(data, rows_, cols_, -1);
    run(data, ws, {}, {scale, false});
    fftshift2d(data, rows_, cols_, +1);
  }
}

template <typename T>
const Plan2D<T>& cached_plan2d(std::size_t n, Direction direction) {
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, Direction>, std::unique_ptr<Plan2D<T>>>
      cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[{n, direction}];
  if (!slot) slot = std::make_unique<Plan2D<T>>(n, n, direction);
  return *slot;
}

template class Plan<float>;
template class Plan<double>;
template class Plan2D<float>;
template class Plan2D<double>;
template const Plan2D<float>& cached_plan2d(std::size_t, Direction);
template const Plan2D<double>& cached_plan2d(std::size_t, Direction);

}  // namespace idg::fft
