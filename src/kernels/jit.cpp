#include "kernels/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "kernels/coarsen.hpp"
#include "kernels/internal.hpp"
#include "kernels/optimized.hpp"
#include "kernels/vmath.hpp"

namespace idg::kernels {

namespace {

using internal::padded;
using internal::Scratch;

/// ABI of the generated entry points. The host side gathers all inputs into
/// flat aligned arrays (exactly like the generic optimized kernels); the
/// generated code only contains the hot loops, with the subgrid pixel count
/// and channel counts baked in as compile-time constants.
using GridderFn = void (*)(int nt, const float* l, const float* m,
                           const float* n, const float* offset,
                           const float* u, const float* v, const float* w,
                           const float* k, const float* vr0, const float* vi0,
                           const float* vr1, const float* vi1,
                           const float* vr2, const float* vi2,
                           const float* vr3, const float* vi3, float* out);
using DegridderFn = void (*)(int nt, const float* l, const float* m,
                             const float* n, const float* offset,
                             const float* u, const float* v, const float* w,
                             const float* k, const float* sr0,
                             const float* si0, const float* sr1,
                             const float* si1, const float* sr2,
                             const float* si2, const float* sr3,
                             const float* si3, float* out);

struct CompiledShape {
  GridderFn gridder = nullptr;
  DegridderFn degridder = nullptr;
};

constexpr const char* kCompileFlags =
    "-O3 -march=native -fopenmp -ffp-contract=fast "
    "-funroll-loops -shared -fPIC -std=c++17";

/// Bump when generate_source() changes: stale cached objects from an older
/// emitter must not be picked up.
constexpr int kEmitterVersion = 3;

/// Output of `c++ --version` (first line), or "unknown" when the probe
/// fails. Part of the cache key: objects compiled by one toolchain must
/// not be reused after a compiler upgrade.
std::string compiler_version() {
  std::string version = "unknown";
  if (FILE* p = ::popen("c++ --version 2>/dev/null", "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      version = buf;
      while (!version.empty() &&
             (version.back() == '\n' || version.back() == '\r'))
        version.pop_back();
    }
    ::pclose(p);
  }
  return version;
}

/// The persistent cache directory, shared by every process on the host:
/// $TMPDIR/idg-jit-v<emitter>-<hash> where the hash covers the compiler
/// version and the compile flags. Repeated runs (and the autotuner) reuse
/// the compiled objects instead of recompiling per process; a compiler or
/// emitter change lands in a fresh directory.
std::string cache_dir() {
  static const std::string dir = [] {
    const char* tmp = std::getenv("TMPDIR");
    std::string d = (tmp != nullptr ? std::string(tmp) : std::string("/tmp"));
    const std::string key = compiler_version() + "|" + kCompileFlags;
    const std::uint32_t hash = crc32(key.data(), key.size());
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "%08x", hash);
    d += "/idg-jit-v" + std::to_string(kEmitterVersion) + "-" + suffix;
    const std::string cmd = "mkdir -p '" + d + "'";
    if (std::system(cmd.c_str()) != 0) d = "/tmp";
    return d;
  }();
  return dir;
}

/// vmath::sincos_batch's constants as C++ declarations, each float spelled
/// as an exact hex literal, so generated objects cannot drift from it.
std::string sincos_constants_source() {
  namespace sc = vmath::sincos_constants;
  const std::pair<const char*, float> constants[] = {
      {"kTwoOverPi", sc::kTwoOverPi}, {"kPio2Hi", sc::kPio2Hi},
      {"kPio2Lo", sc::kPio2Lo},       {"kS1", sc::kS1},
      {"kS2", sc::kS2},               {"kS3", sc::kS3},
      {"kC1", sc::kC1},               {"kC2", sc::kC2},
      {"kC3", sc::kC3}};
  std::string src;
  for (const auto& [name, value] : constants) {
    char literal[64];
    std::snprintf(literal, sizeof literal, "%af",
                  static_cast<double>(value));
    src += std::string("constexpr float ") + name + " = " + literal + ";\n";
  }
  return src;
}

/// Shared preamble of every generated TU: the shape/variant constants and
/// the embedded sincos polynomial (identical to vmath::sincos_batch so the
/// object is self-contained).
std::string generate_preamble(std::size_t n, std::size_t nc, int V, int P,
                              int C) {
  const std::size_t n2 = n * n;
  const std::size_t n2p = padded(n2);
  const std::size_t ncp = padded(nc);
  std::ostringstream src;
  src << R"(// Generated by idg::kernels::jit — do not edit.
#include <cmath>
#include <cstdint>

namespace {
constexpr int kN2 = )" << n2 << R"(;
constexpr int kN2P = )" << n2p << R"(;
constexpr int kNC = )" << nc << R"(;
constexpr int kNCP = )" << ncp << R"(;
constexpr int kV = )" << V << R"(;
constexpr int kP = )" << P << R"(;
constexpr int kC = )" << C << R"(;

)" << sincos_constants_source() << R"(
inline void sincos_batch(int n, const float* x, float* out_sin,
                         float* out_cos) {
#pragma omp simd
  for (int i = 0; i < n; ++i) {
    const float xi = x[i];
    const float qf = __builtin_nearbyintf(xi * kTwoOverPi);
    const std::int32_t q = static_cast<std::int32_t>(qf);
    const float r = (xi - qf * kPio2Hi) - qf * kPio2Lo;
    const float r2 = r * r;
    const float s = r + r * r2 * (kS1 + r2 * (kS2 + r2 * kS3));
    const float c = 1.0f - 0.5f * r2 + r2 * r2 * (kC1 + r2 * (kC2 + r2 * kC3));
    const std::int32_t k = q & 3;
    const bool swap = (k & 1) != 0;
    const float bs = swap ? c : s;
    const float bc = swap ? s : c;
    out_sin[i] = (k == 2 || k == 3) ? -bs : bs;
    out_cos[i] = (k == 1 || k == 2) ? -bc : bc;
  }
}

inline int imin(int a, int b) { return a < b ? a : b; }
}  // namespace
)";
  return src.str();
}

/// The un-coarsened entry points (kV = kP = kC = 1): byte-for-byte the
/// loops the original "jit" kernel set emitted.
std::string generate_plain_body() {
  return R"(
extern "C" void idg_jit_gridder(
    int nt, const float* l, const float* m, const float* n,
    const float* offset, const float* u, const float* v, const float* w,
    const float* k, const float* vr0, const float* vi0, const float* vr1,
    const float* vi1, const float* vr2, const float* vi2, const float* vr3,
    const float* vi3, float* out) {
  const int batch = nt * kNCP;
  // One thread_local scratch buffer keeps the generated object
  // allocation-free on the hot path (nt varies per work item).
  static thread_local float* buf = nullptr;
  static thread_local int buf_cap = 0;
  if (buf_cap < 3 * batch) {
    delete[] buf;
    buf = new float[3 * batch];
    buf_cap = 3 * batch;
  }
  float* ph = buf;
  float* sv = buf + batch;
  float* cv = buf + 2 * batch;

  for (int idx = 0; idx < kN2; ++idx) {
    const float ll = l[idx], mm = m[idx], nn = n[idx];
    const float off = offset[idx];
    float pr0 = 0, pi0 = 0, pr1 = 0, pi1 = 0;
    float pr2 = 0, pi2 = 0, pr3 = 0, pi3 = 0;

    for (int t = 0; t < nt; ++t) {
      const float base = u[t] * ll + v[t] * mm + w[t] * nn;
#pragma omp simd
      for (int c = 0; c < kNCP; ++c) ph[t * kNCP + c] = base * k[c] - off;
    }
    sincos_batch(batch, ph, sv, cv);

#pragma omp simd reduction(+ : pr0, pi0, pr1, pi1, pr2, pi2, pr3, pi3)
    for (int c = 0; c < batch; ++c) {
      pr0 += vr0[c] * cv[c] - vi0[c] * sv[c];
      pi0 += vr0[c] * sv[c] + vi0[c] * cv[c];
      pr1 += vr1[c] * cv[c] - vi1[c] * sv[c];
      pi1 += vr1[c] * sv[c] + vi1[c] * cv[c];
      pr2 += vr2[c] * cv[c] - vi2[c] * sv[c];
      pi2 += vr2[c] * sv[c] + vi2[c] * cv[c];
      pr3 += vr3[c] * cv[c] - vi3[c] * sv[c];
      pi3 += vr3[c] * sv[c] + vi3[c] * cv[c];
    }
    float* o = out + 8 * idx;
    o[0] = pr0; o[1] = pi0; o[2] = pr1; o[3] = pi1;
    o[4] = pr2; o[5] = pi2; o[6] = pr3; o[7] = pi3;
  }
}

extern "C" void idg_jit_degridder(
    int nt, const float* l, const float* m, const float* n,
    const float* offset, const float* u, const float* v, const float* w,
    const float* k, const float* sr0, const float* si0, const float* sr1,
    const float* si1, const float* sr2, const float* si2, const float* sr3,
    const float* si3, float* out) {
  static thread_local float ph[kN2P], sv[kN2P], cv[kN2P];
  for (int t = 0; t < nt; ++t) {
    const float ut = u[t], vt = v[t], wt = w[t];
    for (int c = 0; c < kNC; ++c) {
      const float kc = k[c];
#pragma omp simd
      for (int j = 0; j < kN2P; ++j)
        ph[j] = offset[j] - (ut * l[j] + vt * m[j] + wt * n[j]) * kc;
      sincos_batch(kN2P, ph, sv, cv);

      float vr0 = 0, vi0 = 0, vr1 = 0, vi1 = 0;
      float vr2 = 0, vi2 = 0, vr3 = 0, vi3 = 0;
#pragma omp simd reduction(+ : vr0, vi0, vr1, vi1, vr2, vi2, vr3, vi3)
      for (int j = 0; j < kN2P; ++j) {
        vr0 += sr0[j] * cv[j] - si0[j] * sv[j];
        vi0 += sr0[j] * sv[j] + si0[j] * cv[j];
        vr1 += sr1[j] * cv[j] - si1[j] * sv[j];
        vi1 += sr1[j] * sv[j] + si1[j] * cv[j];
        vr2 += sr2[j] * cv[j] - si2[j] * sv[j];
        vi2 += sr2[j] * sv[j] + si2[j] * cv[j];
        vr3 += sr3[j] * cv[j] - si3[j] * sv[j];
        vi3 += sr3[j] * sv[j] + si3[j] * cv[j];
      }
      float* o = out + 8 * (t * kNC + c);
      o[0] = vr0; o[1] = vi0; o[2] = vr1; o[3] = vi1;
      o[4] = vr2; o[5] = vi2; o[6] = vr3; o[7] = vi3;
    }
  }
}
)";
}

/// Thread-coarsened entry points: the runtime-compiled twin of
/// kernels/coarsen.cpp with the block factors as compile-time constants
/// (kV timesteps x kP pixels per gridder sincos batch; kV x kC
/// visibilities per degridder pixel sweep). Ragged tails use shortened
/// blocks, exactly like the static template.
std::string generate_coarsened_body() {
  return R"(
extern "C" void idg_jit_gridder(
    int nt, const float* l, const float* m, const float* n,
    const float* offset, const float* u, const float* v, const float* w,
    const float* k, const float* vr0, const float* vi0, const float* vr1,
    const float* vi1, const float* vr2, const float* vi2, const float* vr3,
    const float* vi3, float* out) {
  const int tile_cap = kP * kV * kNCP;
  static thread_local float* buf = nullptr;
  static thread_local int buf_cap = 0;
  if (buf_cap < 3 * tile_cap) {
    delete[] buf;
    buf = new float[3 * tile_cap];
    buf_cap = 3 * tile_cap;
  }
  float* ph = buf;
  float* sv = buf + tile_cap;
  float* cv = buf + 2 * tile_cap;

  for (int p0 = 0; p0 < kN2; p0 += kP) {
    const int pt = imin(kP, kN2 - p0);
    float acc[kP][8] = {};

    for (int t0 = 0; t0 < nt; t0 += kV) {
      const int vt = imin(kV, nt - t0);
      const int block = vt * kNCP;

      for (int p = 0; p < pt; ++p) {
        const int idx = p0 + p;
        const float ll = l[idx], mm = m[idx], nn = n[idx];
        const float off = offset[idx];
        float* const pph = ph + p * block;
        for (int t = 0; t < vt; ++t) {
          const float base =
              u[t0 + t] * ll + v[t0 + t] * mm + w[t0 + t] * nn;
#pragma omp simd
          for (int c = 0; c < kNCP; ++c)
            pph[t * kNCP + c] = base * k[c] - off;
        }
      }
      sincos_batch(pt * block, ph, sv, cv);

      const float* r0 = vr0 + t0 * kNCP;
      const float* i0 = vi0 + t0 * kNCP;
      const float* r1 = vr1 + t0 * kNCP;
      const float* i1 = vi1 + t0 * kNCP;
      const float* r2 = vr2 + t0 * kNCP;
      const float* i2 = vi2 + t0 * kNCP;
      const float* r3 = vr3 + t0 * kNCP;
      const float* i3 = vi3 + t0 * kNCP;
      for (int p = 0; p < pt; ++p) {
        const float* psv = sv + p * block;
        const float* pcv = cv + p * block;
        float pr0 = 0, pi0 = 0, pr1 = 0, pi1 = 0;
        float pr2 = 0, pi2 = 0, pr3 = 0, pi3 = 0;
#pragma omp simd reduction(+ : pr0, pi0, pr1, pi1, pr2, pi2, pr3, pi3)
        for (int c = 0; c < block; ++c) {
          pr0 += r0[c] * pcv[c] - i0[c] * psv[c];
          pi0 += r0[c] * psv[c] + i0[c] * pcv[c];
          pr1 += r1[c] * pcv[c] - i1[c] * psv[c];
          pi1 += r1[c] * psv[c] + i1[c] * pcv[c];
          pr2 += r2[c] * pcv[c] - i2[c] * psv[c];
          pi2 += r2[c] * psv[c] + i2[c] * pcv[c];
          pr3 += r3[c] * pcv[c] - i3[c] * psv[c];
          pi3 += r3[c] * psv[c] + i3[c] * pcv[c];
        }
        acc[p][0] += pr0; acc[p][1] += pi0;
        acc[p][2] += pr1; acc[p][3] += pi1;
        acc[p][4] += pr2; acc[p][5] += pi2;
        acc[p][6] += pr3; acc[p][7] += pi3;
      }
    }

    for (int p = 0; p < pt; ++p) {
      float* o = out + 8 * (p0 + p);
      for (int q = 0; q < 8; ++q) o[q] = acc[p][q];
    }
  }
}

extern "C" void idg_jit_degridder(
    int nt, const float* l, const float* m, const float* n,
    const float* offset, const float* u, const float* v, const float* w,
    const float* k, const float* sr0, const float* si0, const float* sr1,
    const float* si1, const float* sr2, const float* si2, const float* sr3,
    const float* si3, float* out) {
  const int block_cap = kV * kC * kN2P;
  static thread_local float* buf = nullptr;
  static thread_local int buf_cap = 0;
  if (buf_cap < 3 * block_cap) {
    delete[] buf;
    buf = new float[3 * block_cap];
    buf_cap = 3 * block_cap;
  }
  float* ph = buf;
  float* sv = buf + block_cap;
  float* cv = buf + 2 * block_cap;

  for (int t0 = 0; t0 < nt; t0 += kV) {
    const int vt = imin(kV, nt - t0);
    for (int c0 = 0; c0 < kNC; c0 += kC) {
      const int ct = imin(kC, kNC - c0);
      const int cells = vt * ct;

      for (int t = 0; t < vt; ++t) {
        const float ut = u[t0 + t], vv = v[t0 + t], wt = w[t0 + t];
        for (int c = 0; c < ct; ++c) {
          const float kc = k[c0 + c];
          float* const pph = ph + (t * ct + c) * kN2P;
#pragma omp simd
          for (int j = 0; j < kN2P; ++j)
            pph[j] = offset[j] - (ut * l[j] + vv * m[j] + wt * n[j]) * kc;
        }
      }
      sincos_batch(cells * kN2P, ph, sv, cv);

      for (int t = 0; t < vt; ++t) {
        for (int c = 0; c < ct; ++c) {
          const float* psv = sv + (t * ct + c) * kN2P;
          const float* pcv = cv + (t * ct + c) * kN2P;
          float vvr0 = 0, vvi0 = 0, vvr1 = 0, vvi1 = 0;
          float vvr2 = 0, vvi2 = 0, vvr3 = 0, vvi3 = 0;
#pragma omp simd reduction(+ : vvr0, vvi0, vvr1, vvi1, vvr2, vvi2, vvr3, vvi3)
          for (int j = 0; j < kN2P; ++j) {
            vvr0 += sr0[j] * pcv[j] - si0[j] * psv[j];
            vvi0 += sr0[j] * psv[j] + si0[j] * pcv[j];
            vvr1 += sr1[j] * pcv[j] - si1[j] * psv[j];
            vvi1 += sr1[j] * psv[j] + si1[j] * pcv[j];
            vvr2 += sr2[j] * pcv[j] - si2[j] * psv[j];
            vvi2 += sr2[j] * psv[j] + si2[j] * pcv[j];
            vvr3 += sr3[j] * pcv[j] - si3[j] * psv[j];
            vvi3 += sr3[j] * psv[j] + si3[j] * pcv[j];
          }
          float* o = out + 8 * ((t0 + t) * kNC + (c0 + c));
          o[0] = vvr0; o[1] = vvi0; o[2] = vvr1; o[3] = vvi1;
          o[4] = vvr2; o[5] = vvi2; o[6] = vvr3; o[7] = vvi3;
        }
      }
    }
  }
}
)";
}

/// Emits the specialized translation unit for one (subgrid, channels)
/// shape and (V, P, C) coarsening variant; (1, 1, 1) is the un-coarsened
/// "jit" kernel.
std::string generate_source(std::size_t n, std::size_t nc, int V, int P,
                            int C) {
  std::string src = generate_preamble(n, nc, V, P, C);
  src += (V == 1 && P == 1 && C == 1) ? generate_plain_body()
                                      : generate_coarsened_body();
  return src;
}

/// Compiles one (shape, variant) shared object and resolves its entry
/// points, reusing an object already present in the persistent cache.
/// Returns a shape with null pointers on any failure.
CompiledShape compile_shape(std::size_t n, std::size_t nc, int V, int P,
                            int C) {
  const std::string stem = cache_dir() + "/kernel_" + std::to_string(n) +
                           "_" + std::to_string(nc) + "_v" +
                           std::to_string(V) + "p" + std::to_string(P) +
                           "c" + std::to_string(C);
  const std::string src_path = stem + ".cpp";
  const std::string so_path = stem + ".so";

  // Cache hit: another run (or process) already compiled this object.
  if (::access(so_path.c_str(), R_OK) != 0) {
    {
      std::ofstream out(src_path);
      if (!out.good()) return {};
      out << generate_source(n, nc, V, P, C);
    }
    // Compile to a process-unique temp name, then rename: concurrent
    // processes racing on the same shape each publish a complete object.
    const std::string tmp_so =
        so_path + ".tmp." + std::to_string(::getpid());
    const std::string cmd = std::string("c++ ") + kCompileFlags + " -o '" +
                            tmp_so + "' '" + src_path + "' 2>/dev/null";
    if (std::system(cmd.c_str()) != 0) return {};
    if (std::rename(tmp_so.c_str(), so_path.c_str()) != 0) return {};
  }

  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return {};
  CompiledShape shape;
  shape.gridder =
      reinterpret_cast<GridderFn>(::dlsym(handle, "idg_jit_gridder"));
  shape.degridder =
      reinterpret_cast<DegridderFn>(::dlsym(handle, "idg_jit_degridder"));
  if (shape.gridder == nullptr || shape.degridder == nullptr) return {};
  // The handle is intentionally leaked: the code must stay mapped for the
  // process lifetime (kernel sets are process-wide singletons).
  return shape;
}

class ShapeCache {
 public:
  const CompiledShape& get(std::size_t n, std::size_t nc, int V, int P,
                           int C) {
    const auto key = std::make_tuple(n, nc, V, P, C);
    std::lock_guard lock(mutex_);
    auto it = shapes_.find(key);
    if (it == shapes_.end()) {
      it = shapes_.emplace(key, compile_shape(n, nc, V, P, C)).first;
    }
    return it->second;
  }

 private:
  std::mutex mutex_;
  std::map<std::tuple<std::size_t, std::size_t, int, int, int>, CompiledShape>
      shapes_;
};

ShapeCache& shape_cache() {
  static ShapeCache cache;
  return cache;
}

class JitKernels final : public KernelSet {
 public:
  JitKernels(int V, int P, int C) : V_(V), P_(P), C_(C) {}

  std::string name() const override {
    if (V_ == 1 && P_ == 1 && C_ == 1) return "jit";
    return "jit-coarsen" + std::to_string(V_) + "x" + std::to_string(P_) +
           "c" + std::to_string(C_);
  }

  void grid(const Parameters& params, const KernelData& data,
            std::span<const WorkItem> items,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<cfloat, 4> subgrids) const override {
    // Compile all needed shapes up front (outside the parallel region).
    for (const WorkItem& item : items) {
      shape_cache().get(params.subgrid_size,
                        static_cast<std::size_t>(item.nr_channels), V_, P_,
                        C_);
    }

#pragma omp parallel
    {
      std::vector<float> out(params.subgrid_size * params.subgrid_size * 8);
#pragma omp for schedule(dynamic)
      for (std::size_t i = 0; i < items.size(); ++i) {
        const WorkItem& item = items[i];
        const CompiledShape& shape = shape_cache().get(
            params.subgrid_size, static_cast<std::size_t>(item.nr_channels),
            V_, P_, C_);
        if (shape.gridder == nullptr) {
          fallback().grid(params, data, {&item, 1}, visibilities,
                          offset_view(subgrids, i));
          continue;
        }
        Scratch& s = internal::scratch();
        const internal::GeometryTable& geom = internal::geometry_table(params);
        internal::fill_geometry(params, item, geom, s);
        const std::size_t ncp =
            padded(static_cast<std::size_t>(item.nr_channels));
        internal::gather_visibility_batch(params, data, item, visibilities,
                                          ncp, s);
        shape.gridder(item.nr_timesteps, geom.l.data(), geom.m.data(), geom.n.data(),
                      s.offset.data(), s.u.data(), s.v.data(), s.w.data(),
                      s.k.data(), s.re[0].data(), s.im[0].data(),
                      s.re[1].data(), s.im[1].data(), s.re[2].data(),
                      s.im[2].data(), s.re[3].data(), s.im[3].data(),
                      out.data());
        const std::size_t n = params.subgrid_size;
        for (std::size_t idx = 0; idx < n * n; ++idx) {
          internal::store_gridder_pixel(params, data, item, i, idx / n,
                                        idx % n, out.data() + 8 * idx,
                                        subgrids);
        }
      }
    }
  }

  void degrid(const Parameters& params, const KernelData& data,
              std::span<const WorkItem> items,
              ArrayView<const cfloat, 4> subgrids,
              ArrayView<Visibility, 3> visibilities) const override {
    for (const WorkItem& item : items) {
      shape_cache().get(params.subgrid_size,
                        static_cast<std::size_t>(item.nr_channels), V_, P_,
                        C_);
    }

#pragma omp parallel
    {
      std::vector<float> out;
#pragma omp for schedule(dynamic)
      for (std::size_t i = 0; i < items.size(); ++i) {
        const WorkItem& item = items[i];
        const CompiledShape& shape = shape_cache().get(
            params.subgrid_size, static_cast<std::size_t>(item.nr_channels),
            V_, P_, C_);
        if (shape.degridder == nullptr) {
          fallback().degrid(params, data, {&item, 1},
                            offset_cview(subgrids, i), visibilities);
          continue;
        }
        Scratch& s = internal::scratch();
        const internal::GeometryTable& geom = internal::geometry_table(params);
        internal::fill_geometry(params, item, geom, s);
        const std::size_t n2p = padded(params.subgrid_size *
                                       params.subgrid_size);
        internal::load_degridder_pixels(params, data, item, i, subgrids, n2p,
                                        s);
        // The degridder also needs the item's uvw and wavenumbers staged
        // (the gridder path fills these inside gather_visibility_batch).
        internal::stage_uvw_and_wavenumbers(data, item, s);
        out.resize(static_cast<std::size_t>(item.nr_timesteps) *
                   static_cast<std::size_t>(item.nr_channels) * 8);
        shape.degridder(item.nr_timesteps, geom.l.data(), geom.m.data(), geom.n.data(),
                        s.offset.data(), s.u.data(), s.v.data(), s.w.data(),
                        s.k.data(), s.re[0].data(), s.im[0].data(),
                        s.re[1].data(), s.im[1].data(), s.re[2].data(),
                        s.im[2].data(), s.re[3].data(), s.im[3].data(),
                        out.data());
        for (int t = 0; t < item.nr_timesteps; ++t) {
          for (int c = 0; c < item.nr_channels; ++c) {
            const float* o = out.data() + 8 * (t * item.nr_channels + c);
            visibilities(static_cast<std::size_t>(item.baseline),
                         static_cast<std::size_t>(item.time_begin + t),
                         static_cast<std::size_t>(item.channel_begin + c)) = {
                {o[0], o[1]}, {o[2], o[3]}, {o[4], o[5]}, {o[6], o[7]}};
          }
        }
      }
    }
  }

 private:
  /// The no-toolchain path: a coarsened JIT variant degrades to its
  /// statically-instantiated twin (same factors, same results), the plain
  /// one to the generic optimized kernels.
  const KernelSet& fallback() const {
    if (V_ == 1 && P_ == 1 && C_ == 1) return optimized_kernels();
    try {
      return coarsened_kernel_set(V_, P_, C_);
    } catch (const Error&) {
      return optimized_kernels();
    }
  }

  /// A 1-item view positioned at subgrid slot i (the fallback path calls
  /// the generic kernels with a single-item span whose slot 0 must map to
  /// our slot i).
  static ArrayView<cfloat, 4> offset_view(ArrayView<cfloat, 4> subgrids,
                                          std::size_t i) {
    const std::size_t stride =
        subgrids.dim(1) * subgrids.dim(2) * subgrids.dim(3);
    return {subgrids.data() + i * stride,
            {1, subgrids.dim(1), subgrids.dim(2), subgrids.dim(3)}};
  }
  static ArrayView<const cfloat, 4> offset_cview(
      ArrayView<const cfloat, 4> subgrids, std::size_t i) {
    const std::size_t stride =
        subgrids.dim(1) * subgrids.dim(2) * subgrids.dim(3);
    return {subgrids.data() + i * stride,
            {1, subgrids.dim(1), subgrids.dim(2), subgrids.dim(3)}};
  }

  int V_, P_, C_;
};

}  // namespace

const KernelSet& jit_kernels() {
  static const JitKernels kernels(1, 1, 1);
  return kernels;
}

const std::vector<const KernelSet*>& jit_coarsened_kernel_sets() {
  // Two representative variants; each has a statically-instantiated twin
  // in kernels/coarsen.cpp so the names resolve (via fallback) even
  // without a toolchain.
  static const JitKernels v424(4, 2, 4);
  static const JitKernels v848(8, 4, 8);
  static const std::vector<const KernelSet*> sets = {&v424, &v848};
  return sets;
}

std::vector<std::string> jit_coarsened_variant_names() {
  std::vector<std::string> names;
  for (const KernelSet* set : jit_coarsened_kernel_sets())
    names.push_back(set->name());
  return names;
}

bool jit_available() {
  static const bool available = [] {
    const CompiledShape& probe = shape_cache().get(8, 4, 1, 1, 1);
    return probe.gridder != nullptr;
  }();
  return available;
}

std::string jit_cache_directory() { return cache_dir(); }

}  // namespace idg::kernels
