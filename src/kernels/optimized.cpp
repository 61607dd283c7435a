#include "kernels/optimized.hpp"

#include <vector>

#include "common/error.hpp"
#include "idg/backend.hpp"
#include "kernels/autotune.hpp"
#include "kernels/internal.hpp"
#include "kernels/jit.hpp"
#include "kernels/vmath.hpp"

namespace idg::kernels {

namespace {

using internal::Scratch;

/// Stages a work item for the gridder: its visibilities as unpadded
/// [t][c][8] floats (4 polarizations x re/im), its uvw coordinates and its
/// channel wavenumbers.
void stage_item(const KernelData& data, const WorkItem& item,
                ArrayView<const Visibility, 3> visibilities, Scratch& s) {
  const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
  const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
  const std::size_t bl = static_cast<std::size_t>(item.baseline);
  const std::size_t t0 = static_cast<std::size_t>(item.time_begin);
  const std::size_t c0 = static_cast<std::size_t>(item.channel_begin);
  internal::stage_uvw_and_wavenumbers(data, item, s);
  s.vis.resize(nt * nc * 8);
  float* out = s.vis.data();
  for (std::size_t t = 0; t < nt; ++t) {
    for (std::size_t c = 0; c < nc; ++c) {
      const Visibility& vis = visibilities(bl, t0 + t, c0 + c);
      for (int p = 0; p < 4; ++p) {
        *out++ = vis[p].real();
        *out++ = vis[p].imag();
      }
    }
  }
}

/// The host side of the loops in kernels/loops.hpp: per work item it stages
/// the inputs into flat arrays, runs one loop, and applies the A-terms and
/// the taper. The loop is the static one with this set's sincos, or, for
/// the runtime-compiled set, the item's (subgrid, channels) shape compiled
/// at run time where the toolchain allows.
class OptimizedKernels final : public KernelSet {
 public:
  OptimizedKernels(std::string name, SincosFn sincos, bool runtime_compiled)
      : name_(std::move(name)),
        sincos_(sincos),
        runtime_compiled_(runtime_compiled) {}

  std::string name() const override { return name_; }

  bool implements(Accumulation accumulation) const override {
    return accumulation == Accumulation::kSingle;
  }

  void grid(const Parameters& params, const KernelData& data,
            std::span<const WorkItem> items,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<cfloat, 4> subgrids) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(2) == n,
              "subgrid buffer shape mismatch");
    compile_shapes(params, items);

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      grid_item(params, data, items[i], visibilities, subgrids, i);
    }
  }

  void degrid(const Parameters& params, const KernelData& data,
              std::span<const WorkItem> items,
              ArrayView<const cfloat, 4> subgrids,
              ArrayView<Visibility, 3> visibilities) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(2) == n,
              "subgrid buffer shape mismatch");
    compile_shapes(params, items);

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      degrid_item(params, data, items[i], subgrids, i, visibilities);
    }
  }

 private:
  /// The compiled loops of one item's shape, or null for the static loops.
  const CompiledLoops* compiled(const Parameters& params,
                                const WorkItem& item) const {
    if (!runtime_compiled_) return nullptr;
    return &jit_loops(params.subgrid_size,
                      static_cast<std::size_t>(item.nr_channels));
  }

  /// Compiles every shape of `items` before the parallel loop, so no
  /// thread waits on the compiler inside it.
  void compile_shapes(const Parameters& params,
                      std::span<const WorkItem> items) const {
    for (const WorkItem& item : items) compiled(params, item);
  }

  /// Points the item's phase workspaces and output at its scratch.
  template <typename Args>
  static void bind_workspace(std::size_t n2, std::size_t nc,
                             std::size_t out_floats, Scratch& s, Args& a) {
    const std::size_t floats = loops::workspace_floats(n2, nc);
    s.phase.resize(floats);
    s.sin_v.resize(floats);
    s.cos_v.resize(floats);
    s.out.resize(out_floats);
    a.phase = s.phase.data();
    a.sin = s.sin_v.data();
    a.cos = s.cos_v.data();
    a.out = s.out.data();
  }

  void grid_item(const Parameters& params, const KernelData& data,
                 const WorkItem& item,
                 ArrayView<const Visibility, 3> visibilities,
                 ArrayView<cfloat, 4> subgrids, std::size_t slot_index) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2 = n * n;
    const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    stage_item(data, item, visibilities, s);

    loops::GridArgs a{};
    a.nt = static_cast<std::size_t>(item.nr_timesteps);
    a.l = geom.l.data();
    a.m = geom.m.data();
    a.n = geom.n.data();
    a.offset = s.offset.data();
    a.u = s.u.data();
    a.v = s.v.data();
    a.w = s.w.data();
    a.k = s.k.data();
    a.vis = s.vis.data();
    bind_workspace(n2, nc, n2 * 8, s, a);
    const CompiledLoops* jit = compiled(params, item);
    if (jit != nullptr && jit->grid != nullptr) {
      jit->grid(&a);
    } else {
      loops::grid(n2, nc, a, sincos_);
    }

    for (std::size_t idx = 0; idx < n2; ++idx)
      internal::store_gridder_pixel(params, data, item, slot_index, idx / n,
                                    idx % n, a.out + idx * 8, subgrids);
  }

  void degrid_item(const Parameters& params, const KernelData& data,
                   const WorkItem& item, ArrayView<const cfloat, 4> subgrids,
                   std::size_t slot_index,
                   ArrayView<Visibility, 3> visibilities) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2 = n * n;
    const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
    const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    internal::load_degridder_pixels(params, data, item, slot_index, subgrids,
                                    loops::padded(n2), s);
    internal::stage_uvw_and_wavenumbers(data, item, s);

    loops::DegridArgs a{};
    a.nt = nt;
    a.l = geom.l.data();
    a.m = geom.m.data();
    a.n = geom.n.data();
    a.offset = s.offset.data();
    a.u = s.u.data();
    a.v = s.v.data();
    a.w = s.w.data();
    a.k = s.k.data();
    for (int p = 0; p < 4; ++p) {
      a.re[p] = s.re[p].data();
      a.im[p] = s.im[p].data();
    }
    bind_workspace(n2, nc, nt * nc * 8, s, a);
    const CompiledLoops* jit = compiled(params, item);
    if (jit != nullptr && jit->degrid != nullptr) {
      jit->degrid(&a);
    } else {
      loops::degrid(n2, nc, a, sincos_);
    }

    const float* o = a.out;
    for (std::size_t t = 0; t < nt; ++t) {
      for (std::size_t c = 0; c < nc; ++c, o += 8) {
        visibilities(static_cast<std::size_t>(item.baseline),
                     static_cast<std::size_t>(item.time_begin) + t,
                     static_cast<std::size_t>(item.channel_begin) + c) = {
            {o[0], o[1]}, {o[2], o[3]}, {o[4], o[5]}, {o[6], o[7]}};
      }
    }
  }

  std::string name_;
  SincosFn sincos_;
  bool runtime_compiled_;
};

}  // namespace

const KernelSet& optimized_kernels() {
  static const OptimizedKernels k("optimized", &vmath::sincos_batch, false);
  return k;
}

const KernelSet& optimized_lut_kernels() {
  static const OptimizedKernels k("optimized-lut", &vmath::sincos_lut, false);
  return k;
}

const KernelSet& optimized_libm_kernels() {
  static const OptimizedKernels k("optimized-libm", &vmath::sincos_libm,
                                  false);
  return k;
}

const KernelSet& jit_kernels() {
  static const OptimizedKernels k("jit", &vmath::sincos_batch, true);
  return k;
}

const KernelSet& kernel_set(const std::string& name) {
  if (name == "reference") return reference_kernels();
  if (name == "optimized") return optimized_kernels();
  if (name == "optimized-lut") return optimized_lut_kernels();
  if (name == "optimized-libm") return optimized_libm_kernels();
  if (name == "jit") return jit_kernels();
  if (name == "tuned") return tuned_kernels();
  std::string known;
  for (const std::string& n : kernel_set_names())
    known += (known.empty() ? "" : " | ") + n;
  throw Error("unknown kernel set: '" + name + "' (expected " + known + ")");
}

std::vector<std::string> kernel_set_names() {
  return {"reference", "optimized", "optimized-lut",
          "optimized-libm", "jit", "tuned"};
}

}  // namespace idg::kernels
