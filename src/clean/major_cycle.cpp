#include "clean/major_cycle.hpp"

#include <algorithm>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "idg/image.hpp"
#include "obs/span.hpp"

namespace idg::clean {

namespace {

/// Checks a resumed checkpoint dimension against the current run's and
/// names the mismatch; a checkpoint from a different dataset or grid must
/// never be silently reinterpreted.
void check_dim(std::uint64_t stored, std::size_t expected, const char* what,
               const std::string& path) {
  IDG_CHECK(stored == expected, "checkpoint '" << path << "' " << what << " ("
                                               << stored
                                               << ") does not match this run ("
                                               << expected << ")");
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const MajorCycleCheckpoint& ckpt) {
  CheckpointWriter writer;
  writer.write_pod(ckpt.cycles_done);
  writer.write_pod(ckpt.total_components);
  writer.write_pod(static_cast<std::uint64_t>(ckpt.peak_history.size()));
  for (std::size_t d = 0; d < 3; ++d)
    writer.write_pod(static_cast<std::uint64_t>(ckpt.model_image.dim(d)));
  for (std::size_t d = 0; d < 3; ++d)
    writer.write_pod(static_cast<std::uint64_t>(ckpt.residual_vis.dim(d)));
  writer.write_array(ckpt.peak_history.data(), ckpt.peak_history.size());
  writer.write_array(ckpt.model_image.data(), ckpt.model_image.size());
  writer.write_array(ckpt.residual_image.data(), ckpt.residual_image.size());
  writer.write_array(ckpt.residual_vis.data(), ckpt.residual_vis.size());
  writer.commit(path, kCheckpointMagic);
}

MajorCycleCheckpoint load_checkpoint(const std::string& path) {
  CheckpointReader reader(path, kCheckpointMagic);
  MajorCycleCheckpoint ckpt;
  reader.read_pod(ckpt.cycles_done, "cycle index");
  reader.read_pod(ckpt.total_components, "component count");
  IDG_CHECK(ckpt.cycles_done >= 0, "checkpoint '"
                                       << path << "' has negative cycle index "
                                       << ckpt.cycles_done);
  std::uint64_t nr_peaks = 0;
  reader.read_pod(nr_peaks, "peak history length");
  std::uint64_t image_dims[3];
  std::uint64_t vis_dims[3];
  for (auto& d : image_dims) reader.read_pod(d, "image dimensions");
  for (auto& d : vis_dims) reader.read_pod(d, "visibility dimensions");
  // The header fully determines the payload size. Each array is checked
  // against what the file still holds before it is allocated, so a length
  // that overshoots the file is a named truncation error, not a huge (or
  // wrapped-around) allocation.
  ckpt.peak_history.resize(
      reader.checked_count({&nr_peaks, 1}, sizeof(float), "peak history"));
  reader.read_array(ckpt.peak_history.data(), ckpt.peak_history.size(),
                    "peak history");
  const auto read_image = [&](const char* what) {
    reader.checked_count(image_dims, sizeof(cfloat), what);
    Array3D<cfloat> image(image_dims[0], image_dims[1], image_dims[2]);
    reader.read_array(image.data(), image.size(), what);
    return image;
  };
  ckpt.model_image = read_image("model image");
  ckpt.residual_image = read_image("residual image");
  reader.checked_count(vis_dims, sizeof(Visibility), "residual visibilities");
  ckpt.residual_vis = Array3D<Visibility>(vis_dims[0], vis_dims[1],
                                          vis_dims[2]);
  reader.read_array(ckpt.residual_vis.data(), ckpt.residual_vis.size(),
                    "residual visibilities");
  reader.finish();
  return ckpt;
}

Array3D<cfloat> make_psf(const GridderBackend& backend, const Plan& plan,
                         ArrayView<const UVW, 2> uvw,
                         ArrayView<const Jones, 4> aterms,
                         obs::MetricsSink& sink) {
  const std::size_t g = backend.parameters().grid_size;
  Array3D<Visibility> unit(uvw.dim(0), uvw.dim(1),
                           plan.wavenumbers().size());
  const Visibility one{{1.0f, 0.0f}, {0.0f, 0.0f}, {0.0f, 0.0f}, {1.0f, 0.0f}};
  unit.fill(one);

  Array3D<cfloat> grid(kNrPolarizations, g, g);
  backend.grid(plan, uvw, unit.cview(), aterms, grid.view(), sink);
  return make_dirty_image(grid, plan.nr_planned_visibilities(),
                          backend.parameters());
}

MajorCycleResult run_major_cycles(const GridderBackend& backend,
                                  const Plan& plan,
                                  ArrayView<const UVW, 2> uvw,
                                  ArrayView<const Visibility, 3> visibilities,
                                  ArrayView<const Jones, 4> aterms,
                                  const MajorCycleConfig& config) {
  IDG_CHECK(config.nr_major_cycles >= 1, "need at least one major cycle");
  const std::size_t g = backend.parameters().grid_size;

  MajorCycleResult result;
  result.model_image = Array3D<cfloat>(kNrPolarizations, g, g);

  obs::AggregateSink sink;
  const Array3D<cfloat> psf = make_psf(backend, plan, uvw, aterms, sink);

  // Residual visibilities start as a copy of the input.
  Array3D<Visibility> residual_vis(visibilities.dim(0), visibilities.dim(1),
                                   visibilities.dim(2));
  std::copy(visibilities.begin(), visibilities.end(), residual_vis.begin());

  int first_cycle = 0;
  if (!config.resume_path.empty()) {
    MajorCycleCheckpoint ckpt = load_checkpoint(config.resume_path);
    check_dim(ckpt.model_image.dim(0), kNrPolarizations,
              "image polarization count", config.resume_path);
    check_dim(ckpt.model_image.dim(1), g, "image height", config.resume_path);
    check_dim(ckpt.model_image.dim(2), g, "image width", config.resume_path);
    for (std::size_t d = 0; d < 3; ++d) {
      check_dim(ckpt.residual_vis.dim(d), visibilities.dim(d),
                "visibility cube dimension", config.resume_path);
    }
    IDG_CHECK(ckpt.cycles_done <= config.nr_major_cycles,
              "checkpoint '" << config.resume_path << "' is " << ckpt.cycles_done
                             << " cycles in, beyond this run's "
                             << config.nr_major_cycles);
    first_cycle = ckpt.cycles_done;
    result.total_components = ckpt.total_components;
    result.peak_history = std::move(ckpt.peak_history);
    result.model_image = std::move(ckpt.model_image);
    result.residual_image = std::move(ckpt.residual_image);
    residual_vis = std::move(ckpt.residual_vis);
  }

  Array3D<Visibility> model_vis(visibilities.dim(0), visibilities.dim(1),
                                visibilities.dim(2));

  RunControl ctl;
  ctl.cancel = config.cancel;

  for (int cycle = first_cycle; cycle < config.nr_major_cycles; ++cycle) {
    // A drain requested mid-cycle aborts here, after the previous cycle's
    // checkpoint was committed — the resume is bit-identical.
    ctl.check_cancel("clean.major_cycle", cycle);

    // --- image the residual (gridding + grid FFT) -------------------------
    Array3D<cfloat> grid(kNrPolarizations, g, g);
    backend.grid(plan, uvw, residual_vis.cview(), FlagView{}, aterms,
                 grid.view(), sink, ctl);
    Array3D<cfloat> dirty = [&] {
      obs::Span span(sink, stage::kGridFft);
      return make_dirty_image(grid, plan.nr_planned_visibilities(),
                              backend.parameters());
    }();

    // --- minor cycles ------------------------------------------------------
    const CleanResult minor = hogbom_clean(dirty.view(), psf.cview(),
                                           result.model_image.view(),
                                           config.minor);
    result.total_components += minor.iterations;
    result.peak_history.push_back(minor.final_peak);
    result.residual_image = std::move(dirty);

    // --- predict the model and subtract (FFT + degridding) -----------------
    if (minor.iterations == 0 && cycle > 0) break;  // converged
    Array3D<cfloat> model_grid = [&] {
      obs::Span span(sink, stage::kGridFft);
      return model_image_to_grid(result.model_image, backend.parameters());
    }();
    backend.degrid(plan, uvw, model_grid.cview(), FlagView{}, aterms,
                   model_vis.view(), sink, ctl);
    for (std::size_t i = 0; i < residual_vis.size(); ++i) {
      residual_vis.data()[i] = visibilities.data()[i];
      residual_vis.data()[i] -= model_vis.data()[i];
    }

    // --- snapshot the completed cycle --------------------------------------
    // Only fully-completed cycles are checkpointed (after the subtract), so
    // a resumed run re-enters the loop exactly where an uninterrupted run
    // would start cycle+1. The convergence break above deliberately skips
    // the snapshot: a converged run is about to return anyway.
    if (!config.checkpoint_path.empty()) {
      MajorCycleCheckpoint ckpt;
      ckpt.cycles_done = cycle + 1;
      ckpt.total_components = result.total_components;
      ckpt.peak_history = result.peak_history;
      ckpt.model_image = Array3D<cfloat>(kNrPolarizations, g, g);
      std::copy(result.model_image.begin(), result.model_image.end(),
                ckpt.model_image.begin());
      ckpt.residual_image = Array3D<cfloat>(
          result.residual_image.dim(0), result.residual_image.dim(1),
          result.residual_image.dim(2));
      std::copy(result.residual_image.begin(), result.residual_image.end(),
                ckpt.residual_image.begin());
      ckpt.residual_vis = Array3D<Visibility>(
          residual_vis.dim(0), residual_vis.dim(1), residual_vis.dim(2));
      std::copy(residual_vis.begin(), residual_vis.end(),
                ckpt.residual_vis.begin());
      save_checkpoint(config.checkpoint_path, ckpt);
    }
    if (config.on_cycle) config.on_cycle(cycle + 1);
  }
  result.metrics = sink.snapshot();
  return result;
}

}  // namespace idg::clean
