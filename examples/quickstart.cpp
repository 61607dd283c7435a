// Quickstart: the minimal end-to-end use of the IDG library.
//
//  1. simulate an observation (SKA1-low-like layout, earth-rotation uvw),
//  2. predict visibilities for a small sky of point sources (exact DFT),
//  3. ask for an accuracy contract: params.auto_configure(epsilon) picks
//     the taper, kernel size, subgrid padding and accumulation precision
//     for the requested image error (DESIGN.md §13),
//  4. grid the visibilities and make the taper-corrected dirty image,
//  5. verify the sources reappear at their positions.
//
// Run: ./quickstart [--epsilon E] [--stations N] [--time T] ...
#include <iostream>

#include "common/cli.hpp"
#include "common/imageio.hpp"
#include "example_util.hpp"
#include "idg/accuracy.hpp"
#include "idg/backend.hpp"
#include "idg/image.hpp"
#include "idg/plan.hpp"
#include "kernels/optimized.hpp"
#include "obs/sink.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = parse_standard_options(argc, argv);

  // 1. Observation: stations, baselines, uvw tracks, frequencies.
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = static_cast<int>(opts.get("stations", 14L));
  cfg.nr_timesteps = static_cast<int>(opts.get("time", 64L));
  cfg.nr_channels = static_cast<int>(opts.get("channels", 8L));
  cfg.grid_size = static_cast<std::size_t>(opts.get("grid", 512L));
  cfg.subgrid_size = 24;
  sim::Dataset ds = sim::make_benchmark_dataset_no_vis(cfg);
  std::cout << "observation: " << cfg.describe() << "\n"
            << "field of view: " << ds.image_size << " rad\n\n";

  // 2. A small sky and its exact visibilities.
  const double dl = ds.image_size / static_cast<double>(cfg.grid_size);
  sim::SkyModel sky = {
      {static_cast<float>(60 * dl), static_cast<float>(25 * dl), 1.0f},
      {static_cast<float>(-45 * dl), static_cast<float>(-30 * dl), 0.7f},
      {0.0f, 0.0f, 0.4f},
  };
  auto vis = sim::predict_visibilities(sky, ds.uvw, ds.baselines, ds.obs);

  // 3. IDG parameters: one accuracy knob. auto_configure(epsilon) selects
  // the taper family, kernel size, subgrid padding and accumulation
  // precision so the dirty image is within epsilon of the exact DFT
  // (relative l2 over the inner field); kernel-size/subgrid knobs set by
  // hand stay available but are overridden by the contract.
  const double epsilon = opts.get("epsilon", 1e-3);
  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.auto_configure(epsilon);
  std::cout << "accuracy contract: epsilon = " << epsilon << " -> tier '"
            << accuracy::tier_for(epsilon).name
            << "' (taper " << to_string(params.taper) << ", kernel "
            << params.kernel_size << ", subgrid " << params.subgrid_size
            << ", " << to_string(params.accumulation)
            << " accumulation)\n";
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  std::cout << "plan: " << plan.nr_subgrids() << " subgrids, "
            << plan.avg_visibilities_per_subgrid()
            << " visibilities/subgrid\n";

  // 4. Grid and image (identity A-terms: no direction-dependent effects).
  // --backend selects the execution strategy: "synchronous" (default),
  // "pipelined" (the paper's triple-buffered Fig 7 pipeline) or
  // "resilient[:inner]". The kernel set honouring the contract is named by
  // accuracy::preferred_kernel_set ("tuned" for the preview tier, the
  // reference set — which implements double accumulation — for the tighter
  // tiers).
  // A-terms are sampled on the subgrid raster, so they follow the
  // contract's (possibly padded) params.subgrid_size, not the cfg knob.
  auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                          params.subgrid_size);
  BackendOptions backend_options =
      parse_backend_spec(opts.get("backend", std::string("synchronous")));
  backend_options.kernels =
      &kernels::kernel_set(accuracy::preferred_kernel_set(params));
  auto backend = make_backend(backend_options, params);
  Array3D<cfloat> grid(4, params.grid_size, params.grid_size);
  obs::AggregateSink metrics;
  backend->grid(plan, ds.uvw.cview(), vis.cview(), aterms.cview(),
                grid.view(), metrics);
  auto dirty = make_dirty_image(grid, plan.nr_planned_visibilities(), params);
  std::cout << "gridded in " << metrics.total_seconds() << " s ("
            << backend->name() << " backend)\n";

  // 5. Optionally save the image, then check the sources.
  if (opts.has("save-pgm")) {
    const std::string path = opts.get("save-pgm", std::string("dirty.pgm"));
    write_pgm(path, stokes_i_plane(dirty));
    std::cout << "wrote " << path << "\n";
  }
  std::cout << "\ndirty image (Stokes I):\n\n";
  examples::print_ascii_image(dirty);
  std::cout << "\nsource recovery:\n";
  for (const auto& src : sky) {
    const std::size_t x = static_cast<std::size_t>(
        std::lround(src.l / dl) + static_cast<long>(cfg.grid_size) / 2);
    const std::size_t y = static_cast<std::size_t>(
        std::lround(src.m / dl) + static_cast<long>(cfg.grid_size) / 2);
    std::cout << "  source at (" << src.l << ", " << src.m << ") rad: "
              << "injected " << src.stokes_i << " Jy, imaged "
              << dirty(0, y, x).real() << " Jy\n";
  }
  return 0;
}
