// Head-to-head: IDG versus traditional W-projection gridding on the same
// simulated observation — prediction accuracy against the exact DFT, plus
// wall-clock and kernel-storage cost (the paper's §VI-E comparison in
// miniature).
//
// Run: ./wproj_vs_idg [--support N] [--subgrid N] ...
#include <iomanip>
#include <iostream>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "idg/image.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"
#include "wproj/gridder.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = parse_standard_options(argc, argv);

  sim::BenchmarkConfig cfg;
  cfg.nr_stations = static_cast<int>(opts.get("stations", 10L));
  cfg.nr_timesteps = static_cast<int>(opts.get("time", 64L));
  cfg.nr_channels = 4;
  cfg.grid_size = 256;
  cfg.subgrid_size = static_cast<std::size_t>(opts.get("subgrid", 32L));
  sim::Dataset ds = sim::make_benchmark_dataset_no_vis(cfg);
  std::cout << "observation: " << cfg.describe() << "\n\n";

  // Ground truth: exact prediction of a 3-source sky.
  const double dl = ds.image_size / static_cast<double>(cfg.grid_size);
  sim::SkyModel sky = {
      {static_cast<float>(30 * dl), static_cast<float>(-22 * dl), 1.0f},
      {static_cast<float>(-12 * dl), static_cast<float>(35 * dl), 0.5f},
      {0.0f, 0.0f, 0.25f},
  };
  auto truth = sim::predict_visibilities(sky, ds.uvw, ds.baselines, ds.obs);
  const double rms = sim::rms_amplitude(truth);

  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = cfg.subgrid_size / 2;

  auto model = sim::render_sky_image(sky, cfg.grid_size, ds.image_size);
  auto grid = model_image_to_grid(model, params);

  Array3D<Visibility> predicted(ds.nr_baselines(), ds.nr_timesteps(),
                                ds.nr_channels());

  // --- IDG ------------------------------------------------------------------
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                          cfg.subgrid_size);
  Processor processor(params, kernels::optimized_kernels());

  Timer t_idg;
  processor.degrid_visibilities(plan, ds.uvw.cview(), grid.cview(),
                                aterms.cview(), predicted.view());
  const double idg_seconds = t_idg.seconds();
  const double idg_err = sim::max_abs_difference(truth, predicted) / rms;

  // --- W-projection ------------------------------------------------------------
  double w_max = 0.0;
  for (const auto& c : ds.uvw)
    w_max = std::max(w_max, std::abs(static_cast<double>(c.w)));
  w_max = w_max / ds.obs.min_wavelength() * 1.01 + 1.0;

  wproj::WprojParameters wp;
  wp.grid_size = cfg.grid_size;
  wp.image_size = ds.image_size;
  wp.kernel.support = static_cast<std::size_t>(opts.get("support", 16L));
  wp.kernel.oversampling = 8;
  wp.kernel.nr_w_planes = 31;
  wp.kernel.w_max = w_max;
  wproj::WprojGridder wpg(wp);

  Timer t_wpg;
  wpg.degrid_visibilities(ds.uvw.cview(), grid.cview(), ds.frequencies,
                          predicted.view());
  const double wpg_seconds = t_wpg.seconds();
  const double wpg_err = sim::max_abs_difference(truth, predicted) / rms;

  // --- report -----------------------------------------------------------------
  std::cout << std::setprecision(4)
            << "prediction vs exact DFT (max error / rms amplitude):\n"
            << "  IDG (subgrid " << params.subgrid_size << "^2):   err "
            << idg_err << ", " << idg_seconds << " s, no kernel storage\n"
            << "  WPG (support " << wp.kernel.support << "^2):   err "
            << wpg_err << ", " << wpg_seconds << " s, "
            << wpg.kernels().storage_bytes() / 1e6 << " MB kernels ("
            << wpg.kernels().construction_seconds() << " s to build)\n\n";
  std::cout << "both algorithms predict the same physics; IDG gets there "
               "without precomputing or storing convolution kernels, and "
               "its cost does not grow when A-terms are enabled "
               "(paper §VI-E).\n";
  return 0;
}
