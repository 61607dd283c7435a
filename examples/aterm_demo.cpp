// Direction-dependent-effect (A-term) correction demo — the capability
// that motivates IDG (paper §I, §III): per-station complex gain screens
// corrupt the observation; gridding with the matching A-terms removes the
// corruption in the image domain at negligible extra cost.
//
// The demo images the same corrupted visibilities twice — without and with
// A-term correction — and compares the recovered source.
//
// Run: ./aterm_demo [--phase-rms R] ...
#include <iomanip>
#include <iostream>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "example_util.hpp"
#include "idg/image.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = parse_standard_options(argc, argv);

  sim::BenchmarkConfig cfg;
  cfg.nr_stations = static_cast<int>(opts.get("stations", 10L));
  cfg.nr_timesteps = static_cast<int>(opts.get("time", 64L));
  cfg.nr_channels = 4;
  cfg.grid_size = 256;
  cfg.subgrid_size = 32;
  cfg.aterm_interval = 16;
  sim::Dataset ds = sim::make_benchmark_dataset_no_vis(cfg);
  std::cout << "observation: " << cfg.describe() << "\n\n";

  // Per-station ionospheric-like phase screens, changing every
  // aterm_interval timesteps.
  const int nr_slots = cfg.nr_timesteps / cfg.aterm_interval;
  const double phase_rms = opts.get("phase-rms", 1.2);
  auto screens = sim::make_phase_screen_aterms(
      nr_slots, cfg.nr_stations, cfg.subgrid_size, ds.image_size, phase_rms,
      42);
  auto identity = sim::make_identity_aterms(nr_slots, cfg.nr_stations,
                                            cfg.subgrid_size);

  // One bright source, observed through the screens.
  const double dl = ds.image_size / static_cast<double>(cfg.grid_size);
  sim::SkyModel sky = {
      {static_cast<float>(20 * dl), static_cast<float>(14 * dl), 1.0f}};
  sim::ATermContext ctx{&screens, cfg.aterm_interval, ds.image_size};
  auto corrupted =
      sim::predict_visibilities(sky, ds.uvw, ds.baselines, ds.obs, ctx);

  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = 16;
  params.aterm_interval = cfg.aterm_interval;
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  Processor processor(params, kernels::optimized_kernels());

  auto image_with = [&](const sim::ATermCube& aterms, const char* label) {
    Array3D<cfloat> grid(4, params.grid_size, params.grid_size);
    Timer timer;
    processor.grid_visibilities(plan, ds.uvw.cview(), corrupted.cview(),
                                aterms.cview(), grid.view());
    const double seconds = timer.seconds();
    auto image = make_dirty_image(grid, plan.nr_planned_visibilities(), params);
    const std::size_t x = cfg.grid_size / 2 + 20;
    const std::size_t y = cfg.grid_size / 2 + 14;
    std::cout << label << ": source peak = " << std::setprecision(3)
              << image(0, y, x).real() << " Jy (true 1.0), gridding took "
              << seconds << " s\n";
    return image;
  };

  std::cout << "imaging the corrupted data...\n";
  auto uncorrected = image_with(identity, "  without A-term correction");
  auto corrected = image_with(screens, "  with    A-term correction");

  std::cout << "\nkey point (paper §VI-E): the corrected run costs "
               "essentially the same — IDG applies A-terms as image-domain "
               "multiplications, not as larger convolution kernels.\n";
  std::cout << "\ncorrected image:\n\n";
  examples::print_ascii_image(corrected);
  (void)uncorrected;
  return 0;
}
