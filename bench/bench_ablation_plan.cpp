// Ablation: the execution-plan trade-offs (paper §V-A).
//
// Two knobs shape IDG's efficiency:
//  * kernel_size — the uv margin reserved per subgrid for taper/A-term/
//    W-term support. Larger margins raise accuracy but shrink the area
//    available for packing visibilities, producing more subgrids and more
//    per-visibility arithmetic.
//  * max_timesteps_per_subgrid (T-tilde-max) — bounds work-item size; the
//    paper uses it to keep per-subgrid compute "comparable" across items.
//
// For each setting this bench reports subgrid statistics, measured gridding
// throughput, and degridding accuracy against the exact predictor.
#include <iostream>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "idg/image.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"
#include "sim/predict.hpp"
#include "sim/skymodel.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Ablation: execution-plan parameters", setup);
  const auto& ds = setup.dataset;

  // Accuracy probe: degrid a pixel-centred point source, compare to the
  // exact prediction.
  const double dl =
      setup.params.image_size / static_cast<double>(setup.params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(24 * dl),
                                        static_cast<float>(-18 * dl), 1.0f}};
  auto expected = sim::predict_visibilities(sky, ds.uvw, ds.baselines, ds.obs);
  const double rms = sim::rms_amplitude(expected);
  auto model = sim::render_sky_image(sky, setup.params.grid_size,
                                     setup.params.image_size);
  auto model_grid = model_image_to_grid(model, setup.params);

  Array3D<Visibility> predicted(ds.nr_baselines(), ds.nr_timesteps(),
                                ds.nr_channels());
  Array3D<cfloat> grid(4, setup.params.grid_size, setup.params.grid_size);

  Table table({"kernel size", "T~max", "subgrids", "vis/subgrid",
               "gridding (MVis/s)", "degrid err (rel)"});

  auto run = [&](std::size_t kernel_size, int tmax) {
    Parameters p = setup.params;
    p.kernel_size = kernel_size;
    p.max_timesteps_per_subgrid = tmax;
    Plan plan(p, ds.uvw, ds.frequencies, ds.baselines);
    Processor proc(p, kernels::optimized_kernels());

    grid.zero();
    obs::AggregateSink gt;
    proc.grid_visibilities(plan, ds.uvw.cview(), ds.visibilities.cview(),
                           setup.aterms.cview(), grid.view(), gt);
    proc.degrid_visibilities(plan, ds.uvw.cview(), model_grid.cview(),
                             setup.aterms.cview(), predicted.view());
    const double err =
        sim::max_abs_difference(expected, predicted) / rms;
    table.row()
        .add(static_cast<int>(kernel_size))
        .add(tmax)
        .add(static_cast<std::uint64_t>(plan.nr_subgrids()))
        .add(plan.avg_visibilities_per_subgrid(), 1)
        .add(static_cast<double>(plan.nr_planned_visibilities()) /
                 gt.total_seconds() / 1e6,
             3)
        .add(err, 5);
  };

  for (std::size_t ks : {2UL, 4UL, 8UL, 12UL, 16UL}) {
    if (ks >= setup.params.subgrid_size) continue;
    run(ks, 128);
  }
  for (int tmax : {8, 32, 128, 512}) run(8, tmax);

  table.print(std::cout);
  std::cout << "\nexpected shape: larger kernel_size -> fewer visibilities "
               "per subgrid (more subgrids, lower throughput) but lower "
               "error; T~max mainly balances work-item sizes.\n";
  bench::maybe_write_csv(table, opts);
  return 0;
}
