// Regenerates Fig 9: the distribution of runtime over the pipeline stages
// for one full imaging cycle (gridding + degridding with all supporting
// steps), measured on this host and modeled for the paper's three machines.
//
// The measured breakdown comes from the observability layer: the selected
// backend (--backend synchronous|pipelined) records every stage span into
// an obs::AggregateSink, and --json <path> exports the per-stage metrics in
// the stable idg-obs/v6 schema.
//
// Expected shape (paper §VI-B): "For all architectures, runtime is
// dominated by the gridder and degridder kernels (more than 93%)."
#include <iostream>

#include "arch/cyclemodel.hpp"
#include "arch/machine.hpp"
#include "bench_common.hpp"
#include "idg/image.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Fig 9: runtime distribution of one imaging cycle",
                      setup);

  const std::vector<std::string> stages = {
      stage::kGridder, stage::kDegridder, stage::kSubgridFft, stage::kAdder,
      stage::kSplitter, stage::kGridFft};

  // --- measured on this host ------------------------------------------------
  const KernelSet& kernels = bench::kernel_set_from_options(
      opts, setup.params, static_cast<std::size_t>(setup.config.nr_channels));
  auto backend = bench::backend_from_options(opts, setup.params, kernels);
  Array3D<cfloat> grid(4, setup.params.grid_size, setup.params.grid_size);

  obs::AggregateSink sink;
  backend->grid(setup.plan, setup.dataset.uvw.cview(),
                setup.dataset.visibilities.cview(),
                setup.dataset.flag_view(), setup.aterms.cview(),
                grid.view(), sink);
  {
    obs::Span span(sink, stage::kGridFft);
    auto dirty = make_dirty_image(grid, setup.plan.nr_planned_visibilities(),
                                  setup.params);
    (void)dirty;
    auto model_grid = model_image_to_grid(dirty, setup.params);
    (void)model_grid;
  }
  backend->degrid(setup.plan, setup.dataset.uvw.cview(), grid.cview(),
                  setup.dataset.flag_view(), setup.aterms.cview(),
                  setup.dataset.visibilities.view(),
                  sink);

  const obs::MetricsSnapshot metrics = sink.snapshot();
  const double host_total = obs::total_seconds(metrics);
  const auto stage_seconds = [&](const std::string& s) {
    auto it = metrics.find(s);
    return it == metrics.end() ? 0.0 : it->second.seconds;
  };

  Table table({"architecture", "stage", "seconds", "% of cycle", "bar"});
  for (const auto& s : stages) {
    const double sec = stage_seconds(s);
    table.row()
        .add("HOST (measured, " + backend->name() + ")")
        .add(s)
        .add(sec, 4)
        .add(100.0 * sec / host_total, 1)
        .add(ascii_bar(sec / host_total, 30));
  }

  // --- modeled for the paper's machines ---------------------------------------
  for (const auto& machine : arch::paper_machines()) {
    const auto model = arch::model_imaging_cycle(machine, setup.plan);
    for (const auto& s : stages) {
      const double sec = model.stage(s).seconds;
      table.row()
          .add(machine.name + " (modeled)")
          .add(s)
          .add(sec, 4)
          .add(100.0 * sec / model.total_seconds, 1)
          .add(ascii_bar(sec / model.total_seconds, 30));
    }
  }
  table.print(std::cout);

  const double kernel_frac =
      (stage_seconds(stage::kGridder) + stage_seconds(stage::kDegridder)) /
      host_total;
  std::cout << "\nhost cycle total: " << host_total << " s; gridder+degridder"
            << " = " << 100.0 * kernel_frac
            << " % (paper: >93 % on all architectures)\n";
  std::cout << "adder: " << stage_seconds(stage::kAdder) << " s, plan "
            << (setup.params.plan_ordering == PlanOrdering::kTileSorted
                    ? "tile-sorted"
                    : "arrival-ordered")
            << ", tile " << setup.params.adder_tile_size
            << " px (ablate with --sorted/--unsorted)\n";
  bench::maybe_write_csv(table, opts);
  bench::maybe_write_json(metrics, opts);
  return 0;
}
