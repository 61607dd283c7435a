// Regenerates Fig 14: the distribution of energy consumption over the
// pipeline stages for one imaging cycle — modeled for the 2017 machines
// (TDP-based power model, DESIGN.md §2), measured-time-based for this host.
//
// Host stage times come from the observability layer (obs::AggregateSink
// fed by the selected --backend); --json <path> exports the per-stage
// metrics in the stable idg-obs/v6 schema.
//
// Expected shape: most energy in the gridder and degridder; GPUs an order
// of magnitude below the CPU in total, even including host power.
#include <iostream>

#include "arch/cyclemodel.hpp"
#include "arch/machine.hpp"
#include "arch/power.hpp"
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
  bench::print_header("Fig 14: energy distribution of one imaging cycle",
                      setup);

  const std::vector<std::string> stages = {
      stage::kGridder, stage::kDegridder, stage::kSubgridFft, stage::kAdder,
      stage::kSplitter, stage::kGridFft};

  Table table({"architecture", "stage", "energy (J)", "% of cycle", "bar"});

  // Modeled machines.
  for (const auto& machine : arch::paper_machines()) {
    const auto model = arch::model_imaging_cycle(machine, setup.plan);
    for (const auto& s : stages) {
      const double j = model.stage(s).device_joules;
      table.row()
          .add(machine.name + " (modeled)")
          .add(s)
          .add(j, 2)
          .add(100.0 * j / model.device_joules, 1)
          .add(ascii_bar(j / model.device_joules, 30));
    }
    table.row()
        .add(machine.name + " (modeled)")
        .add("TOTAL (+host)")
        .add(model.device_joules + model.host_joules, 2)
        .add(100.0, 1)
        .add("");
  }

  // Host: measured stage times x host power model.
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
  }
  backend->degrid(setup.plan, setup.dataset.uvw.cview(), grid.cview(),
                  setup.dataset.flag_view(), setup.aterms.cview(),
                  setup.dataset.visibilities.view(),
                  sink);

  const obs::MetricsSnapshot metrics = sink.snapshot();
  const auto stage_seconds = [&](const std::string& s) {
    auto it = metrics.find(s);
    return it == metrics.end() ? 0.0 : it->second.seconds;
  };
  const arch::Machine host = arch::host_machine();
  double host_total = 0.0;
  for (const auto& s : stages)
    host_total += arch::device_energy_j(host, stage_seconds(s), 0.9);
  for (const auto& s : stages) {
    const double j = arch::device_energy_j(host, stage_seconds(s), 0.9);
    table.row()
        .add("HOST (measured time, " + backend->name() + ")")
        .add(s)
        .add(j, 2)
        .add(100.0 * j / host_total, 1)
        .add(ascii_bar(j / host_total, 30));
  }

  table.print(std::cout);
  std::cout << "\nexpected shape: energy concentrated in the gridder and "
               "degridder; GPU totals an order of magnitude below the CPU "
               "(paper Fig 14).\n";
  bench::maybe_write_csv(table, opts);
  bench::maybe_write_json(metrics, opts);
  return 0;
}
