#include "server/job.hpp"

#include "idg/plan.hpp"
#include "idg/supervisor.hpp"
#include "kernels/optimized.hpp"
#include "sim/aterm.hpp"
#include "sim/predict.hpp"

namespace idg::server {

JobWorkload build_job_workload(const JobSpec& spec) {
  spec.validate();
  JobWorkload w;

  sim::BenchmarkConfig cfg;
  cfg.nr_stations = spec.nr_stations;
  cfg.nr_timesteps = spec.nr_timesteps;
  cfg.nr_channels = spec.nr_channels;
  cfg.grid_size = spec.grid_size;
  cfg.subgrid_size = 32;
  w.dataset = sim::make_benchmark_dataset_no_vis(cfg);

  // The same bright-source-masking-two-weak-ones sky as imaging_cycle.
  w.pixel_scale = w.dataset.image_size / static_cast<double>(spec.grid_size);
  const double dl = w.pixel_scale;
  w.sky = {
      {static_cast<float>(18 * dl), static_cast<float>(-12 * dl), 2.0f},
      {static_cast<float>(-25 * dl), static_cast<float>(20 * dl), 0.3f},
      {static_cast<float>(8 * dl), static_cast<float>(30 * dl), 0.2f},
  };
  w.visibilities = sim::predict_visibilities(w.sky, w.dataset.uvw,
                                             w.dataset.baselines,
                                             w.dataset.obs);

  w.params.grid_size = spec.grid_size;
  w.params.subgrid_size = cfg.subgrid_size;
  w.params.image_size = w.dataset.image_size;
  w.params.nr_stations = spec.nr_stations;
  w.params.kernel_size = 16;
  w.params.work_group_size = 8;
  w.params.deadline_ms = spec.deadline_ms;
  return w;
}

clean::MajorCycleConfig make_major_cycle_config(const JobSpec& spec) {
  clean::MajorCycleConfig mc;
  mc.nr_major_cycles = static_cast<int>(spec.nr_cycles);
  mc.minor.gain = 0.2f;
  mc.minor.max_iterations = 200;
  return mc;
}

clean::MajorCycleResult run_imaging_job(const JobSpec& spec,
                                        const JobExecution& exec) {
  JobWorkload w = build_job_workload(spec);
  Plan plan(w.params, w.dataset.uvw, w.dataset.frequencies,
            w.dataset.baselines);
  // One A-term slot per aterm_interval timesteps, or the plan's slot index
  // runs past the cube for long observations.
  const int slots = (spec.nr_timesteps + w.params.aterm_interval - 1) /
                    w.params.aterm_interval;
  auto aterms = sim::make_identity_aterms(slots, spec.nr_stations,
                                          w.params.subgrid_size);

  std::unique_ptr<GridderBackend> backend =
      std::make_unique<Processor>(w.params, kernels::optimized_kernels());
  if (spec.retries > 0) {
    SupervisorConfig sup;
    sup.max_attempts_per_group = spec.retries;
    backend = make_resilient_backend(std::move(backend), nullptr, sup);
  }

  clean::MajorCycleConfig mc = make_major_cycle_config(spec);
  mc.checkpoint_path = exec.checkpoint_path;
  mc.resume_path = exec.resume_path;
  mc.cancel = exec.cancel;
  mc.on_cycle = exec.on_cycle;
  return clean::run_major_cycles(*backend, plan, w.dataset.uvw.cview(),
                                 w.visibilities.cview(), aterms.cview(), mc);
}

}  // namespace idg::server
