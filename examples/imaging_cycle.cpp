// Full imaging loop (paper Fig 2): image -> CLEAN -> predict -> subtract,
// iterated until the sky model converges. Demonstrates gridding AND
// degridding working together, and reports the recovered source fluxes.
//
// Run: ./imaging_cycle [--cycles N] [--stations N] ...
//
// The workload itself (dataset, sky, gridding parameters, minor-cycle
// knobs) is the shared job builder in src/server/job.hpp: an `idg-server`
// job with the same knobs produces byte-identical images to this binary —
// the CI server-soak job cmp(1)s the two.
//
// Recovery knobs (DESIGN.md §12): --checkpoint <path> snapshots the loop
// state after every completed major cycle; --resume <path> restarts a
// killed run from such a snapshot, bit-identically to never having
// stopped; --retries N supervises the backend (N failed attempts per work
// group before quarantine); --deadline-ms D aborts the whole run after D
// milliseconds. The CI kill-and-resume smoke drives exactly this binary.
//
// Sharding knobs (DESIGN.md §16): --workers N runs every grid/degrid call
// across N forked worker processes (bit-identical to --workers 0, the
// in-process default); --shards M cuts each call into M shards (default
// 2xN); --heartbeat-ms D replaces a worker silent for D ms. SIGTERM and
// SIGINT (Ctrl-C) both drain the loop at the next safe point, keeping the
// last checkpoint — the CI kill-and-rebalance job SIGKILLs workers and the
// coordinator and byte-compares the results.
#include <csignal>
#include <iostream>
#include <memory>

#include "clean/major_cycle.hpp"
#include "common/cli.hpp"
#include "common/imageio.hpp"
#include "example_util.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/supervisor.hpp"
#include "kernels/optimized.hpp"
#include "server/job.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  // Worker mode: the shard coordinator re-execs this binary with
  // --idg-shard-worker as argv[1]; everything below is coordinator-only.
  if (const int rc = shard::maybe_run_worker(argc, argv); rc >= 0) return rc;
  Options opts = parse_standard_options(argc, argv);

  server::JobSpec spec;
  spec.nr_stations = static_cast<std::int32_t>(opts.get("stations", 14L));
  spec.nr_timesteps = static_cast<std::int32_t>(opts.get("time", 64L));
  spec.nr_channels = static_cast<std::int32_t>(opts.get("channels", 4L));
  spec.grid_size = static_cast<std::uint32_t>(opts.get("grid", 256L));
  spec.nr_cycles = static_cast<std::uint32_t>(opts.get("cycles", 4L));
  spec.deadline_ms = static_cast<std::uint32_t>(opts.get("deadline-ms", 0L));
  const long retries = opts.get("retries", 0L);
  spec.retries = retries > 0 ? static_cast<std::uint32_t>(retries) : 0;
  server::JobWorkload w = server::build_job_workload(spec);

  sim::BenchmarkConfig cfg;  // mirrors the workload, for the banner only
  cfg.nr_stations = spec.nr_stations;
  cfg.nr_timesteps = spec.nr_timesteps;
  cfg.nr_channels = spec.nr_channels;
  cfg.grid_size = spec.grid_size;
  cfg.subgrid_size = w.params.subgrid_size;
  std::cout << "observation: " << cfg.describe() << "\n\n";

  Plan plan(w.params, w.dataset.uvw, w.dataset.frequencies,
            w.dataset.baselines);
  auto aterms = sim::make_identity_aterms(1, spec.nr_stations,
                                          w.params.subgrid_size);

  std::unique_ptr<GridderBackend> backend;
  const long workers = opts.get("workers", 0L);
  if (workers > 0) {
    shard::ShardConfig sc;
    sc.nr_workers = static_cast<std::size_t>(workers);
    sc.nr_shards = static_cast<std::size_t>(opts.get("shards", 0L));
    sc.heartbeat_ms =
        static_cast<std::uint32_t>(opts.get("heartbeat-ms", 60000L));
    sc.worker_retries = spec.retries;
    sc.kernel_set = "optimized";
    backend = shard::make_sharded_backend(w.params, sc);
    std::cout << "sharded execution: " << sc.nr_workers << " worker(s), "
              << (sc.nr_shards > 0 ? sc.nr_shards : 2 * sc.nr_workers)
              << " shard(s) per call\n";
  } else {
    backend = std::make_unique<Processor>(w.params,
                                          kernels::optimized_kernels());
    if (spec.retries > 0) {
      SupervisorConfig sup;
      sup.max_attempts_per_group = spec.retries;
      backend = make_resilient_backend(std::move(backend), nullptr, sup);
    }
  }
  clean::MajorCycleConfig mc = server::make_major_cycle_config(spec);
  mc.checkpoint_path = opts.get("checkpoint", std::string{});
  mc.resume_path = opts.get("resume", std::string{});
  if (!mc.resume_path.empty()) {
    std::cout << "resuming from checkpoint " << mc.resume_path << "\n";
  }
  if (workers > 0 || !mc.checkpoint_path.empty()) {
    // Graceful drain: SIGTERM or Ctrl-C cancels the loop at its next safe
    // point; the last completed cycle's checkpoint survives for a
    // bit-identical --resume.
    shard::install_sigterm_drain();
    shard::install_drain_signal(SIGINT);
    mc.cancel = &shard::drain_token();
  }

  clean::MajorCycleResult result;
  try {
    result = clean::run_major_cycles(*backend, plan, w.dataset.uvw.cview(),
                                     w.visibilities.cview(), aterms.cview(),
                                     mc);
  } catch (const CancelledError& e) {
    if (shard::drain_requested() && !mc.checkpoint_path.empty()) {
      std::cout << "drained on SIGTERM/SIGINT (" << e.what()
                << "); resume with --resume " << mc.checkpoint_path << "\n";
      return 0;
    }
    throw;
  }

  std::cout << "residual Stokes-I peak per major cycle:\n";
  for (std::size_t c = 0; c < result.peak_history.size(); ++c)
    std::cout << "  cycle " << c + 1 << ": " << result.peak_history[c]
              << " Jy\n";
  std::cout << "total CLEAN components: " << result.total_components << "\n\n";

  if (opts.has("save-pgm")) {
    const std::string stem = opts.get("save-pgm", std::string("cycle"));
    write_pgm(stem + "_model.pgm", stokes_i_plane(result.model_image));
    write_pgm(stem + "_residual.pgm", stokes_i_plane(result.residual_image));
    std::cout << "wrote " << stem << "_model.pgm and " << stem
              << "_residual.pgm\n\n";
  }
  std::cout << "CLEAN model image:\n\n";
  examples::print_ascii_image(result.model_image);

  std::cout << "\nrecovered fluxes (5x5 box around each true source):\n";
  const double dl = w.pixel_scale;
  for (const auto& src : w.sky) {
    const long x =
        std::lround(src.l / dl) + static_cast<long>(spec.grid_size) / 2;
    const long y =
        std::lround(src.m / dl) + static_cast<long>(spec.grid_size) / 2;
    float flux = 0.0f;
    for (long yy = y - 2; yy <= y + 2; ++yy)
      for (long xx = x - 2; xx <= x + 2; ++xx)
        flux += result.model_image(0, static_cast<std::size_t>(yy),
                                   static_cast<std::size_t>(xx))
                    .real();
    std::cout << "  injected " << src.stokes_i << " Jy -> recovered " << flux
              << " Jy\n";
  }

  std::cout << "\ntime per pipeline stage:\n";
  for (const auto& [stage, metrics] : result.metrics)
    std::cout << "  " << stage << ": " << metrics.seconds << " s\n";
  return 0;
}
