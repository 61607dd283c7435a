// The in-process imaging workloads: cycle-long (pipelined executor,
// kernel-bound), wide-field (w-stacking, grid-bound) and sharded (worker
// processes, shard-bound).
#include "imaging.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "arch/attribution.hpp"
#include "arch/machine.hpp"
#include "clean/hogbom.hpp"
#include "common/error.hpp"
#include "idg/image.hpp"
#include "idg/pipelined.hpp"
#include "idg/processor.hpp"
#include "idg/supervisor.hpp"
#include "idg/wstack.hpp"
#include "kernels/optimized.hpp"
#include "server/job.hpp"
#include "shard/coordinator.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"
#include "sim/skymodel.hpp"

namespace perfbench {

using namespace idg;

// --- reference capture and comparison ----------------------------------------

OutputCheck capture_outputs(CallOutputs& capture) {
  return [&capture](CallKind kind, std::size_t, const void* data,
                    std::size_t bytes) {
    auto& list = kind == CallKind::kGrid ? capture.grids : capture.degrids;
    const auto* p = static_cast<const unsigned char*>(data);
    list.emplace_back(p, p + bytes);
  };
}

OutputCheck compare_outputs(const CallOutputs& reference,
                            WorkloadResult& result, const std::string& what) {
  return [&reference, &result, what](CallKind kind, std::size_t index,
                                     const void* data, std::size_t bytes) {
    const bool grid = kind == CallKind::kGrid;
    const auto& list = grid ? reference.grids : reference.degrids;
    if (index >= list.size() || list[index].size() != bytes ||
        std::memcmp(list[index].data(), data, bytes) != 0) {
      result.problem(what + ": " + (grid ? "grid" : "degrid") + " call " +
                     std::to_string(index) +
                     " output differs from the synchronous reference");
    }
  };
}

namespace {

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(*a.data())) == 0;
}

}  // namespace

void compare_job(const JobOutputs& reference, const JobOutputs& got,
                 WorkloadResult& result, const std::string& what) {
  if (!same_bytes(reference.peak_history, got.peak_history))
    result.problem(what + ": CLEAN peak history differs");
  if (reference.total_components != got.total_components)
    result.problem(what + ": CLEAN component count " +
                   std::to_string(got.total_components) + " != " +
                   std::to_string(reference.total_components));
  if (!same_bytes(reference.model_image, got.model_image))
    result.problem(what + ": model image differs");
  if (!same_bytes(reference.residual_image, got.residual_image))
    result.problem(what + ": residual image differs");
}

JobOutputs outputs_of(clean::MajorCycleResult&& result) {
  JobOutputs out;
  out.peak_history = std::move(result.peak_history);
  out.total_components = result.total_components;
  out.model_image = std::move(result.model_image);
  out.residual_image = std::move(result.residual_image);
  return out;
}

// --- per-layer metrics --------------------------------------------------------

void set_layer_metrics(const LayerInputs& in, WorkloadResult& result) {
  const double jobs = static_cast<double>(std::max<std::size_t>(in.jobs, 1));
  const auto stage = [&](const char* name) -> const obs::StageMetrics* {
    const auto it = in.snapshot.find(name);
    return it == in.snapshot.end() ? nullptr : &it->second;
  };
  const auto stage_s = [&](const char* name) {
    const obs::StageMetrics* m = stage(name);
    return m != nullptr ? m->seconds / jobs : 0.0;
  };
  const auto span_s = [&](const char* name) {
    const auto it = in.spans.find(name);
    return it == in.spans.end() ? 0.0 : it->second.self_seconds / jobs;
  };
  const auto mvis = [&](const char* name) {
    const obs::StageMetrics* m = stage(name);
    return m != nullptr && m->seconds > 0.0
               ? static_cast<double>(m->ops.visibilities) / m->seconds / 1e6
               : 0.0;
  };

  result.set("kernels.gridder_s", stage_s(stage::kGridder), "s");
  result.set("kernels.degridder_s", stage_s(stage::kDegridder), "s");
  result.set("kernels.gridder_mvis_s", mvis(stage::kGridder), "MVis/s");
  result.set("kernels.degridder_mvis_s", mvis(stage::kDegridder), "MVis/s");
  double gridder_pct = 0.0;
  double degridder_pct = 0.0;
  if (stage(stage::kGridder) != nullptr || stage(stage::kDegridder) != nullptr) {
    for (const arch::StageAttribution& row :
         arch::attribute_roofline(arch::host_machine(), in.snapshot)) {
      if (row.stage == stage::kGridder) gridder_pct = row.pct_of_bound;
      if (row.stage == stage::kDegridder) degridder_pct = row.pct_of_bound;
    }
  }
  result.set("kernels.gridder_pct_bound", gridder_pct, "%");
  result.set("kernels.degridder_pct_bound", degridder_pct, "%");
  double ops = 0.0;
  for (const char* name : {stage::kGridder, stage::kDegridder}) {
    if (const obs::StageMetrics* m = stage(name))
      ops += static_cast<double>(m->ops.ops());
  }
  result.set("kernels.gops", ops / jobs / 1e9, "Gop");

  const double grid_fft_s = stage_s(stage::kGridFft);
  result.set("fft.subgrid_s", stage_s(stage::kSubgridFft), "s");
  result.set("fft.grid_s", grid_fft_s, "s");

  result.set("adder.add_s", stage_s(stage::kAdder), "s");
  result.set("adder.split_s", stage_s(stage::kSplitter), "s");
  const obs::StageMetrics* adder = stage(stage::kAdder);
  result.set("adder.add_gbs",
             adder != nullptr && adder->seconds > 0.0
                 ? static_cast<double>(adder->moved_bytes) / adder->seconds / 1e9
                 : 0.0,
             "GB/s");

  result.set("wstack.combine_s", span_s("wstack.combine"), "s");
  result.set("clean.psf_s", span_s("clean.psf"), "s");
  result.set("clean.minor_s",
             in.spans.count("clean.between_calls") != 0
                 ? span_s("clean.between_calls") - grid_fft_s
                 : span_s("clean.minor"),
             "s");
  result.set("clean.subtract_s", span_s("clean.subtract"), "s");
  result.set("clean.components", in.components, "count");

  result.set("exec.scrub_s", stage_s(stage::kScrub), "s");
  // Stage seconds inside the grid/degrid calls: all but the grid FFTs.
  const double call_stage_s =
      obs::total_seconds(in.snapshot) - grid_fft_s * jobs;
  result.set("exec.overlap",
             in.call_wall_s > 0.0 ? call_stage_s / in.call_wall_s : 0.0,
             "ratio");
}

void set_plan_metrics(const Plan& plan, WorkloadResult& result) {
  result.set("plan.subgrids", static_cast<double>(plan.nr_subgrids()), "count");
  result.set("plan.vis_per_subgrid", plan.avg_visibilities_per_subgrid(),
             "count");
}

// --- the in-process workloads -------------------------------------------------

namespace {

struct Sizes {
  int stations = 0;
  int timesteps = 0;
  int channels = 0;
  std::size_t grid = 0;
  int cycles = 1;
  int wplanes = 0;      ///< > 0: w-stacking with this many planes
  float w_scale = 1.0f; ///< w inflation (wide-field)
  std::size_t workers = 0;  ///< > 0: sharded backend
};

Sizes sizes_for(const std::string& workload, bool tiny) {
  Sizes s;
  if (workload == "cycle-long") {
    s = tiny ? Sizes{6, 16, 4, 128, 1} : Sizes{14, 128, 16, 256, 3};
  } else if (workload == "wide-field") {
    s = tiny ? Sizes{6, 16, 4, 128, 1, 2, 40.0f}
             : Sizes{8, 32, 4, 256, 2, 8, 40.0f};
  } else if (workload == "sharded") {
    s = tiny ? Sizes{6, 16, 4, 128, 1} : Sizes{12, 64, 4, 256, 2};
    s.workers = 2;
  } else {
    IDG_CHECK(false, "unknown workload '" << workload << "'");
  }
  return s;
}

/// cycle-long's executor: the pipelined processor with three buffers and a
/// one-thread adder pool. With the FFT stage thread that leaves nproc - 2
/// hardware threads for the gridder stage's OpenMP team, which run.py sets
/// through OMP_NUM_THREADS.
std::unique_ptr<GridderBackend> make_pipelined(const Parameters& p) {
  return std::make_unique<PipelinedProcessor>(p, kernels::optimized_kernels(),
                                              3, 1);
}

/// Times `calls` grid calls of the synchronous Processor, cycle-long's
/// pipelined executor, and that executor under the supervisor (with the
/// synchronous failover make_backend gives "resilient"), each on `plan`
/// (min of the calls). Sets exec.pipelined_speedup and
/// exec.resilient_overhead_frac; returns the synchronous minimum.
double measure_executor_ladder(const Parameters& params, const Plan& plan,
                               ArrayView<const UVW, 2> uvw,
                               ArrayView<const Visibility, 3> vis,
                               ArrayView<const Jones, 4> aterms, int calls,
                               WorkloadResult& result) {
  const auto fastest = [&](const GridderBackend& backend) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < calls; ++i) {
      Array3D<cfloat> grid(kNrPolarizations, params.grid_size,
                           params.grid_size);
      const Clock::time_point t0 = Clock::now();
      backend.grid(plan, uvw, vis, aterms, grid.view());
      best = std::min(best, seconds_since(t0));
    }
    return best;
  };
  const double sync =
      fastest(Processor(params, kernels::optimized_kernels()));
  const double pipelined = fastest(*make_pipelined(params));
  const double resilient = fastest(*make_resilient_backend(
      make_pipelined(params),
      std::make_unique<Processor>(params, kernels::optimized_kernels())));
  result.set("exec.pipelined_speedup", sync / pipelined, "ratio");
  result.set("exec.resilient_overhead_frac", resilient / pipelined - 1.0,
             "ratio");
  return sync;
}

/// One complete set of inputs, built anew by every setup.
struct Inputs {
  sim::Dataset dataset;
  Array3D<Visibility> visibilities;
  Parameters params;
  std::unique_ptr<Plan> plan;
  sim::ATermCube aterms;
  std::unique_ptr<WStackProcessor> wstack;
  std::unique_ptr<GridderBackend> backend;
  double dataset_s = 0.0;
  double predict_s = 0.0;
  double plan_s = 0.0;
};

std::unique_ptr<Inputs> build_inputs(const Sizes& s, std::uint32_t seed) {
  auto in = std::make_unique<Inputs>();
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = s.stations;
  cfg.nr_timesteps = s.timesteps;
  cfg.nr_channels = s.channels;
  cfg.grid_size = s.grid;
  cfg.subgrid_size = 32;
  cfg.seed = seed;

  Clock::time_point t0 = Clock::now();
  in->dataset = sim::make_benchmark_dataset_no_vis(cfg);
  if (s.wplanes > 0) {
    for (UVW& c : in->dataset.uvw) c.w *= s.w_scale;
  }
  in->dataset_s = seconds_since(t0);

  // build_job_workload's sky: one bright source masking two weak ones.
  t0 = Clock::now();
  const double dl = in->dataset.image_size / static_cast<double>(s.grid);
  const sim::SkyModel sky = {
      {static_cast<float>(18 * dl), static_cast<float>(-12 * dl), 2.0f},
      {static_cast<float>(-25 * dl), static_cast<float>(20 * dl), 0.3f},
      {static_cast<float>(8 * dl), static_cast<float>(30 * dl), 0.2f},
  };
  in->visibilities = sim::predict_visibilities(
      sky, in->dataset.uvw, in->dataset.baselines, in->dataset.obs);
  in->predict_s = seconds_since(t0);

  Parameters& p = in->params;
  p.grid_size = s.grid;
  p.subgrid_size = cfg.subgrid_size;
  p.image_size = in->dataset.image_size;
  p.nr_stations = s.stations;
  p.kernel_size = 16;
  p.work_group_size = 8;
  const int slots = (s.timesteps + p.aterm_interval - 1) / p.aterm_interval;
  in->aterms = sim::make_identity_aterms(slots, s.stations, p.subgrid_size);

  t0 = Clock::now();
  const sim::Dataset& ds = in->dataset;
  if (s.wplanes > 0) {
    in->wstack = std::make_unique<WStackProcessor>(
        p, WPlaneModel::fit(s.wplanes, ds.uvw, ds.frequencies),
        kernels::optimized_kernels());
    in->plan = std::make_unique<Plan>(
        in->wstack->make_plan(ds.uvw, ds.frequencies, ds.baselines));
  } else {
    in->plan =
        std::make_unique<Plan>(p, ds.uvw, ds.frequencies, ds.baselines);
  }
  in->plan_s = seconds_since(t0);

  if (s.workers > 0) {
    shard::ShardConfig sc;
    sc.nr_workers = s.workers;
    sc.kernel_set = "optimized";
    in->backend = shard::make_sharded_backend(p, sc);
  } else if (s.wplanes == 0) {
    in->backend = make_pipelined(p);
  }
  return in;
}

clean::MajorCycleConfig cycle_config(const Sizes& s) {
  clean::MajorCycleConfig mc;
  mc.nr_major_cycles = s.cycles;
  mc.minor.gain = 0.2f;
  mc.minor.max_iterations = 200;
  return mc;
}

void subtract(Array3D<Visibility>& residual,
              ArrayView<const Visibility, 3> visibilities,
              const Array3D<Visibility>& model) {
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual.data()[i] = visibilities.data()[i];
    residual.data()[i] -= model.data()[i];
  }
}

/// The w-stacking imaging job, composed from WStackProcessor's public
/// calls: plane-stack PSF, grid, plane combination, CLEAN, model planes,
/// degrid, subtract. Grid/degrid calls are timed into `log` and their
/// outputs handed to `check`.
JobOutputs wstack_job(const Inputs& in, const clean::MajorCycleConfig& config,
                      CallLog& log, const OutputCheck& check,
                      obs::MetricsSink& sink, Tracer& tracer) {
  const WStackProcessor& wp = *in.wstack;
  const Plan& plan = *in.plan;
  const auto uvw = in.dataset.uvw.cview();
  const auto aterms = in.aterms.cview();
  const auto vis = in.visibilities.cview();
  const std::size_t g = in.params.grid_size;
  const auto planned = static_cast<std::uint64_t>(plan.nr_planned_visibilities());
  std::size_t grid_calls = 0;
  std::size_t degrid_calls = 0;

  const auto grid_call = [&](ArrayView<const Visibility, 3> input) {
    Tracer::Scope span(&tracer, "exec.grid");
    Array4D<cfloat> grids = wp.make_grids();
    const Clock::time_point t0 = Clock::now();
    wp.grid_visibilities(plan, uvw, input, aterms, grids.view(), sink);
    const double seconds = seconds_since(t0);
    log.grid_seconds.push_back(seconds);
    log.grid_mvis_s.push_back(static_cast<double>(planned) / seconds / 1e6);
    if (check) check(CallKind::kGrid, grid_calls, grids.data(), grids.bytes());
    ++grid_calls;
    return grids;
  };

  JobOutputs out;
  out.model_image = Array3D<cfloat>(kNrPolarizations, g, g);
  Array3D<cfloat> psf;
  {
    Tracer::Scope span(&tracer, "clean.psf");
    Array3D<Visibility> unit(vis.dim(0), vis.dim(1), vis.dim(2));
    unit.fill(Visibility{{1.0f, 0.0f}, {0.0f, 0.0f}, {0.0f, 0.0f},
                         {1.0f, 0.0f}});
    const Array4D<cfloat> grids = grid_call(unit.cview());
    psf = wp.make_dirty_image(grids.cview(), planned);
  }
  Array3D<Visibility> residual_vis(vis.dim(0), vis.dim(1), vis.dim(2));
  Array3D<Visibility> model_vis(vis.dim(0), vis.dim(1), vis.dim(2));
  {
    Tracer::Scope span(&tracer, "clean.subtract");
    std::copy(vis.begin(), vis.end(), residual_vis.begin());
  }

  for (int cycle = 0; cycle < config.nr_major_cycles; ++cycle) {
    Array3D<cfloat> dirty;
    {
      const Array4D<cfloat> grids = grid_call(residual_vis.cview());
      Tracer::Scope span(&tracer, "wstack.combine");
      dirty = wp.make_dirty_image(grids.cview(), planned);
    }
    clean::CleanResult minor;
    {
      Tracer::Scope span(&tracer, "clean.minor");
      minor = clean::hogbom_clean(dirty.view(), psf.cview(),
                                  out.model_image.view(), config.minor);
    }
    out.total_components += minor.iterations;
    out.peak_history.push_back(minor.final_peak);
    out.residual_image = std::move(dirty);
    if (minor.iterations == 0 && cycle > 0) break;

    Array4D<cfloat> model_grids;
    {
      Tracer::Scope span(&tracer, "wstack.combine");
      model_grids = wp.model_image_to_grids(out.model_image);
    }
    {
      Tracer::Scope span(&tracer, "exec.degrid");
      const Clock::time_point t0 = Clock::now();
      wp.degrid_visibilities(plan, uvw, model_grids.cview(), aterms,
                             model_vis.view(), sink);
      const double seconds = seconds_since(t0);
      log.degrid_seconds.push_back(seconds);
      log.degrid_mvis_s.push_back(static_cast<double>(planned) / seconds / 1e6);
    }
    if (check) {
      check(CallKind::kDegrid, degrid_calls, model_vis.data(),
            model_vis.bytes());
    }
    ++degrid_calls;
    Tracer::Scope span(&tracer, "clean.subtract");
    subtract(residual_vis, vis, model_vis);
  }
  return out;
}

/// Splits a traced run_major_cycles job by layer from outside, using the
/// begin and end of its grid/degrid calls (grid call 0 is the PSF's) and
/// the times its on_cycle hook fired, and records the pieces as spans:
///   clean.psf            job start to PSF grid call, and PSF grid call to
///                        the first cycle's grid call (unit fill, PSF image,
///                        residual copy)
///   clean.between_calls  a cycle's grid call to its degrid call, or to the
///                        job's end when CLEAN converged (grid FFTs and the
///                        minor cycles)
///   clean.subtract       a cycle's degrid call to its on_cycle hook
/// The grid/degrid calls carry their own exec.* spans. What is left (grid
/// allocation between cycles, the result hand-off) stays unattributed.
void attribute_cycle(Clock::time_point begin, Clock::time_point end,
                     std::span<const Interval> grids,
                     std::span<const Interval> degrids,
                     std::span<const Clock::time_point> cycles_done,
                     Tracer& tracer) {
  IDG_CHECK(grids.size() >= 2 && degrids.size() <= grids.size() - 1 &&
                cycles_done.size() == degrids.size(),
            "traced job made " << grids.size() << " grid calls, "
                               << degrids.size() << " degrid calls and "
                               << cycles_done.size() << " cycles");
  tracer.add("clean.psf", begin, grids[0].begin);
  tracer.add("clean.psf", grids[0].end, grids[1].begin);
  for (std::size_t c = 0; c + 1 < grids.size(); ++c) {
    const bool predicted = c < degrids.size();
    tracer.add("clean.between_calls", grids[c + 1].end,
               predicted ? degrids[c].begin : end);
    if (predicted) tracer.add("clean.subtract", degrids[c].end, cycles_done[c]);
  }
}

/// Runs one job of the workload: wide-field through the composed
/// w-stacking cycle, the others through clean::run_major_cycles on the
/// timed backend. A traced job adds its stage metrics to `stages` and its
/// per-layer split to `tracer`.
JobOutputs run_job(const Inputs& in, const clean::MajorCycleConfig& mc,
                   bool traced, CallLog& log, const OutputCheck& check,
                   obs::AggregateSink& stages, Tracer& tracer) {
  if (in.wstack) {
    return wstack_job(in, mc, log, check,
                      traced ? static_cast<obs::MetricsSink&>(stages)
                             : obs::null_sink(),
                      tracer);
  }
  TimedBackend timed(*in.backend, log, &tracer);
  timed.set_check(check);
  clean::MajorCycleConfig config = mc;
  std::vector<Clock::time_point> cycles_done;
  if (traced) {
    config.on_cycle = [&cycles_done](int) {
      cycles_done.push_back(Clock::now());
    };
  }
  const std::size_t first_grid = log.grid_calls.size();
  const std::size_t first_degrid = log.degrid_calls.size();
  const Clock::time_point begin = Clock::now();
  clean::MajorCycleResult result = clean::run_major_cycles(
      timed, *in.plan, in.dataset.uvw.cview(), in.visibilities.cview(),
      in.aterms.cview(), config);
  if (traced) {
    attribute_cycle(begin, Clock::now(),
                    std::span(log.grid_calls).subspan(first_grid),
                    std::span(log.degrid_calls).subspan(first_degrid),
                    cycles_done, tracer);
    stages.merge(result.metrics);
  }
  return outputs_of(std::move(result));
}

/// ShardedBackend::grid on a plan holding only the first work group: the
/// fixed cost of one sharded call (spawn, exec, handshake, teardown).
double shard_fixed_call_s(const Inputs& in, int calls) {
  const Plan& full = *in.plan;
  const std::span<const WorkItem> group = full.work_group(0);
  std::size_t vis = 0;
  for (const WorkItem& item : group) vis += item.nr_visibilities();
  const Plan one = Plan::from_parts(
      in.params, std::vector<WorkItem>(group.begin(), group.end()),
      full.wavenumbers(), vis, 0);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < calls; ++i) {
    Array3D<cfloat> grid(kNrPolarizations, in.params.grid_size,
                         in.params.grid_size);
    const Clock::time_point t0 = Clock::now();
    in.backend->grid(one, in.dataset.uvw.cview(), in.visibilities.cview(),
                     in.aterms.cview(), grid.view());
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

WorkloadResult run_imaging_workload(const RunOptions& options) {
  const Sizes s = sizes_for(options.workload, options.tiny);
  const clean::MajorCycleConfig mc = cycle_config(s);
  const std::string& label = options.workload;
  WorkloadResult r;
  r.context["sizes"] =
      std::to_string(s.stations) + " stations, " +
      std::to_string(s.timesteps) + " timesteps, " +
      std::to_string(s.channels) + " channels, grid " + std::to_string(s.grid) +
      ", subgrid 32, kernel 16, " + std::to_string(s.cycles) + " cycles" +
      (s.wplanes > 0 ? ", " + std::to_string(s.wplanes) + " w-planes, w x" +
                           std::to_string(static_cast<int>(s.w_scale))
                     : std::string{}) +
      (s.workers > 0 ? ", " + std::to_string(s.workers) + " workers"
                     : std::string{});

  Tracer tracer;  // stays disabled outside the traced jobs
  obs::AggregateSink stages;  // stage metrics of the traced jobs
  CallLog log;
  CallOutputs reference;
  JobOutputs reference_job;
  std::unique_ptr<Inputs> in;
  std::vector<double> setup_s, dataset_s, predict_s, plan_s;
  double cold_rep_s = 0.0;

  // --- setup, repeated; the last one's inputs serve the timed window -------
  const int setups = options.tiny ? 1 : 3;
  for (int k = 0; k < setups; ++k) {
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in = build_inputs(s, options.seed);
    // The warm-up job. The first one of the process is the cold job: its
    // outputs are captured and checked once the reference exists.
    CallOutputs first_calls;
    JobOutputs first;
    const std::uint64_t mark = r.problems;
    const Clock::time_point tw = Clock::now();
    try {
      first = run_job(*in, mc, false, log,
                      k == 0 ? capture_outputs(first_calls)
                             : compare_outputs(reference, r, label + " warm-up"),
                      stages, tracer);
      if (k > 0) compare_job(reference_job, first, r, label + " warm-up");
    } catch (const std::exception& e) {
      r.problem(label + " warm-up job failed: " + e.what());
    }
    if (k == 0) cold_rep_s = seconds_since(tw);
    setup_s.push_back(seconds_since(t0));
    if (k == 0) {
      // The reference: the synchronous Processor for the backend workloads,
      // the cold job itself for wide-field (its executor is synchronous).
      // Benchmark bookkeeping, so outside setup_s.
      if (in->wstack) {
        reference = std::move(first_calls);
        reference_job = std::move(first);
      } else {
        const Processor sync(in->params, kernels::optimized_kernels());
        TimedBackend timed(sync, log);
        timed.set_check(capture_outputs(reference));
        reference_job = outputs_of(clean::run_major_cycles(
            timed, *in->plan, in->dataset.uvw.cview(),
            in->visibilities.cview(), in->aterms.cview(), mc));
        const OutputCheck check = compare_outputs(reference, r, label + " cold job");
        for (std::size_t i = 0; i < first_calls.grids.size(); ++i)
          check(CallKind::kGrid, i, first_calls.grids[i].data(),
                first_calls.grids[i].size());
        for (std::size_t i = 0; i < first_calls.degrids.size(); ++i)
          check(CallKind::kDegrid, i, first_calls.degrids[i].data(),
                first_calls.degrids[i].size());
        compare_job(reference_job, first, r, label + " cold job");
      }
    }
    r.count(mark);
    dataset_s.push_back(in->dataset_s);
    predict_s.push_back(in->predict_s);
    plan_s.push_back(in->plan_s);
  }

  auto* sharded = dynamic_cast<shard::ShardedBackend*>(in->backend.get());
  const auto uvw = in->dataset.uvw.cview();
  const auto vis = in->visibilities.cview();
  const auto aterms = in->aterms.cview();

  // --- traced-run extras, measured before the window with tracing off ------
  double sync_grid_s = 0.0;
  double fixed_call_s = 0.0;
  if (options.trace) {
    const int calls = options.tiny ? 1 : 3;
    // The executor ladder runs on the plain plans of the backend workloads;
    // wide-field's plan is w-stacked and its executor synchronous.
    if (!in->wstack) {
      sync_grid_s = measure_executor_ladder(in->params, *in->plan, uvw, vis,
                                            aterms, calls, r);
    }
    if (sharded != nullptr) fixed_call_s = shard_fixed_call_s(*in, calls);
    server::JobSpec spec;
    spec.nr_stations = s.stations;
    spec.nr_timesteps = s.timesteps;
    spec.nr_channels = s.channels;
    spec.grid_size = static_cast<std::uint32_t>(s.grid);
    const Clock::time_point t0 = Clock::now();
    const server::JobWorkload w = server::build_job_workload(spec);
    r.set("sim.job_build_s", seconds_since(t0), "s");
  }
  if (sharded != nullptr) sharded->reset_report();

  // --- the timed window ---------------------------------------------------------
  std::unique_ptr<obs::TraceSession> session;
  std::string trace_path;
  if (options.trace) {
    trace_path = std::string(kRunDir) + "/trace-" + label + "-" +
                 std::to_string(options.seed) + ".json";
    session = std::make_unique<obs::TraceSession>(trace_path);
    obs::set_global_trace(nullptr);
  }
  CallLog traced_log;
  std::vector<double> walls;
  std::vector<double> traced_walls;
  int traced_components = 0;
  log.clear();
  const std::size_t min_jobs = options.tiny ? 1 : 5;
  const Clock::time_point window = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const std::size_t per_kind = options.trace ? i / 2 : i;
    if (seconds_since(window) >= options.seconds && per_kind >= min_jobs)
      break;
    if (traced) {
      obs::set_global_trace(session->sink());
      tracer.enable(true);
    }
    const std::uint64_t mark = r.problems;
    const Clock::time_point t0 = Clock::now();
    try {
      const JobOutputs out =
          run_job(*in, mc, traced, traced ? traced_log : log,
                  compare_outputs(reference, r, label), stages, tracer);
      (traced ? traced_walls : walls).push_back(seconds_since(t0));
      compare_job(reference_job, out, r, label);
      if (traced) traced_components = out.total_components;
    } catch (const std::exception& e) {
      r.problem(label + " job failed: " + e.what());
    }
    if (traced) {
      tracer.enable(false);
      obs::set_global_trace(nullptr);
    }
    r.count(mark);
  }
  const double window_s = seconds_since(window);

  if (!options.trace) {
    r.set("setup_s", median(setup_s), "s");
    r.set("cycle_s", median(walls), "s");
    r.set("grid_mvis_s", median(log.grid_mvis_s), "MVis/s");
    r.set("degrid_mvis_s", median(log.degrid_mvis_s), "MVis/s");
    r.set("jobs_per_s", static_cast<double>(walls.size()) / window_s, "1/s");
    r.set("job_p50_s", median(walls), "s");
    set_tail_latency(walls, r);
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (sharded != nullptr)
      r.context["worker_peak_rss_mb"] = std::to_string(children_peak_rss_mb());
    std::string list;
    for (double w : walls) list += (list.empty() ? "" : " ") + std::to_string(w);
    r.context["job_walls_s"] = list;
    return r;
  }

  // --- per-layer metrics from the traced jobs ------------------------------------
  session.reset();  // writes the Chrome trace
  check_chrome_trace(trace_path, r);

  r.set("sim.dataset_s", median(dataset_s), "s");
  r.set("sim.predict_s", median(predict_s), "s");
  r.set("plan.build_s", median(plan_s), "s");
  set_plan_metrics(*in->plan, r);

  LayerInputs layers;
  layers.snapshot = stages.snapshot();
  layers.spans = tracer.totals();
  layers.jobs = traced_walls.size();
  for (double t : traced_log.grid_seconds) layers.call_wall_s += t;
  for (double t : traced_log.degrid_seconds) layers.call_wall_s += t;
  layers.components = traced_components;
  set_layer_metrics(layers, r);

  const double plane_mb =
      static_cast<double>(s.grid * s.grid * sizeof(cfloat)) *
      kNrPolarizations / 1e6;
  r.set("wstack.planes", s.wplanes > 0 ? s.wplanes : 1, "count");
  r.set("wstack.plane_mb", plane_mb, "MB");

  if (sharded != nullptr) {
    const shard::ShardRunReport report = sharded->report();
    const double jobs = static_cast<double>(walls.size() + traced_walls.size());
    r.set("shard.grid_call_s", median(log.grid_seconds), "s");
    r.set("shard.degrid_call_s", median(log.degrid_seconds), "s");
    const auto merge = layers.snapshot.find(shard::stage::kShardMerge);
    r.set("shard.merge_s",
          merge == layers.snapshot.end()
              ? 0.0
              : merge->second.seconds / static_cast<double>(layers.jobs),
          "s");
    r.set("shard.overhead_frac", median(log.grid_seconds) / sync_grid_s - 1.0,
          "ratio");
    r.set("shard.fixed_call_s", fixed_call_s, "s");
    r.set("shard.workers_spawned",
          static_cast<double>(report.counters.workers_spawned) / jobs, "count");
    r.set("shard.subgrid_mb",
          static_cast<double>(in->plan->nr_subgrids() *
                              in->params.subgrid_size *
                              in->params.subgrid_size * sizeof(cfloat)) *
              kNrPolarizations / 1e6,
          "MB");
    r.set("shard.rebalanced",
          static_cast<double>(report.counters.shards_rebalanced), "count");
  }

  double traced_total = 0.0;
  for (double t : traced_walls) traced_total += t;
  const double self = tracer.total_self_seconds();
  r.set("obs.trace_overhead_frac", median(traced_walls) / median(walls) - 1.0,
        "ratio");
  r.set("obs.coverage", traced_total > 0.0 ? self / traced_total : 0.0, "ratio");
  r.set("obs.unattributed_s",
        (traced_total - self) / static_cast<double>(std::max<std::size_t>(
                                    traced_walls.size(), 1)),
        "s");
  r.set("obs.cold_rep_s", cold_rep_s, "s");
  return r;
}

}  // namespace perfbench
