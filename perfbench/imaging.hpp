// Pieces shared by the in-process imaging workloads and the service
// workload: reference capture and comparison, and the per-layer metric
// breakdown.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "clean/major_cycle.hpp"
#include "common.hpp"
#include "idg/plan.hpp"
#include "obs/sink.hpp"

namespace perfbench {

/// Everything a job's outputs are compared on.
struct JobOutputs {
  std::vector<float> peak_history;
  int total_components = 0;
  idg::Array3D<idg::cfloat> model_image;
  idg::Array3D<idg::cfloat> residual_image;
};

/// Byte-exact copies of every grid()/degrid() output of one job, in call
/// order: what later jobs must memcmp-equal.
struct CallOutputs {
  std::vector<std::vector<unsigned char>> grids;
  std::vector<std::vector<unsigned char>> degrids;
};

/// An OutputCheck that appends every call's output to `capture`.
OutputCheck capture_outputs(CallOutputs& capture);

/// An OutputCheck that memcmp-compares every call's output with
/// `reference` and reports each mismatch to `result`.
OutputCheck compare_outputs(const CallOutputs& reference,
                            WorkloadResult& result, const std::string& what);

/// Compares peak history, component count and both images bytewise; one
/// failure per differing field.
void compare_job(const JobOutputs& reference, const JobOutputs& got,
                 WorkloadResult& result, const std::string& what);

JobOutputs outputs_of(idg::clean::MajorCycleResult&& result);

/// Per-layer numbers one traced measurement yields, all per job.
struct LayerInputs {
  idg::obs::MetricsSnapshot snapshot;  ///< summed over `jobs` jobs
  std::map<std::string, Tracer::Totals> spans;  ///< summed over `jobs` jobs
  std::size_t jobs = 0;
  double call_wall_s = 0.0;  ///< summed grid+degrid call wall (0: unknown)
  double components = 0.0;   ///< per job
};

/// Sets the kernels.*, fft.*, adder.*, clean.*, exec.scrub_s and
/// exec.overlap metrics from a traced measurement. Stage seconds come from
/// the snapshot, clean.* from the benchmark's spans. Where the job ran
/// inside clean::run_major_cycles, the "clean.between_calls" span holds the
/// library's grid FFTs as well as the minor cycles, and clean.minor_s is
/// that span less fft.grid_s.
void set_layer_metrics(const LayerInputs& in, WorkloadResult& result);

/// Sets the plan.* counts.
void set_plan_metrics(const idg::Plan& plan, WorkloadResult& result);

}  // namespace perfbench
