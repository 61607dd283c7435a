#include "idg/processor.hpp"

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "idg/accounting.hpp"
#include "idg/adder.hpp"
#include "idg/scrub.hpp"
#include "idg/subgrid_fft.hpp"
#include "idg/taper.hpp"
#include "obs/span.hpp"

namespace idg {

namespace {
/// One stage of a group step: a cancel check at `site`, then `body` under
/// the stage's span and stage context, behind the fault point `site`.
template <typename Body>
void run_stage(const char* stage_name, const char* site, std::int64_t group,
               obs::MetricsSink& sink, const RunControl& ctl, Body&& body) {
  ctl.check_cancel(site, group);
  obs::Span span(sink, stage_name, group);
  with_stage_context(stage_name, group, [&] {
    IDG_FAULT_POINT(site, group);
    body();
  });
}

/// The subgrid FFT stage both steps run, in their own direction.
void run_fft_stage(SubgridFftDirection direction, const char* site,
                   std::int64_t group, ArrayView<cfloat, 4> subgrids,
                   std::size_t count, obs::MetricsSink& sink,
                   const RunControl& ctl) {
  run_stage(stage::kSubgridFft, site, group, sink, ctl,
            [&] { subgrid_fft(direction, subgrids, count); });
}
}  // namespace

Processor::Processor(Parameters params, const KernelSet& kernels)
    : params_(params), kernels_(&kernels), taper_(make_taper_for(params)) {
  params_.validate();
}

Array4D<cfloat> make_group_subgrids(const Parameters& params) {
  return Array4D<cfloat>(params.work_group_size,
                         static_cast<std::size_t>(kNrPolarizations),
                         params.subgrid_size, params.subgrid_size);
}

KernelData Processor::kernel_data(const Plan& plan,
                                  ArrayView<const UVW, 2> uvw,
                                  ArrayView<const Jones, 4> aterms) const {
  check_aterm_raster(aterms, params_.subgrid_size);
  return {uvw, plan.wavenumbers(), aterms, taper_.cview()};
}

void Processor::grid_visibilities(const Plan& plan,
                                  ArrayView<const UVW, 2> uvw,
                                  ArrayView<const Visibility, 3> visibilities,
                                  FlagView flags,
                                  ArrayView<const Jones, 4> aterms,
                                  ArrayView<cfloat, 3> grid,
                                  obs::MetricsSink& sink,
                                  const RunControl& ctl_in) const {
  check_grid_stack(params_, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params_.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const KernelData data = kernel_data(plan, uvw, aterms);
  Array4D<cfloat> subgrids = make_group_subgrids(params_);

  // Bad-sample policy application (DESIGN.md §11): flagged / non-finite
  // samples never reach the kernels. Runs once per call, for every backend.
  const ScrubbedVisibilities scrubbed = [&] {
    obs::Span span(sink, stage::kScrub);
    return scrub_gridder_input(params_, plan, visibilities, flags, ctl.cancel);
  }();
  sink.record_data_quality(stage::kScrub, scrubbed.report().scrubbed(),
                           scrubbed.report().skipped_samples);

  for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
    if (scrubbed.group_skipped(g) || ctl.group_skipped(g)) continue;
    grid_group_subgrids(plan, g, data, scrubbed.view(), subgrids.view(), sink,
                        ctl, kProcessorGridSites);
    add_group_to_grid(params_, plan, g, subgrids.cview(), grid, sink);
  }

  // Analytic op/byte counters for the whole call (derived from the plan,
  // identical for every backend executing it).
  sink.record_ops(stage::kGridder, gridder_op_counts(plan));
  sink.record_ops(stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(stage::kAdder, adder_op_counts(plan));
}

void Processor::grid_group_subgrids(const Plan& plan, std::size_t g,
                                    const KernelData& data,
                                    ArrayView<const Visibility, 3> visibilities,
                                    ArrayView<cfloat, 4> subgrids,
                                    obs::MetricsSink& sink,
                                    const RunControl& ctl,
                                    const GridSites& sites) const {
  // Read only by the fault-injection hooks, which can compile away.
  [[maybe_unused]] const std::size_t n = params_.subgrid_size;
  const auto items = plan.work_group(g);
  const auto group = static_cast<std::int64_t>(g);
  run_stage(stage::kGridder, sites.kernel, group, sink, ctl, [&] {
    kernels_->grid(params_, data, items, visibilities, subgrids);
  });
  run_fft_stage(SubgridFftDirection::ToFourier, sites.fft, group, subgrids,
                items.size(), sink, ctl);
  IDG_FAULT_CORRUPT(sites.buffer, group,
                    reinterpret_cast<float*>(subgrids.data()),
                    items.size() * static_cast<std::size_t>(kNrPolarizations) *
                        n * n * 2);
}

void add_group_to_grid(const Parameters& params, const Plan& plan,
                       std::size_t g, ArrayView<const cfloat, 4> subgrids,
                       ArrayView<cfloat, 3> grid, obs::MetricsSink& sink,
                       bool parallel) {
  // Read only by the fault-injection hooks, which can compile away.
  [[maybe_unused]] const std::size_t n = params.subgrid_size;
  const auto items = plan.work_group(g);
  const auto group = static_cast<std::int64_t>(g);
  run_stage(stage::kAdder, "processor.grid.adder", group, sink, RunControl{},
            [&] {
              IDG_FAULT_GUARD_FINITE(
                  "processor.grid.adder", group,
                  reinterpret_cast<const float*>(subgrids.data()),
                  items.size() * static_cast<std::size_t>(kNrPolarizations) *
                      n * n * 2);
              add_subgrids_to_grid(params, items, plan.work_group_tiles(g),
                                   subgrids, grid, parallel);
            });
  sink.record_bytes(stage::kAdder, adder_moved_bytes(params, items.size()));
}

void Processor::degrid_visibilities(const Plan& plan,
                                    ArrayView<const UVW, 2> uvw,
                                    ArrayView<const cfloat, 3> grid,
                                    FlagView flags,
                                    ArrayView<const Jones, 4> aterms,
                                    ArrayView<Visibility, 3> visibilities,
                                    obs::MetricsSink& sink,
                                    const RunControl& ctl_in) const {
  check_grid_stack(params_, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params_.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const KernelData data = kernel_data(plan, uvw, aterms);
  Array4D<cfloat> subgrids = make_group_subgrids(params_);

  // Prediction has no input cube to scan; the mask alone decides. Scrub
  // metrics are recorded only when a mask was actually supplied.
  DegridScrub scrubbed;
  std::uint64_t zeroed = 0;
  if (flags.size() != 0) {
    obs::Span span(sink, stage::kScrub);
    scrubbed = scrub_degrid_plan(params_, plan, flags);
  }

  for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
    if (scrubbed.group_skipped(g) || ctl.group_skipped(g)) continue;
    zeroed += degrid_group(plan, g, data, grid, flags, subgrids.view(),
                           visibilities, sink, ctl, kProcessorDegridSites);
  }
  if (flags.size() != 0) {
    sink.record_data_quality(stage::kScrub,
                             zeroed + scrubbed.report.scrubbed(),
                             scrubbed.report.skipped_samples);
  }

  sink.record_ops(stage::kSplitter, splitter_op_counts(plan));
  sink.record_ops(stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(stage::kDegridder, degridder_op_counts(plan));
}

std::uint64_t Processor::degrid_group(const Plan& plan, std::size_t g,
                                      const KernelData& data,
                                      ArrayView<const cfloat, 3> grid,
                                      FlagView flags,
                                      ArrayView<cfloat, 4> subgrids,
                                      ArrayView<Visibility, 3> visibilities,
                                      obs::MetricsSink& sink,
                                      const RunControl& ctl,
                                      const DegridSites& sites) const {
  const auto items = plan.work_group(g);
  const auto group = static_cast<std::int64_t>(g);
  run_stage(stage::kSplitter, sites.splitter, group, sink, ctl, [&] {
    split_subgrids_from_grid(params_, items, plan.work_group_tiles(g), grid,
                             subgrids);
  });
  sink.record_bytes(stage::kSplitter,
                    splitter_moved_bytes(params_, items.size()));
  run_fft_stage(SubgridFftDirection::ToImage, sites.fft, group, subgrids,
                items.size(), sink, ctl);
  run_stage(stage::kDegridder, sites.kernel, group, sink, ctl, [&] {
    kernels_->degrid(params_, data, items, subgrids, visibilities);
  });
  if (params_.bad_sample_policy != BadSamplePolicy::kZeroAndContinue) return 0;
  return zero_flagged_outputs(items, flags, visibilities);
}

}  // namespace idg
