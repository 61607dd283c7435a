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

Processor::Processor(Parameters params, const KernelSet& kernels)
    : params_(params), kernels_(&kernels), taper_(make_taper_for(params)) {
  params_.validate();
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
  const std::size_t n = params_.subgrid_size;
  check_aterm_raster(aterms, n);
  Array4D<cfloat> subgrids(params_.work_group_size,
                           static_cast<std::size_t>(kNrPolarizations), n, n);
  KernelData data{uvw, plan.wavenumbers(), aterms, taper_.cview()};

  // Bad-sample policy application (DESIGN.md §11): flagged / non-finite
  // samples never reach the kernels. Runs once per call, for every backend.
  const ScrubbedVisibilities scrubbed = [&] {
    obs::Span span(sink, stage::kScrub);
    return scrub_gridder_input(params_, plan, visibilities, flags, ctl.cancel);
  }();
  sink.record_data_quality(stage::kScrub, scrubbed.report().scrubbed(),
                           scrubbed.report().skipped_samples);
  const ArrayView<const Visibility, 3> vis = scrubbed.view();

  for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
    if (scrubbed.group_skipped(g) || ctl.group_skipped(g)) continue;
    const auto group = static_cast<std::int64_t>(g);
    ctl.check_cancel("processor.grid", group);
    grid_group_subgrids(plan, g, data, vis, subgrids.view(), sink);
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
                                    obs::MetricsSink& sink) const {
  // Read only by the fault-injection hooks, which can compile away.
  [[maybe_unused]] const std::size_t n = params_.subgrid_size;
  const auto items = plan.work_group(g);
  const auto group = static_cast<std::int64_t>(g);
  {
    obs::Span span(sink, stage::kGridder, group);
    with_stage_context(stage::kGridder, group, [&] {
      IDG_FAULT_POINT("processor.grid.kernel", group);
      kernels_->grid(params_, data, items, visibilities, subgrids);
    });
  }
  {
    obs::Span span(sink, stage::kSubgridFft, group);
    with_stage_context(stage::kSubgridFft, group, [&] {
      IDG_FAULT_POINT("processor.grid.fft", group);
      subgrid_fft(SubgridFftDirection::ToFourier, subgrids, items.size());
    });
  }
  IDG_FAULT_CORRUPT("processor.grid.buffer", group,
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
  {
    obs::Span span(sink, stage::kAdder, group);
    with_stage_context(stage::kAdder, group, [&] {
      IDG_FAULT_POINT("processor.grid.adder", group);
      IDG_FAULT_GUARD_FINITE(
          "processor.grid.adder", group,
          reinterpret_cast<const float*>(subgrids.data()),
          items.size() * static_cast<std::size_t>(kNrPolarizations) * n * n *
              2);
      add_subgrids_to_grid(params, items, plan.work_group_tiles(g), subgrids,
                           grid, parallel);
    });
  }
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
  const std::size_t n = params_.subgrid_size;
  check_aterm_raster(aterms, n);
  Array4D<cfloat> subgrids(params_.work_group_size,
                           static_cast<std::size_t>(kNrPolarizations), n, n);
  KernelData data{uvw, plan.wavenumbers(), aterms, taper_.cview()};

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
    const auto items = plan.work_group(g);
    const auto group = static_cast<std::int64_t>(g);
    ctl.check_cancel("processor.degrid", group);
    {
      obs::Span span(sink, stage::kSplitter, group);
      with_stage_context(stage::kSplitter, group, [&] {
        IDG_FAULT_POINT("processor.degrid.splitter", group);
        split_subgrids_from_grid(params_, items, plan.work_group_tiles(g),
                                 grid, subgrids.view());
      });
    }
    sink.record_bytes(stage::kSplitter,
                      splitter_moved_bytes(params_, items.size()));
    {
      obs::Span span(sink, stage::kSubgridFft, group);
      with_stage_context(stage::kSubgridFft, group, [&] {
        IDG_FAULT_POINT("processor.degrid.fft", group);
        subgrid_fft(SubgridFftDirection::ToImage, subgrids.view(),
                    items.size());
      });
    }
    {
      obs::Span span(sink, stage::kDegridder, group);
      with_stage_context(stage::kDegridder, group, [&] {
        IDG_FAULT_POINT("processor.degrid.kernel", group);
        kernels_->degrid(params_, data, items, subgrids.cview(), visibilities);
      });
    }
    if (params_.bad_sample_policy == BadSamplePolicy::kZeroAndContinue) {
      zeroed += zero_flagged_outputs(items, flags, visibilities);
    }
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

}  // namespace idg
