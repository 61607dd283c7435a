// Bad-sample scrubbing: applies Parameters::bad_sample_policy to the
// visibility cube before the kernels run (DESIGN.md §11).
//
// Real interferometer data is never clean — RFI flagging marks samples in a
// per-visibility mask, and upstream processing can leak NaN/Inf. The
// kernels themselves stay data-oblivious (they are pluggable: reference,
// optimized, JIT — see idg/kernels.hpp), so the policy is enforced once
// here, at the pipeline boundary, identically for every backend:
//
//   * kReject          — throw a descriptive idg::Error at the first bad
//                        sample (which baseline/time/channel, and why).
//   * kZeroAndContinue — zero the bad samples (copying the cube only when
//                        at least one sample is actually bad) and count
//                        them. Zeroing is exact: accumulating x + 0·phasor
//                        leaves every partial sum bit-identical to never
//                        having visited the sample, so the resulting grid
//                        equals gridding the pre-dropped dataset bit for
//                        bit (pinned by test_faults.cpp).
//   * kSkipWorkGroup   — drop every work group whose planned samples cover
//                        a bad one; no copy is made, entire kernel-launch
//                        units are skipped and counted.
//
// Counts flow into obs::MetricsSink::record_data_quality under the "scrub"
// stage and from there into the idg-obs/v8 JSON/CSV export. Note the
// analytic op counters (idg/accounting.hpp) stay plan-derived even when
// groups are skipped — skipped_samples records the gap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/array.hpp"
#include "common/cancel.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"

namespace idg {

/// What scrubbing found and did.
struct ScrubReport {
  std::uint64_t flagged = 0;    ///< bad samples marked in the flag mask
  std::uint64_t nonfinite = 0;  ///< bad samples with NaN/Inf components
  std::uint64_t skipped_groups = 0;   ///< work groups dropped (kSkipWorkGroup)
  std::uint64_t skipped_samples = 0;  ///< planned samples in dropped groups

  /// Samples neutralised (zeroed or group-skipped) instead of gridded.
  std::uint64_t scrubbed() const { return flagged + nonfinite; }
};

/// The gridder input after policy application. Holds a copy of the
/// visibility cube ONLY when kZeroAndContinue actually zeroed something;
/// the clean path is a pass-through view.
class ScrubbedVisibilities {
 public:
  /// The cube the kernels should grid.
  ArrayView<const Visibility, 3> view() const {
    return owned_.size() != 0 ? owned_.cview() : original_;
  }

  /// True when work group g must not be dispatched (kSkipWorkGroup).
  bool group_skipped(std::size_t g) const {
    return g < skip_group_.size() && skip_group_[g] != 0;
  }

  const ScrubReport& report() const { return report_; }

 private:
  friend ScrubbedVisibilities scrub_gridder_input(
      const Parameters& params, const Plan& plan,
      ArrayView<const Visibility, 3> visibilities, FlagView flags,
      const CancelToken* cancel);

  ArrayView<const Visibility, 3> original_{};
  Array3D<Visibility> owned_;
  std::vector<std::uint8_t> skip_group_;
  ScrubReport report_;
};

/// Applies params.bad_sample_policy to the gridder input. `flags` may be
/// empty (nothing flagged) or must match the cube's shape; non-finite
/// samples are treated as bad regardless of the mask. Throws idg::Error
/// under kReject (or on a shape mismatch). `cancel` (optional) is polled
/// once per baseline row / work group so a deadline can abort the full-cube
/// scan of a large dataset (DESIGN.md §12).
ScrubbedVisibilities scrub_gridder_input(
    const Parameters& params, const Plan& plan,
    ArrayView<const Visibility, 3> visibilities, FlagView flags,
    const CancelToken* cancel = nullptr);

/// Degridding pre-pass over the flag mask (prediction has no input cube to
/// scan, so only the mask matters): kReject throws if any planned sample
/// is flagged; kSkipWorkGroup computes the groups to drop. Under
/// kZeroAndContinue nothing happens here — the degridder writes freely and
/// zero_flagged_outputs() erases the flagged predictions per group.
struct DegridScrub {
  std::vector<std::uint8_t> skip_group;
  ScrubReport report;

  bool group_skipped(std::size_t g) const {
    return g < skip_group.size() && skip_group[g] != 0;
  }
};

DegridScrub scrub_degrid_plan(const Parameters& params, const Plan& plan,
                              FlagView flags);

/// Zeroes the flagged entries of `visibilities` covered by `items`
/// (kZeroAndContinue after degridding); returns how many it zeroed. Work
/// items cover disjoint (baseline, time, channel) blocks, so calling this
/// per work group from concurrent kernel streams is race-free.
std::uint64_t zero_flagged_outputs(std::span<const WorkItem> items,
                                   FlagView flags,
                                   ArrayView<Visibility, 3> visibilities);

}  // namespace idg
