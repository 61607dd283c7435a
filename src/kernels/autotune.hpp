// Autotuner over the single-precision kernel sets (DESIGN.md §14).
//
// Which set is fastest depends on the host and the problem shape (the
// runtime-compiled loops win on builds without -march=native), so instead
// of hand-picking one the autotuner benchmarks every candidate on a
// deterministic synthetic workload of the actual (subgrid_size,
// nr_channels, nr_stations) shape — warmup runs, then min-of-N repeats —
// and persists the winner per shape and operation in a tuning database:
//
//   schema  idg-tune/v2 (JSON, atomic write-to-temp+rename like
//           common/checkpoint)
//   key     host fingerprint (uname machine + CPU model + thread count;
//           deliberately timing-free so it is stable run to run) —
//           a database recorded on another host is rejected by name
//   entries per (op, subgrid_size, nr_channels, nr_stations): winning
//           kernel-set name, its min-of-N seconds and the "optimized"
//           baseline seconds
//
// The "tuned" kernel set (tuned_kernels()) consults the process-wide
// database at dispatch time: a hit selects the recorded winner with a
// cached lookup (zero overhead after the first call per shape), a miss —
// or an unreadable/foreign database — falls back to the "optimized"
// kernels. Double-precision accumulation contracts (standard/science
// tiers) delegate to the reference kernels so the tier guarantees hold
// unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "idg/kernels.hpp"
#include "idg/parameters.hpp"

namespace idg::kernels {

/// The tuned operation: gridder (Algorithm 1) or degridder (Algorithm 2).
enum class TuneOp : std::uint8_t { kGrid, kDegrid };

const char* to_string(TuneOp op);

/// The shape key of one tuning entry.
struct TuneShape {
  std::size_t subgrid_size = 0;
  std::size_t nr_channels = 0;
  int nr_stations = 0;

  friend auto operator<=>(const TuneShape&, const TuneShape&) = default;
};

/// One tuning decision: the winning kernel set for (op, shape) plus the
/// measurements that justify it.
struct TuneEntry {
  TuneOp op = TuneOp::kGrid;
  TuneShape shape;
  std::string kernel_set;        ///< registry name of the winner
  double seconds = 0.0;          ///< winner's min-of-N wall seconds
  double baseline_seconds = 0.0; ///< "optimized" on the same workload

  double speedup() const {
    return seconds > 0.0 ? baseline_seconds / seconds : 0.0;
  }
};

/// Stable, timing-free identity of this host (uname machine + CPU model
/// name + hardware thread count). Entries tuned on one machine are
/// meaningless on another, so the database is keyed by this string.
std::string host_fingerprint();

/// The persistent idg-tune/v2 database: entries keyed by (op, shape) for
/// one host.
class TuningDatabase {
 public:
  /// v2: the optimized kernels gained the pixel-lane gridder and the
  /// channel recurrence, so winners measured against the v1 kernels are
  /// stale and a v1 file is rejected.
  static constexpr const char* kSchema = "idg-tune/v2";

  /// An empty database for this host.
  TuningDatabase();
  /// An empty database for an explicit host string (tests use this to
  /// fabricate foreign-host files).
  explicit TuningDatabase(std::string host);

  /// Parses `path`, rejecting by name: unreadable files, truncated or
  /// corrupt JSON, a mislabeled schema, and databases recorded for a
  /// different host (`expected_host`, defaulting to this host's
  /// fingerprint) all throw idg::Error.
  static TuningDatabase load(const std::string& path);
  static TuningDatabase load(const std::string& path,
                             const std::string& expected_host);

  /// Serializes to `path` atomically: write to `<path>.tmp`, then rename.
  void save(const std::string& path) const;

  const TuneEntry* find(TuneOp op, const TuneShape& shape) const;
  void put(const TuneEntry& entry);

  const std::string& host() const { return host_; }
  std::size_t size() const { return entries_.size(); }
  std::vector<TuneEntry> entries() const;

 private:
  std::string host_;
  std::map<std::pair<int, TuneShape>, TuneEntry> entries_;
};

/// Database location: $IDG_TUNE_DB if set, else
/// $XDG_CACHE_HOME/idg/tune.json (falling back over $HOME/.cache and
/// /tmp).
std::string default_tuning_database_path();

/// Knobs of one autotuning run.
struct AutotuneOptions {
  int warmup = 1;        ///< untimed runs before measuring
  int repeats = 3;       ///< timed runs; the minimum is kept
  int nr_items = 16;     ///< work items in the synthetic workload
  int nr_timesteps = 32; ///< timesteps per work item
  std::uint64_t seed = 1;
  /// Candidate registry names; empty selects default_tune_candidates().
  std::vector<std::string> candidates;
};

/// The default candidate set: "optimized", "optimized-lut", and "jit" when
/// a toolchain is available.
std::vector<std::string> default_tune_candidates();

/// One candidate's measurement.
struct CandidateTiming {
  std::string kernel_set;
  double seconds = 0.0;
};

/// The winner plus the full ranking (fastest first).
struct AutotuneResult {
  TuneEntry entry;
  std::vector<CandidateTiming> ranking;
};

/// Benchmarks every candidate for one operation on a synthetic workload of
/// shape (params.subgrid_size, nr_channels, params.nr_stations) and
/// returns the winner. Candidates that fail to resolve are skipped;
/// "optimized" is always measured (it is the recorded baseline).
AutotuneResult autotune_op(const Parameters& params, std::size_t nr_channels,
                           TuneOp op, const AutotuneOptions& options = {});

/// Tunes both operations and stores the winners into `db`.
std::vector<AutotuneResult> autotune(TuningDatabase& db,
                                     const Parameters& params,
                                     std::size_t nr_channels,
                                     const AutotuneOptions& options = {});

/// The "tuned" kernel set: dispatches per (op, shape) through the
/// process-wide tuning database, falling back to "optimized" on a miss
/// and to the reference kernels under double-precision accumulation.
const KernelSet& tuned_kernels();

/// The process-wide database the tuned dispatch consults. Lazily loaded
/// from default_tuning_database_path() on first use; load failures of any
/// kind leave it empty (dispatch then falls back to "optimized").
const TuningDatabase& process_tuning_database();

/// Replaces the process-wide database (tests and the autotuner use this
/// after writing a fresh one).
void set_process_tuning_database(TuningDatabase db);

/// Re-loads the process-wide database from `path`. Returns the empty
/// string on success, else the load error message (the database is left
/// empty and dispatch falls back to "optimized").
std::string reload_process_tuning_database(const std::string& path);

}  // namespace idg::kernels
