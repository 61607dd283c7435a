// Shared harness for the per-figure bench binaries.
//
// Every bench accepts the same scaling knobs (DESIGN.md §7):
//   --stations N --time T --channels C --grid G --subgrid S
//   --aterm-interval A --kernel-size K --paper --csv <path>
// plus IDG_BENCH_* environment equivalents. Defaults are sized to finish in
// seconds on a single core; --paper selects the full 2017 configuration.
//
// Benches that measure pipeline stages additionally accept
//   --backend <name>   execution backend (idg::make_backend names)
//   --json <path>      per-stage metrics in the idg-obs/v6 JSON schema
//   --trace <path>     Chrome-trace/Perfetto event timeline (also enabled
//                      by the IDG_TRACE environment variable; load the file
//                      at ui.perfetto.dev or chrome://tracing)
//   --hw               sample hardware perf_event counters per stage
//                      (DESIGN.md §15); degrades with a printed note when
//                      the host masks counter access — never fails the run
//   --sorted | --unsorted   plan tile-locality ordering ablation (default
//                      sorted; grids are bit-identical, only adder locality
//                      changes)
//   --tile-size N      adder tile side in grid pixels (multiple of 8)
//   --flag-fraction F  mark ~F of the samples RFI-flagged (deterministic)
//   --bad-policy P     reject | zero_and_continue | skip_work_group
//                      (Parameters::bad_sample_policy, DESIGN.md §11)
//   --retries N        wrap the backend in the resilient supervisor: up to
//                      N failed attempts per work group before quarantine
//                      (DESIGN.md §12)
//   --deadline-ms D    abort the run with a CancelledError after D ms
//                      (Parameters::deadline_ms; 0 = no deadline)
//   --checkpoint P     major-cycle binaries: snapshot loop state to P after
//                      each completed cycle (IDGCKPT1, clean/major_cycle.hpp)
//   --resume P         major-cycle binaries: restart from the snapshot at P
// so downstream plotting reads one stable schema instead of scraping
// per-bench table formats. parse_bench_options() rejects unknown and
// duplicate options, reporting every problem in one error.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/report.hpp"
#include "idg/accuracy.hpp"
#include "idg/backend.hpp"
#include "kernels/autotune.hpp"
#include "kernels/optimized.hpp"
#include "idg/supervisor.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/perfcounters.hpp"
#include "obs/trace.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace idg::bench {

struct BenchSetup {
  sim::BenchmarkConfig config;
  sim::Dataset dataset;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;
};

/// The union of every option any bench binary understands. One shared
/// catalogue (common/cli.hpp, also used by the examples) so
/// parse_bench_options() can reject typos: an option not in the catalogue
/// aborts the run with a descriptive error instead of being silently
/// ignored, and a flag declared once (e.g. --epsilon, --sweep) is known to
/// benches and examples alike.
inline const std::vector<std::string>& known_bench_options() {
  return standard_option_catalogue();
}

/// Parses argv with the shared option catalogue: unknown options and
/// duplicates are rejected (all problems reported in one idg::Error).
inline Options parse_bench_options(int argc, const char* const* argv) {
  return parse_standard_options(argc, argv);
}

inline sim::BenchmarkConfig config_from_options(const Options& opts) {
  sim::BenchmarkConfig cfg =
      opts.flag("paper") ? sim::BenchmarkConfig::paper() : sim::BenchmarkConfig{};
  cfg.nr_stations = static_cast<int>(opts.get("stations", static_cast<long>(cfg.nr_stations)));
  cfg.nr_timesteps = static_cast<int>(opts.get("time", static_cast<long>(cfg.nr_timesteps)));
  cfg.nr_channels = static_cast<int>(opts.get("channels", static_cast<long>(cfg.nr_channels)));
  cfg.grid_size = static_cast<std::size_t>(opts.get("grid", static_cast<long>(cfg.grid_size)));
  cfg.subgrid_size = static_cast<std::size_t>(opts.get("subgrid", static_cast<long>(cfg.subgrid_size)));
  cfg.aterm_interval = static_cast<int>(opts.get("aterm-interval", static_cast<long>(cfg.aterm_interval)));
  return cfg;
}

inline Parameters params_from(const sim::BenchmarkConfig& cfg,
                              const sim::Dataset& ds, const Options& opts) {
  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = static_cast<std::size_t>(opts.get("kernel-size", 8L));
  params.aterm_interval = cfg.aterm_interval;
  params.max_timesteps_per_subgrid =
      static_cast<int>(opts.get("max-timesteps", 128L));
  // --sorted / --unsorted ablation of the plan's tile-locality ordering
  // (sorted is the default; results are bit-identical either way, only the
  // adder's access locality changes).
  params.plan_ordering = opts.flag("unsorted") ? PlanOrdering::kArrival
                                               : PlanOrdering::kTileSorted;
  params.adder_tile_size =
      static_cast<std::size_t>(opts.get("tile-size", 64L));
  // --bad-policy reject|zero_and_continue|skip_work_group (DESIGN.md §11).
  const std::string policy =
      opts.get("bad-policy", std::string(to_string(params.bad_sample_policy)));
  const auto parsed = bad_sample_policy_from_string(policy);
  if (!parsed) {
    throw Error("--bad-policy: unknown policy '" + policy +
                "' (expected reject, zero_and_continue or skip_work_group)");
  }
  params.bad_sample_policy = *parsed;
  // --deadline-ms D aborts the run with a CancelledError once D ms have
  // elapsed (0 = no deadline, DESIGN.md §12).
  params.deadline_ms =
      static_cast<std::uint32_t>(opts.get("deadline-ms", 0L));
  // --epsilon E requests an accuracy contract: auto_configure() picks the
  // taper, kernel size, subgrid padding and accumulation precision for the
  // requested error (DESIGN.md §13). Applied last so the derived
  // configuration wins over the explicit --kernel-size/--subgrid knobs.
  if (opts.has("epsilon")) {
    params.auto_configure(opts.get("epsilon", 1e-3));
  }
  return params;
}

/// Builds the full setup: dataset, plan and identity A-terms (the paper's
/// benchmark configuration).
inline BenchSetup make_setup(const Options& opts, bool fill_visibilities = true) {
  sim::BenchmarkConfig cfg = config_from_options(opts);
  sim::Dataset ds = fill_visibilities
                        ? sim::make_benchmark_dataset(cfg)
                        : sim::make_benchmark_dataset_no_vis(cfg);
  Parameters params = params_from(cfg, ds, opts);
  // --flag-fraction F marks ~F of the samples as RFI-flagged (deterministic
  // from the dataset seed), exercising the bad-sample policy end to end.
  const double flag_fraction = opts.get("flag-fraction", 0.0);
  if (flag_fraction > 0.0) {
    const std::uint64_t flagged =
        sim::apply_rfi_flags(ds, flag_fraction, cfg.seed);
    std::cout << "   flagged " << flagged << " of " << ds.nr_visibilities()
              << " samples (policy: " << to_string(params.bad_sample_policy)
              << ")\n";
  }
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  const int nr_slots =
      (cfg.nr_timesteps + cfg.aterm_interval - 1) / cfg.aterm_interval;
  // A-terms live on the subgrid raster: params.subgrid_size, not the cfg
  // knob (--epsilon's science tier pads the subgrid past it).
  sim::ATermCube aterms = sim::make_identity_aterms(
      nr_slots, cfg.nr_stations, params.subgrid_size);
  return {cfg, std::move(ds), params, std::move(plan), std::move(aterms)};
}

inline void print_header(const std::string& title, const BenchSetup& setup) {
  std::cout << "== " << title << " ==\n"
            << "   dataset: " << setup.config.describe() << "\n"
            << "   subgrids: " << setup.plan.nr_subgrids()
            << ", visibilities: " << setup.plan.nr_planned_visibilities()
            << " (dropped: " << setup.plan.nr_dropped_visibilities() << ")"
            << ", avg vis/subgrid: " << setup.plan.avg_visibilities_per_subgrid()
            << "\n\n";
}

inline void maybe_write_csv(const Table& table, const Options& opts) {
  if (opts.has("csv")) {
    const std::string path = opts.get("csv", std::string{});
    table.write_csv(path);
    std::cout << "\n(wrote " << path << ")\n";
  }
}

/// Writes the per-stage metrics snapshot as idg-obs/v6 JSON when --json
/// <path> was given.
inline void maybe_write_json(const obs::MetricsSnapshot& snapshot,
                             const Options& opts) {
  if (opts.has("json")) {
    const std::string path = opts.get("json", std::string{});
    obs::write_json_file(path, snapshot);
    std::cout << "\n(wrote " << path << ")\n";
  }
}

/// Splits a comma-separated --candidates list.
inline std::vector<std::string> split_comma_list(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  for (char c : list) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

/// Translates the shared tuning knobs (--warmup, --repeats, --candidates)
/// into AutotuneOptions.
inline kernels::AutotuneOptions autotune_options_from(const Options& opts) {
  kernels::AutotuneOptions tune;
  tune.warmup = static_cast<int>(opts.get("warmup", static_cast<long>(tune.warmup)));
  tune.repeats =
      static_cast<int>(opts.get("repeats", static_cast<long>(tune.repeats)));
  if (opts.has("candidates"))
    tune.candidates = split_comma_list(opts.get("candidates", std::string{}));
  return tune;
}

/// Resolves the kernel set a bench runs: --kernel-set NAME (or the legacy
/// --kernels NAME) selects a registry entry; without one the default is
/// the tier's accuracy::preferred_kernel_set when --epsilon is given (a
/// set that implements the tier's accumulation precision), else
/// "optimized". With
/// --tune, the autotuner first benchmarks the candidate family on this
/// setup's (subgrid_size, nr_channels, nr_stations) shape with min-of-N
/// discipline, persists the winners into the tuning database (--tune-db
/// PATH, default the per-host cache file) and the run proceeds with the
/// "tuned" dispatch consulting that database.
inline const KernelSet& kernel_set_from_options(const Options& opts,
                                                const Parameters& params,
                                                std::size_t nr_channels) {
  if (opts.flag("tune")) {
    const std::string db_path =
        opts.get("tune-db", kernels::default_tuning_database_path());
    kernels::TuningDatabase db;
    try {
      db = kernels::TuningDatabase::load(db_path);
    } catch (const Error&) {
      // Missing or unusable database: start fresh.
    }
    const auto results =
        kernels::autotune(db, params, nr_channels, autotune_options_from(opts));
    db.save(db_path);
    kernels::reload_process_tuning_database(db_path);
    for (const kernels::AutotuneResult& r : results) {
      std::cout << "   tuned " << to_string(r.entry.op) << ": "
                << r.entry.kernel_set << " (" << r.entry.speedup()
                << "x optimized)\n";
    }
    std::cout << "   (tuning database: " << db_path << ")\n";
    return kernels::kernel_set("tuned");
  }
  std::string name = opts.get("kernel-set", std::string{});
  if (name.empty()) name = opts.get("kernels", std::string{});
  if (name.empty())
    name = opts.has("epsilon") ? accuracy::preferred_kernel_set(params)
                               : "optimized";
  return kernels::kernel_set(name);
}

/// Trace output path: --trace <path> (or IDG_BENCH_TRACE) first, then the
/// dedicated IDG_TRACE environment variable; empty = tracing disabled.
inline std::string trace_path_from_options(const Options& opts) {
  std::string path = opts.get("trace", std::string{});
  if (path.empty()) {
    if (const char* env = std::getenv("IDG_TRACE")) path = env;
  }
  return path;
}

/// RAII activation of timeline tracing for a bench run: installs the
/// global TraceSink when a trace path was configured (no-op otherwise) and
/// writes the Chrome-trace JSON on destruction. Construct BEFORE creating
/// backends so queues/pools latch the sink at instrument() time.
class TraceGuard {
 public:
  explicit TraceGuard(const Options& opts)
      : session_(trace_path_from_options(opts)) {}
  ~TraceGuard() {
    if (session_.enabled()) {
      std::cout << "\n(wrote trace " << session_.path() << ")\n";
    }
  }
  bool enabled() const { return session_.enabled(); }

 private:
  obs::TraceSession session_;
};

/// RAII activation of per-stage hardware counters for a bench run
/// (--hw, DESIGN.md §15): opens a PerfCounterSession and installs it as
/// the global session so every obs::Span attributes counter deltas to its
/// stage. When the host refuses (perf_event_paranoid, seccomp, non-Linux
/// build) the guard prints why and the run continues with analytic counts
/// only — counters never fail a bench. Construct BEFORE creating backends
/// so pipeline stage threads warm their counter groups at startup.
class PerfGuard {
 public:
  explicit PerfGuard(const Options& opts) {
    if (!opts.flag("hw")) return;
    std::string why;
    session_ = obs::PerfCounterSession::open(&why);
    if (session_ == nullptr) {
      std::cout << "   (hw counters unavailable: " << why
                << " — continuing with analytic counts only)\n";
      return;
    }
    obs::set_global_perf_session(session_.get());
    std::cout << "   hw counters: " << session_->counter_list()
              << " (perf_event_paranoid=" << session_->paranoid_level()
              << ")\n";
  }
  ~PerfGuard() {
    if (session_ != nullptr) obs::set_global_perf_session(nullptr);
  }
  bool live() const { return session_ != nullptr; }

  PerfGuard(const PerfGuard&) = delete;
  PerfGuard& operator=(const PerfGuard&) = delete;

 private:
  std::unique_ptr<obs::PerfCounterSession> session_;
};

/// Translates --backend/--retries into a BackendOptions struct: the
/// backend spec is parsed by idg::parse_backend_spec and --retries N sets
/// a SupervisorConfig with N attempts per work group (for a non-resilient
/// executor this wraps it in the supervisor, DESIGN.md §12; spell
/// --backend resilient[:inner] instead to get the default policy).
inline BackendOptions backend_options_from(const Options& opts,
                                           const KernelSet& kernels) {
  const std::string name = opts.get("backend", std::string("synchronous"));
  BackendOptions options = parse_backend_spec(name);
  options.kernels = &kernels;
  const long retries = opts.get("retries", 0L);
  if (retries > 0) {
    IDG_CHECK(options.executor != "resilient",
              "--retries cannot rewrap --backend " << name
                                                   << "; it is already "
                                                      "supervised");
    SupervisorConfig config;
    config.max_attempts_per_group = static_cast<std::uint32_t>(retries);
    options.supervisor = config;
  }
  return options;
}

/// Creates the execution backend selected by --backend (default:
/// synchronous), with --retries N wrapping non-resilient selections in the
/// resilient supervisor. The KernelSet must outlive the returned backend.
inline std::unique_ptr<GridderBackend> backend_from_options(
    const Options& opts, const Parameters& params, const KernelSet& kernels) {
  return make_backend(backend_options_from(opts, kernels), params);
}

}  // namespace idg::bench
