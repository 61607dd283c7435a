// Kernel-set autotuner driver (DESIGN.md §14).
//
// Benchmarks the single-precision kernel sets (optimized, its LUT sincos
// variant and — with a toolchain — the runtime-compiled jit) for one
// (subgrid_size, nr_channels, nr_stations) shape and both operations,
// with warmup/repeat/min-of-N discipline, prints the ranking,
// and persists the winners into the per-host idg-tune/v2 database that the
// "tuned" kernel set consults.
//
//   bench_autotune --subgrid 24 --channels 8 --stations 12
//       [--time T] [--warmup N] [--repeats N]
//       [--candidates name,name,...]   restrict the candidate set
//       [--tune-db PATH]               database file (default: per-host
//                                      cache, $IDG_TUNE_DB overrides)
//       [--json PATH]                  idg-autotune/v1 report with the full
//                                      per-candidate ranking (the perf-smoke
//                                      gate checks winner vs optimized here)
//       [--hw]                         re-run the winners through the real
//                                      backend with hardware counters live
//                                      and record each winner's measured IPC
//                                      and LLC miss rate in the report
//                                      (optional fields; omitted when the
//                                      host masks counter access)
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "idg/processor.hpp"
#include "kernels/autotune.hpp"

namespace {

using namespace idg;

std::string format_double(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

void write_report_json(const std::string& path,
                       const std::vector<kernels::AutotuneResult>& results,
                       const std::map<std::string, obs::HwCounters>& hw) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  IDG_CHECK(out.good(), "cannot write '" << path << "'");
  out << "{\n  \"schema\": \"idg-autotune/v1\",\n  \"host\": \""
      << kernels::host_fingerprint() << "\",\n  \"results\": [";
  bool first = true;
  for (const kernels::AutotuneResult& r : results) {
    double optimized_seconds = r.entry.baseline_seconds;
    out << (first ? "" : ",") << "\n    {\n      \"op\": \""
        << to_string(r.entry.op) << "\",\n      \"subgrid_size\": "
        << r.entry.shape.subgrid_size
        << ",\n      \"nr_channels\": " << r.entry.shape.nr_channels
        << ",\n      \"nr_stations\": " << r.entry.shape.nr_stations
        << ",\n      \"winner\": \"" << r.entry.kernel_set
        << "\",\n      \"winner_seconds\": " << format_double(r.entry.seconds)
        << ",\n      \"optimized_seconds\": "
        << format_double(optimized_seconds)
        << ",\n      \"speedup\": " << format_double(r.entry.speedup());
    // Optional measured-counter fields (--hw with live counters only), so
    // counter-less runs keep emitting the exact report they always did.
    const auto hw_it = hw.find(to_string(r.entry.op));
    if (hw_it != hw.end() && hw_it->second.any()) {
      out << ",\n      \"winner_ipc\": " << format_double(hw_it->second.ipc())
          << ",\n      \"winner_llc_miss_rate\": "
          << format_double(hw_it->second.llc_miss_rate());
    }
    out << ",\n      \"candidates\": [";
    bool cfirst = true;
    for (const kernels::CandidateTiming& c : r.ranking) {
      out << (cfirst ? "" : ",") << "\n        {\"name\": \"" << c.kernel_set
          << "\", \"seconds\": " << format_double(c.seconds) << "}";
      cfirst = false;
    }
    out << "\n      ]\n    }";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = bench::parse_bench_options(argc, argv);

    Parameters params;
    params.grid_size = static_cast<std::size_t>(opts.get("grid", 512L));
    params.subgrid_size = static_cast<std::size_t>(opts.get("subgrid", 24L));
    params.nr_stations = static_cast<int>(opts.get("stations", 12L));
    params.kernel_size = static_cast<std::size_t>(opts.get("kernel-size", 8L));
    const std::size_t nr_channels =
        static_cast<std::size_t>(opts.get("channels", 8L));

    kernels::AutotuneOptions tune = bench::autotune_options_from(opts);
    tune.nr_timesteps = static_cast<int>(opts.get("time", 32L));

    std::cout << "== autotune ==\n   host: " << kernels::host_fingerprint()
              << "\n   shape: subgrid " << params.subgrid_size << ", channels "
              << nr_channels << ", stations " << params.nr_stations
              << "\n   discipline: warmup " << tune.warmup << ", min of "
              << tune.repeats << " repeats\n\n";

    const std::string db_path =
        opts.get("tune-db", kernels::default_tuning_database_path());
    kernels::TuningDatabase db;
    try {
      db = kernels::TuningDatabase::load(db_path);
      std::cout << "   (extending existing database, " << db.size()
                << " entries)\n\n";
    } catch (const Error&) {
      // Missing or unusable database: start fresh.
    }

    const std::vector<kernels::AutotuneResult> results =
        kernels::autotune(db, params, nr_channels, tune);

    for (const kernels::AutotuneResult& r : results) {
      std::cout << "-- " << to_string(r.entry.op) << " --\n";
      for (std::size_t i = 0; i < r.ranking.size(); ++i) {
        const kernels::CandidateTiming& c = r.ranking[i];
        std::cout << "   " << (i == 0 ? "-> " : "   ") << std::left
                  << std::setw(20) << c.kernel_set << "  " << std::right
                  << std::setw(10) << std::fixed << std::setprecision(6)
                  << c.seconds << " s\n";
      }
      std::cout << "   winner: " << r.entry.kernel_set << " ("
                << std::setprecision(3) << r.entry.speedup()
                << "x optimized)\n\n";
    }

    db.save(db_path);
    kernels::reload_process_tuning_database(db_path);
    std::cout << "(wrote " << db_path << ")\n";

    // --hw: measure the winners for real. Re-run both directions through
    // the backend with the "tuned" dispatch (which now resolves to the
    // winners persisted above) under a live counter session, and report
    // each winner's measured IPC / LLC miss rate.
    std::map<std::string, obs::HwCounters> winner_hw;
    if (opts.flag("hw")) {
      bench::PerfGuard perf(opts);
      if (perf.live()) {
        auto setup = bench::make_setup(opts);
        const KernelSet& tuned = kernels::kernel_set("tuned");
        auto backend = bench::backend_from_options(opts, setup.params, tuned);
        Array3D<cfloat> grid(4, setup.params.grid_size,
                             setup.params.grid_size);
        obs::AggregateSink sink;
        backend->grid(setup.plan, setup.dataset.uvw.cview(),
                      setup.dataset.visibilities.cview(),
                      setup.aterms.cview(), grid.view(), sink);
        backend->degrid(setup.plan, setup.dataset.uvw.cview(), grid.cview(),
                        setup.aterms.cview(),
                        setup.dataset.visibilities.view(), sink);
        const obs::MetricsSnapshot snap = sink.snapshot();
        // Key by the TuneOp name ("grid"/"degrid") the report uses, joined
        // from the kernel stage that implements that operation.
        for (const auto& [op, stage] :
             {std::pair{"grid", stage::kGridder},
              std::pair{"degrid", stage::kDegridder}}) {
          const auto it = snap.find(stage);
          if (it == snap.end() || !it->second.hw.any()) continue;
          winner_hw[op] = it->second.hw;
          std::cout << "   " << op
                    << " winner: IPC " << std::setprecision(2) << std::fixed
                    << it->second.hw.ipc() << ", LLC miss rate "
                    << std::setprecision(3) << it->second.hw.llc_miss_rate()
                    << "\n";
        }
      }
    }

    if (opts.has("json")) {
      const std::string json_path = opts.get("json", std::string{});
      write_report_json(json_path, results, winner_hw);
      std::cout << "(wrote " << json_path << ")\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_autotune: " << e.what() << "\n";
    return 1;
  }
}
