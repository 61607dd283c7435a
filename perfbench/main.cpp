// perfbench: the imaging-cycle and service benchmark.
//
//   idg_perfbench --workload cycle-long|wide-field|sharded|service
//                 --seed N --seconds S --trace 0|1 [--tiny]
//
// Sets up the workload several times, then repeats its job for S seconds
// and checks every job's outputs. With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it alternates untraced and traced jobs and
// reports the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. A
// result file with the run's context block goes to .bench_run. Exit code 0
// when every output was correct, 1 otherwise, 2 on bad usage.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "arch/hostprobe.hpp"
#include "common.hpp"
#include "common/error.hpp"
#include "shard/worker.hpp"
#include "tests/json_mini.hpp"

#ifndef IDG_PERFBENCH_BUILD_TYPE
#define IDG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::WorkloadResult;

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metric list of one mode, read from BENCHMARK.json in the working
/// directory: "end_to_end" for untraced runs, "per_layer" for traced ones.
std::vector<MetricSpec> metric_specs(bool trace) {
  std::ifstream in("BENCHMARK.json");
  IDG_CHECK(in, "cannot read BENCHMARK.json in the working directory");
  std::ostringstream text;
  text << in.rdbuf();
  const idg::testjson::Value doc = idg::testjson::parse(text.str());
  std::vector<MetricSpec> specs;
  for (const idg::testjson::Value& m :
       doc.at(trace ? "per_layer" : "end_to_end").array) {
    specs.push_back({m.at("name").string, m.at("unit").string});
  }
  return specs;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "idg_perfbench: " << why
            << "\nusage: idg_perfbench --workload "
               "cycle-long|wide-field|sharded|service --seed N --seconds S "
               "--trace 0|1 [--tiny]\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      const unsigned long seed = std::strtoul(value.c_str(), &end, 10);
      if (*end != '\0' || seed > 0xffffffffUL) usage("bad --seed " + value);
      o.seed = static_cast<std::uint32_t>(seed);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0)
        usage("bad --seconds " + value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else {
      usage("unknown option " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// The context block that keeps results from different hosts, builds or
/// inputs apart.
std::map<std::string, std::string> context_of(const RunOptions& o,
                                              const WorkloadResult& r) {
  std::map<std::string, std::string> ctx = r.context;
  ctx["workload"] = o.workload;
  ctx["seed"] = std::to_string(o.seed);
  ctx["seconds"] = json_number(o.seconds);
  ctx["trace"] = o.trace ? "1" : "0";
  ctx["tiny"] = o.tiny ? "1" : "0";
  ctx["nproc"] = std::to_string(std::thread::hardware_concurrency());
  ctx["host_fingerprint"] = idg::arch::host_fingerprint();
  const idg::arch::PerfCounterStatus& perf =
      idg::arch::host_perf_counter_status();
  ctx["perf_counters"] = std::string(perf.available ? "available" : "unavailable") +
                         " (paranoid " + std::to_string(perf.paranoid_level) +
                         "): " + perf.detail;
  ctx["build_type"] = IDG_PERFBENCH_BUILD_TYPE;
  const char* commit = std::getenv("IDG_PERFBENCH_COMMIT");
  ctx["commit"] = commit != nullptr ? commit : "unknown";
  for (const char* var : {"OMP_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_"}) {
    const char* value = std::getenv(var);
    ctx[var] = value != nullptr ? value : "unset";
  }
  return ctx;
}

}  // namespace

int main(int argc, char** argv) {
  // Shard workers re-exec this binary; dispatch them before anything else.
  if (const int rc = idg::shard::maybe_run_worker(argc, argv); rc >= 0)
    return rc;
  const RunOptions options = parse(argc, argv);
  ::mkdir(perfbench::kRunDir, 0755);

  std::vector<MetricSpec> specs;
  WorkloadResult result;
  try {
    specs = metric_specs(options.trace);
    result = options.workload == "service"
                 ? perfbench::run_service_workload(options)
                 : perfbench::run_imaging_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "idg_perfbench: " << e.what() << "\n";
    return 1;
  }

  // Exactly the metric set of this mode; layers a workload does not
  // exercise report 0, a missing end-to-end metric is a benchmark bug.
  std::map<std::string, Metric> metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (!options.trace) {
        std::cerr << "idg_perfbench: metric " << spec.name << " not measured\n";
        return 1;
      }
      metrics[spec.name] = Metric{0.0, spec.unit};
      continue;
    }
    Metric m = it->second;
    if (m.unit != spec.unit) {
      std::cerr << "idg_perfbench: metric " << spec.name << " measured in "
                << m.unit << ", BENCHMARK.json says " << spec.unit << "\n";
      return 1;
    }
    if (!std::isfinite(m.value)) {
      std::cerr << "idg_perfbench: metric " << spec.name
                << " is not finite; reported as 0\n";
      m.value = 0.0;
    }
    metrics[spec.name] = m;
  }

  const bool correct = result.failed == 0 && result.problems == 0;
  for (const std::string& f : result.failures)
    std::cerr << "idg_perfbench: FAILED: " << f << "\n";

  std::ostringstream ctx;
  ctx << "{";
  bool first = true;
  for (const auto& [key, value] : context_of(options, result)) {
    ctx << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  ctx << "}";
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    line << (first ? "" : ", ") << json_string(name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  line << "}}";

  const std::string result_path =
      std::string(perfbench::kRunDir) + "/result-" + options.workload + "-" +
      std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
      ".json";
  std::ofstream(result_path) << "{\"context\": " << ctx.str()
                             << ", \"result\": " << line.str() << "}\n";

  std::cout << "\nperfbench " << options.workload << " (seed " << options.seed
            << ", trace " << options.trace << "): " << result.attempted
            << " operations, " << result.failed << " failed\n";
  for (const auto& [name, m] : metrics)
    std::cout << "  " << name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  std::cout << "context " << ctx.str() << "\n";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
