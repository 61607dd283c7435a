// CI perf-smoke gate:
//
//   perf_smoke_check <current.json> <baseline.json>
//
// Compares the adder wall time of a fresh bench_fig09_runtime --json export
// against the checked-in baseline (bench/perf_smoke_baseline.json) and
// fails when the adder regressed more than 2x. An absolute noise floor
// keeps the tiny CI problem (adder in the low milliseconds) from flaking on
// scheduler jitter or a slower runner: a run only fails when it is BOTH >2x
// the baseline AND above the floor.
//
// The input is an idg-obs export; the fields are extracted with a minimal
// string scan so the checker has no dependencies.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace {

constexpr double kMaxRatio = 2.0;       // fail when current > 2x baseline...
constexpr double kNoiseFloorSec = 0.05; // ...and above this absolute time

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::ostringstream oss;
  oss << in.rdbuf();
  out = oss.str();
  return true;
}

/// Extracts the "seconds" value of the stage named `stage` from an
/// idg-obs JSON export ("seconds" directly follows "name" per stage in
/// every schema version).
bool stage_seconds(const std::string& json, const std::string& stage,
                   double& out) {
  const std::string name_key = "\"name\": \"" + stage + "\"";
  const std::size_t name_pos = json.find(name_key);
  if (name_pos == std::string::npos) return false;
  const std::string sec_key = "\"seconds\": ";
  const std::size_t sec_pos = json.find(sec_key, name_pos);
  if (sec_pos == std::string::npos) return false;
  try {
    out = std::stod(json.substr(sec_pos + sec_key.size()));
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: " << argv[0] << " <current.json> <baseline.json>\n";
    return 2;
  }
  std::string current_json, baseline_json;
  if (!read_file(argv[1], current_json)) {
    std::cerr << "perf-smoke: cannot read current export '" << argv[1]
              << "'\n";
    return 2;
  }
  if (!read_file(argv[2], baseline_json)) {
    std::cerr << "perf-smoke: cannot read baseline '" << argv[2] << "'\n";
    return 2;
  }

  double current = 0.0, baseline = 0.0;
  if (!stage_seconds(current_json, "adder", current) ||
      !stage_seconds(baseline_json, "adder", baseline)) {
    std::cerr << "perf-smoke: no adder stage in one of the exports\n";
    return 2;
  }

  const double ratio = baseline > 0.0 ? current / baseline : 0.0;
  std::cout << "perf-smoke adder: current " << current << " s, baseline "
            << baseline << " s, ratio " << ratio << " (limit " << kMaxRatio
            << "x, noise floor " << kNoiseFloorSec << " s)\n";
  if (current > kNoiseFloorSec && ratio > kMaxRatio) {
    std::cerr << "perf-smoke: adder regressed " << ratio
              << "x vs baseline — failing\n";
    return 1;
  }
  std::cout << "perf-smoke: OK\n";
  return 0;
}
