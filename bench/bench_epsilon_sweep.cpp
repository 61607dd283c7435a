// Epsilon sweep: achieved accuracy vs requested contract, per tier
// (DESIGN.md §13).
//
// For each requested epsilon the accuracy planner (auto_configure) derives
// a configuration; this bench measures what that configuration actually
// delivers — the dirty-image l2 error against a strided direct
// double-precision DFT of the same planned visibilities, the grid/degrid
// adjointness defect, and the gridding wall time — and FAILS (nonzero
// exit) if any achieved error exceeds its requested epsilon. CI runs it as
// an accuracy-labeled smoke test and uploads the JSON artifact.
//
//   --epsilon E   one sweep point (default 1e-3)
//   --sweep       the full ladder 1e-1 .. 1e-5
//   --backend B   execution backend (default synchronous)
//   --json PATH   write the sweep as idg-epsilon-sweep/v1 JSON
//   --csv PATH    write the result table as CSV
#include <cmath>
#include <complex>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <random>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "idg/accuracy.hpp"
#include "idg/image.hpp"
#include "kernels/optimized.hpp"

namespace {

using namespace idg;

constexpr double kTwoPiD = 6.283185307179586476925286766559;

struct SweepPoint {
  double requested = 0.0;
  const char* tier = "";
  std::string kernels;
  std::size_t kernel_size = 0;
  std::size_t subgrid_size = 0;
  double achieved_l2 = 0.0;
  double achieved_adj = 0.0;
  double grid_seconds = 0.0;
  bool ok() const {
    return achieved_l2 <= requested && achieved_adj <= requested;
  }
};

/// Relative l2 error of `dirty` (pol 0) against a direct double DFT of the
/// planned visibilities, sampled on a strided raster of <= samples^2
/// pixels over the central half of the field (the contract region) so the
/// DFT cost stays bounded at large grids.
double strided_dft_l2(const Parameters& params, const sim::Dataset& ds,
                      const Array3D<Visibility>& vis, const Plan& plan,
                      const Array3D<cfloat>& dirty,
                      std::size_t samples = 32) {
  Array3D<int> covered(ds.nr_baselines(), ds.nr_timesteps(),
                       ds.nr_channels());
  for (const WorkItem& it : plan.items())
    for (int t = 0; t < it.nr_timesteps; ++t)
      for (int c = 0; c < it.nr_channels; ++c)
        covered(static_cast<std::size_t>(it.baseline),
                static_cast<std::size_t>(it.time_begin + t),
                static_cast<std::size_t>(it.channel_begin + c)) = 1;

  const std::size_t n = params.grid_size;
  const std::size_t lo = n / 4, hi = 3 * n / 4;
  const std::size_t stride = std::max<std::size_t>(1, (hi - lo) / samples);
  double num = 0.0, den = 0.0;
#pragma omp parallel for schedule(dynamic) reduction(+ : num, den)
  for (std::size_t y = lo; y < hi; y += stride) {
    const double m = (static_cast<double>(y) - n / 2.0) * params.image_size /
                     static_cast<double>(n);
    for (std::size_t x = lo; x < hi; x += stride) {
      const double l = (static_cast<double>(x) - n / 2.0) *
                       params.image_size / static_cast<double>(n);
      const double r2 = l * l + m * m;
      const double pn = r2 >= 1.0 ? 1.0 : 1.0 - std::sqrt(1.0 - r2);
      std::complex<double> ref{};
      for (std::size_t bl = 0; bl < ds.nr_baselines(); ++bl) {
        for (std::size_t t = 0; t < ds.nr_timesteps(); ++t) {
          const UVW& coord = ds.uvw(bl, t);
          const double base = static_cast<double>(coord.u) * l +
                              static_cast<double>(coord.v) * m +
                              static_cast<double>(coord.w) * pn;
          for (std::size_t c = 0; c < ds.nr_channels(); ++c) {
            if (!covered(bl, t, c)) continue;
            const double k = kTwoPiD * ds.frequencies[c] / kSpeedOfLight;
            ref += std::complex<double>(vis(bl, t, c).xx) *
                   std::complex<double>(std::cos(base * k),
                                        std::sin(base * k));
          }
        }
      }
      ref /= static_cast<double>(plan.nr_planned_visibilities());
      num += std::norm(std::complex<double>(dirty(0, y, x)) - ref);
      den += std::norm(ref);
    }
  }
  return std::sqrt(num / den);
}

SweepPoint run_point(double epsilon, const sim::BenchmarkConfig& base_cfg,
                     const Options& opts) {
  SweepPoint point;
  point.requested = epsilon;
  point.tier = accuracy::tier_for(epsilon).name;

  sim::BenchmarkConfig cfg = base_cfg;
  auto ds = sim::make_benchmark_dataset_no_vis(cfg);

  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.aterm_interval = cfg.aterm_interval;
  params.auto_configure(epsilon);
  point.kernel_size = params.kernel_size;
  point.subgrid_size = params.subgrid_size;

  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  const int nr_slots =
      (cfg.nr_timesteps + cfg.aterm_interval - 1) / cfg.aterm_interval;
  // Science-tier padding grows the subgrid: A-terms follow the params.
  auto aterms = sim::make_identity_aterms(nr_slots, cfg.nr_stations,
                                          params.subgrid_size);

  std::mt19937 rng(12345);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Array3D<Visibility> vis(ds.nr_baselines(), ds.nr_timesteps(),
                          ds.nr_channels());
  for (auto& v : vis)
    v = {{dist(rng), dist(rng)},
         {dist(rng), dist(rng)},
         {dist(rng), dist(rng)},
         {dist(rng), dist(rng)}};

  // The tier's preferred kernel set ("tuned" for preview, the
  // accumulation-honouring reference set for the tighter tiers).
  point.kernels = accuracy::preferred_kernel_set(params);
  const KernelSet& kernels = kernels::kernel_set(point.kernels);
  auto backend = bench::backend_from_options(opts, params, kernels);

  Array3D<cfloat> grid(4, params.grid_size, params.grid_size);
  Timer timer;
  backend->grid(plan, ds.uvw.cview(), vis.cview(), aterms.cview(),
                grid.view());
  point.grid_seconds = timer.seconds();

  auto dirty = make_dirty_image(grid, plan.nr_planned_visibilities(), params);
  point.achieved_l2 = strided_dft_l2(params, ds, vis, plan, dirty);

  // Adjointness defect <grid(vis), g> vs <vis, degrid(g)>.
  Array3D<cfloat> g(4, params.grid_size, params.grid_size);
  for (auto& x : g) x = {dist(rng), dist(rng)};
  Array3D<Visibility> gtg(ds.nr_baselines(), ds.nr_timesteps(),
                          ds.nr_channels());
  for (auto& v : gtg) v = Visibility{};
  backend->degrid(plan, ds.uvw.cview(), g.cview(), aterms.cview(),
                  gtg.view());
  std::complex<double> lhs{}, rhs{};
  for (std::size_t i = 0; i < g.size(); ++i)
    lhs += std::conj(std::complex<double>(grid.data()[i])) *
           std::complex<double>(g.data()[i]);
  for (std::size_t i = 0; i < vis.size(); ++i)
    for (int p = 0; p < 4; ++p)
      rhs += std::conj(std::complex<double>(vis.data()[i][p])) *
             std::complex<double>(gtg.data()[i][p]);
  point.achieved_adj =
      std::abs(lhs - rhs) / std::max({1.0, std::abs(lhs), std::abs(rhs)});
  return point;
}

/// Scientific notation for the table cells (Table::add(double) is
/// fixed-point, which collapses 1e-5 to 0.000).
std::string sci(double value) {
  std::ostringstream oss;
  oss << std::scientific << std::setprecision(2) << value;
  return oss.str();
}

void write_sweep_json(const std::string& path,
                      const std::vector<SweepPoint>& points) {
  std::ofstream os(path);
  os << "{\n  \"schema\": \"idg-epsilon-sweep/v1\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    os << "    {\"requested\": " << p.requested << ", \"tier\": \"" << p.tier
       << "\", \"kernels\": \"" << p.kernels
       << "\", \"kernel_size\": " << p.kernel_size
       << ", \"subgrid_size\": " << p.subgrid_size
       << ", \"achieved_l2\": " << p.achieved_l2
       << ", \"achieved_adjointness\": " << p.achieved_adj
       << ", \"grid_seconds\": " << p.grid_seconds << ", \"ok\": "
       << (p.ok() ? "true" : "false") << "}" << (i + 1 < points.size() ? "," : "")
       << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  const sim::BenchmarkConfig cfg = bench::config_from_options(opts);

  std::vector<double> epsilons;
  if (opts.flag("sweep")) {
    epsilons = {1e-1, 1e-2, 1e-3, 1e-4, 1e-5};
  } else {
    epsilons = {opts.get("epsilon", 1e-3)};
  }

  std::cout << "== epsilon sweep: achieved vs requested accuracy ==\n"
            << "   dataset: " << cfg.describe() << "\n\n";

  std::vector<SweepPoint> points;
  for (const double eps : epsilons) {
    points.push_back(run_point(eps, cfg, opts));
    const SweepPoint& p = points.back();
    std::cout << "   epsilon " << eps << " -> tier " << p.tier
              << ", l2 " << p.achieved_l2 << ", adjointness "
              << p.achieved_adj << ", " << p.grid_seconds << " s"
              << (p.ok() ? "" : "  ** CONTRACT VIOLATED **") << "\n";
  }
  std::cout << "\n";

  Table table({"requested", "tier", "kernels", "kernel", "subgrid",
               "achieved l2", "adjointness", "grid s", "ok"});
  for (const SweepPoint& p : points) {
    table.row()
        .add(sci(p.requested))
        .add(p.tier)
        .add(p.kernels)
        .add(static_cast<std::uint64_t>(p.kernel_size))
        .add(static_cast<std::uint64_t>(p.subgrid_size))
        .add(sci(p.achieved_l2))
        .add(sci(p.achieved_adj))
        .add(p.grid_seconds, 4)
        .add(p.ok() ? "yes" : "NO");
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, opts);

  if (opts.has("json")) {
    const std::string path = opts.get("json", std::string{});
    write_sweep_json(path, points);
    std::cout << "\n(wrote " << path << ")\n";
  }

  // Self-checking: the contract is the exit status.
  for (const SweepPoint& p : points) {
    if (!p.ok()) {
      std::cerr << "FAILED: achieved error exceeds requested epsilon "
                << p.requested << "\n";
      return 1;
    }
  }
  return 0;
}
