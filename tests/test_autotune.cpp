// Tests for the kernel autotuner (kernels/autotune.hpp, DESIGN.md §14):
// the idg-tune/v2 database round-trip and its named failure modes, the
// "tuned" dispatch (database hit, miss, unknown winner, double-precision
// delegation) and a bounded end-to-end autotuning run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/taper.hpp"
#include "kernels/autotune.hpp"
#include "kernels/jit.hpp"
#include "kernels/optimized.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "hostile_path.hpp"

namespace {

using namespace idg;
using kernels::TuneEntry;
using kernels::TuneOp;
using kernels::TuneShape;
using kernels::TuningDatabase;

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Expects `fn` to throw idg::Error whose message contains `substring`.
template <typename Fn>
void expect_error_containing(Fn fn, const std::string& substring) {
  try {
    fn();
    FAIL() << "expected idg::Error containing '" << substring << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(substring), std::string::npos)
        << "actual message: " << e.what();
  }
}

TuneEntry make_entry(TuneOp op, const TuneShape& shape,
                     const std::string& winner, double seconds,
                     double baseline) {
  TuneEntry e;
  e.op = op;
  e.shape = shape;
  e.kernel_set = winner;
  e.seconds = seconds;
  e.baseline_seconds = baseline;
  return e;
}

// --- host fingerprint -----------------------------------------------------------

TEST(HostFingerprintTest, StableAndDescriptive) {
  const std::string a = kernels::host_fingerprint();
  const std::string b = kernels::host_fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // uname fields and the thread count are '|'-separated.
  EXPECT_NE(a.find('|'), std::string::npos);
}

// --- database round-trip --------------------------------------------------------

TEST(TuningDatabaseTest, SaveLoadRoundTrip) {
  const std::string path = temp_path("idg_test_tune_roundtrip.json");
  std::remove(path.c_str());

  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, {24, 8, 12}, "jit",
                    0.001234567890123456, 0.0023456789012345));
  db.put(make_entry(TuneOp::kDegrid, {24, 8, 12}, "optimized-lut", 0.5,
                    0.75));
  db.put(make_entry(TuneOp::kGrid, {16, 1, 3}, "optimized", 1e-9, 1e-9));
  db.save(path);

  // Atomic write: no .tmp remnant next to the database.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  const TuningDatabase loaded = TuningDatabase::load(path);
  EXPECT_EQ(loaded.host(), db.host());
  ASSERT_EQ(loaded.size(), 3u);
  const TuneEntry* e = loaded.find(TuneOp::kGrid, {24, 8, 12});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kernel_set, "jit");
  EXPECT_DOUBLE_EQ(e->seconds, 0.001234567890123456);
  EXPECT_DOUBLE_EQ(e->baseline_seconds, 0.0023456789012345);
  EXPECT_NE(loaded.find(TuneOp::kDegrid, {24, 8, 12}), nullptr);
  EXPECT_EQ(loaded.find(TuneOp::kDegrid, {16, 1, 3}), nullptr);
  std::remove(path.c_str());
}

TEST(TuningDatabaseTest, PutReplacesExistingEntry) {
  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, {24, 8, 12}, "optimized", 2.0, 2.0));
  db.put(make_entry(TuneOp::kGrid, {24, 8, 12}, "optimized-lut", 1.0, 2.0));
  EXPECT_EQ(db.size(), 1u);
  const TuneEntry* e = db.find(TuneOp::kGrid, {24, 8, 12});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kernel_set, "optimized-lut");
  EXPECT_DOUBLE_EQ(e->speedup(), 2.0);
}

// --- named load failures --------------------------------------------------------

TEST(TuningDatabaseTest, MissingFileIsANamedError) {
  expect_error_containing(
      [] { TuningDatabase::load(temp_path("idg_test_tune_missing.json")); },
      "cannot read");
}

TEST(TuningDatabaseTest, TruncatedFileIsANamedError) {
  const std::string path = temp_path("idg_test_tune_truncated.json");
  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, {24, 8, 12}, "optimized", 1.0, 1.0));
  db.save(path);
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() / 2));
  expect_error_containing([&] { TuningDatabase::load(path); },
                          "truncated or corrupt");
  std::remove(path.c_str());
}

TEST(TuningDatabaseTest, TrailingGarbageIsANamedError) {
  const std::string path = temp_path("idg_test_tune_trailing.json");
  TuningDatabase db;
  db.save(path);
  write_file(path, read_file(path) + "...trailing...");
  expect_error_containing([&] { TuningDatabase::load(path); },
                          "truncated or corrupt");
  std::remove(path.c_str());
}

TEST(TuningDatabaseTest, MislabeledSchemaIsANamedError) {
  const std::string path = temp_path("idg_test_tune_schema.json");
  write_file(path, "{\"schema\": \"idg-tune/v0\", \"host\": \"x\", "
                   "\"entries\": []}");
  expect_error_containing([&] { TuningDatabase::load(path); },
                          "schema mismatch");
  std::remove(path.c_str());
}

TEST(TuningDatabaseTest, ForeignHostIsANamedError) {
  const std::string path = temp_path("idg_test_tune_foreign.json");
  TuningDatabase foreign(std::string("some-other-machine|t64"));
  foreign.put(make_entry(TuneOp::kGrid, {24, 8, 12}, "optimized", 1.0, 1.0));
  foreign.save(path);
  // Rejected against this host...
  expect_error_containing([&] { TuningDatabase::load(path); },
                          "host mismatch");
  // ...but loadable when the caller expects that host explicitly.
  const TuningDatabase loaded =
      TuningDatabase::load(path, "some-other-machine|t64");
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
}

// --- default database path -----------------------------------------------------

TEST(TuningDatabasePathTest, CreatesADirectoryNamedWithShellMetacharacters) {
  const test::HostilePath hostile("idg_test_tune_shell");
  const test::ScopedEnv db("IDG_TUNE_DB", std::nullopt);
  const test::ScopedEnv xdg("XDG_CACHE_HOME", hostile.dir);
  EXPECT_EQ(kernels::default_tuning_database_path(),
            hostile.dir + "/idg/tune.json");
  EXPECT_TRUE(std::filesystem::is_directory(hostile.dir + "/idg"));
  EXPECT_FALSE(std::filesystem::exists(hostile.pwned));
}

// --- tuned dispatch -------------------------------------------------------------

struct DispatchFixture {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;
  Array2D<float> taper;

  static DispatchFixture make() {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 4;
    cfg.nr_timesteps = 16;
    cfg.nr_channels = 4;
    cfg.grid_size = 128;
    cfg.subgrid_size = 16;
    auto ds = sim::make_benchmark_dataset(cfg);
    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 4;
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                            cfg.subgrid_size);
    auto taper = make_taper(cfg.subgrid_size);
    return {std::move(ds), params, std::move(plan), std::move(aterms),
            std::move(taper)};
  }

  KernelData data() const {
    return {ds.uvw.cview(), plan.wavenumbers(), aterms.cview(),
            taper.cview()};
  }

  TuneShape shape() const {
    return {params.subgrid_size, ds.nr_channels(), params.nr_stations};
  }

  Array4D<cfloat> grid_with(const KernelSet& k) const {
    Array4D<cfloat> out(plan.nr_subgrids(), 4, params.subgrid_size,
                        params.subgrid_size);
    k.grid(params, data(), plan.items(), ds.visibilities.cview(),
           out.view());
    return out;
  }
};

bool bit_identical(const Array4D<cfloat>& a, const Array4D<cfloat>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

TEST(TunedDispatchTest, EmptyDatabaseFallsBackToOptimized) {
  kernels::set_process_tuning_database(TuningDatabase{});
  const auto f = DispatchFixture::make();
  EXPECT_TRUE(bit_identical(f.grid_with(kernels::tuned_kernels()),
                            f.grid_with(kernels::optimized_kernels())));
}

TEST(TunedDispatchTest, DatabaseEntrySelectsTheRecordedWinner) {
  const auto f = DispatchFixture::make();
  // The libm sincos gives other bits than "optimized", so the comparison
  // below tells the winner from the fallback.
  const Array4D<cfloat> winner =
      f.grid_with(kernels::kernel_set("optimized-libm"));
  ASSERT_FALSE(
      bit_identical(winner, f.grid_with(kernels::optimized_kernels())));
  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, f.shape(), "optimized-libm", 1.0, 2.0));
  kernels::set_process_tuning_database(std::move(db));
  EXPECT_TRUE(bit_identical(f.grid_with(kernels::tuned_kernels()), winner));
  kernels::set_process_tuning_database(TuningDatabase{});
}

TEST(TunedDispatchTest, UnknownWinnerFallsBackToOptimized) {
  const auto f = DispatchFixture::make();
  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, f.shape(), "no-such-variant", 1.0, 1.0));
  kernels::set_process_tuning_database(std::move(db));
  EXPECT_TRUE(bit_identical(f.grid_with(kernels::tuned_kernels()),
                            f.grid_with(kernels::optimized_kernels())));
  kernels::set_process_tuning_database(TuningDatabase{});
}

TEST(TunedDispatchTest, DatabaseOfOlderKernelsFallsBackToOptimized) {
  // A v1 database was measured against kernels that no longer exist; its
  // winners may now be several times slower than "optimized". Loading it
  // is a named error, and dispatch stays on the fallback until re-tuned.
  const auto f = DispatchFixture::make();
  const std::string path = temp_path("idg_test_tune_v1.json");
  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, f.shape(), "optimized-libm", 1.0, 2.0));
  db.save(path);
  std::string text = read_file(path);
  const std::string current = TuningDatabase::kSchema;
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "idg-tune/v1");
  write_file(path, text);

  expect_error_containing([&] { TuningDatabase::load(path); },
                          "schema mismatch");
  EXPECT_NE(kernels::reload_process_tuning_database(path).find(
                "schema mismatch"),
            std::string::npos);
  EXPECT_TRUE(bit_identical(f.grid_with(kernels::tuned_kernels()),
                            f.grid_with(kernels::optimized_kernels())));
  kernels::set_process_tuning_database(TuningDatabase{});
  std::remove(path.c_str());
}

TEST(TunedDispatchTest, DoubleAccumulationDelegatesToReference) {
  auto f = DispatchFixture::make();
  f.params.accumulation = Accumulation::kDouble;
  // Even a database entry naming a single-precision variant must not
  // override the precision contract.
  TuningDatabase db;
  db.put(make_entry(TuneOp::kGrid, f.shape(), "optimized-libm", 1.0, 2.0));
  kernels::set_process_tuning_database(std::move(db));
  EXPECT_TRUE(bit_identical(f.grid_with(kernels::tuned_kernels()),
                            f.grid_with(reference_kernels())));
  kernels::set_process_tuning_database(TuningDatabase{});
}

TEST(TunedDispatchTest, RegisteredAndNamedTuned) {
  EXPECT_EQ(kernels::kernel_set("tuned").name(), "tuned");
  EXPECT_EQ(kernels::tuned_kernels().name(), "tuned");
}

// --- end-to-end autotuning ------------------------------------------------------

TEST(AutotuneTest, TunesPersistsAndDrivesDispatch) {
  const std::string path = temp_path("idg_test_tune_e2e.json");
  std::remove(path.c_str());

  Parameters params;
  params.grid_size = 128;
  params.subgrid_size = 16;
  params.nr_stations = 4;
  params.kernel_size = 4;

  kernels::AutotuneOptions opts;
  opts.warmup = 0;
  opts.repeats = 1;
  opts.nr_items = 2;
  opts.nr_timesteps = 4;
  // The CI autotune smoke's candidate set: jit joins when a toolchain is
  // there to compile it.
  opts.candidates = {"optimized", "optimized-lut"};
  if (kernels::jit_available()) opts.candidates.push_back("jit");

  TuningDatabase db;
  const auto results = kernels::autotune(db, params, /*nr_channels=*/4, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(db.size(), 2u);
  for (const auto& r : results) {
    // The winner is one of the candidates, measured, with the optimized
    // baseline recorded alongside (so speedup() is meaningful). The
    // ranking includes that baseline, so the winner is never slower than
    // optimized: a speedup below 1 means the selection logic broke.
    EXPECT_NE(std::find(opts.candidates.begin(), opts.candidates.end(),
                        r.entry.kernel_set),
              opts.candidates.end())
        << r.entry.kernel_set;
    EXPECT_GT(r.entry.seconds, 0.0);
    EXPECT_GT(r.entry.baseline_seconds, 0.0);
    EXPECT_GE(r.entry.speedup(), 1.0);
    ASSERT_EQ(r.ranking.size(), opts.candidates.size());
    for (std::size_t i = 1; i < r.ranking.size(); ++i)
      EXPECT_LE(r.ranking[i - 1].seconds, r.ranking[i].seconds);
  }

  db.save(path);
  EXPECT_EQ(kernels::reload_process_tuning_database(path), "");
  EXPECT_EQ(kernels::process_tuning_database().size(), 2u);
  const TuneShape shape{16, 4, 4};
  ASSERT_NE(kernels::process_tuning_database().find(TuneOp::kGrid, shape),
            nullptr);

  // A bad path reports the load error and leaves dispatch on the fallback.
  EXPECT_NE(kernels::reload_process_tuning_database(
                temp_path("idg_test_tune_nope.json")),
            "");
  EXPECT_EQ(kernels::process_tuning_database().size(), 0u);

  kernels::set_process_tuning_database(TuningDatabase{});
  std::remove(path.c_str());
}

}  // namespace
