// Unit tests for the common substrate: types, arrays, allocator, counters,
// reporting, image output and CLI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/array.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/cli.hpp"
#include "common/counters.hpp"
#include "common/error.hpp"
#include "common/imageio.hpp"
#include "common/report.hpp"
#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace {

using idg::cfloat;
using idg::Error;
using idg::Matrix2x2;
using idg::Options;
using idg::WorkerPool;

// --- types -----------------------------------------------------------------

TEST(Matrix2x2Test, IdentityIsMultiplicativeNeutral) {
  Matrix2x2<float> a{{1, 2}, {3, -4}, {0.5f, 0}, {-1, 1}};
  auto i = Matrix2x2<float>::identity();
  auto ai = a * i;
  auto ia = i * a;
  EXPECT_EQ(ai.xx, a.xx);
  EXPECT_EQ(ai.yy, a.yy);
  EXPECT_EQ(ia.xy, a.xy);
  EXPECT_EQ(ia.yx, a.yx);
}

TEST(Matrix2x2Test, AdjointIsInvolution) {
  Matrix2x2<float> a{{1, 2}, {3, -4}, {0.5f, 0.25f}, {-1, 1}};
  auto b = a.adjoint().adjoint();
  EXPECT_EQ(b.xx, a.xx);
  EXPECT_EQ(b.xy, a.xy);
  EXPECT_EQ(b.yx, a.yx);
  EXPECT_EQ(b.yy, a.yy);
}

TEST(Matrix2x2Test, AdjointOfProductReversesOrder) {
  Matrix2x2<float> a{{1, 2}, {3, -4}, {0.5f, 0.25f}, {-1, 1}};
  Matrix2x2<float> b{{0, 1}, {2, 0}, {1, 1}, {3, -2}};
  auto lhs = (a * b).adjoint();
  auto rhs = b.adjoint() * a.adjoint();
  EXPECT_NEAR(std::abs(lhs.xx - rhs.xx), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(lhs.xy - rhs.xy), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(lhs.yx - rhs.yx), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(lhs.yy - rhs.yy), 0.0f, 1e-6f);
}

TEST(Matrix2x2Test, IndexOperatorMatchesMembers) {
  Matrix2x2<float> a{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  EXPECT_EQ(a[0], a.xx);
  EXPECT_EQ(a[1], a.xy);
  EXPECT_EQ(a[2], a.yx);
  EXPECT_EQ(a[3], a.yy);
}

TEST(TypesTest, ComputeNIsZeroAtPhaseCenter) {
  EXPECT_FLOAT_EQ(idg::compute_n(0.0f, 0.0f), 0.0f);
}

TEST(TypesTest, ComputeNMatchesAnalyticValue) {
  const float l = 0.3f, m = -0.4f;
  EXPECT_NEAR(idg::compute_n(l, m), 1.0f - std::sqrt(1.0f - 0.25f), 1e-6f);
}

TEST(TypesTest, ComputeNClampsBeyondHorizon) {
  EXPECT_FLOAT_EQ(idg::compute_n(1.0f, 1.0f), 1.0f);
}

// --- aligned allocator -------------------------------------------------------

TEST(AlignedTest, VectorDataIs64ByteAligned) {
  for (std::size_t n : {1, 3, 17, 1000}) {
    idg::AlignedVector<float> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % idg::kAlignment, 0u);
  }
}

TEST(AlignedTest, ComplexVectorAligned) {
  idg::AlignedVector<cfloat> v(123);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % idg::kAlignment, 0u);
}

// --- arrays ------------------------------------------------------------------

TEST(ArrayTest, RowMajorLayout) {
  idg::Array3D<int> a(2, 3, 4);
  int value = 0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      for (std::size_t k = 0; k < 4; ++k) a(i, j, k) = value++;
  EXPECT_EQ(a.data()[0], 0);
  EXPECT_EQ(a.data()[4 * 3], 12);  // (1,0,0)
  EXPECT_EQ(a.data()[2 * 3 * 4 - 1], 23);
}

TEST(ArrayTest, ZeroInitialized) {
  idg::Array2D<cfloat> a(5, 5);
  for (auto v : a) EXPECT_EQ(v, cfloat{});
}

TEST(ArrayTest, FillAndZero) {
  idg::Array1D<float> a(10);
  a.fill(3.5f);
  for (auto v : a) EXPECT_EQ(v, 3.5f);
  a.zero();
  for (auto v : a) EXPECT_EQ(v, 0.0f);
}

TEST(ArrayTest, OutOfRangeIndexThrows) {
  idg::Array2D<int> a(2, 2);
  EXPECT_THROW(a(2, 0), idg::Error);
  EXPECT_THROW(a(0, 5), idg::Error);
}

TEST(ArrayTest, BytesAndSize) {
  idg::Array2D<cfloat> a(8, 16);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_EQ(a.bytes(), 128u * sizeof(cfloat));
}

TEST(ArrayTest, ViewSharesStorage) {
  idg::Array2D<int> a(3, 3);
  auto v = a.view();
  v(1, 1) = 42;
  EXPECT_EQ(a(1, 1), 42);
}

// --- counters ----------------------------------------------------------------

TEST(OpCountsTest, OpsDefinitionMatchesPaper) {
  // One gridder inner iteration: 17 FMAs + 1 sincos = 36 ops, rho = 17.
  idg::OpCounts c;
  c.fma = 17;
  c.sincos = 1;
  EXPECT_EQ(c.ops(), 36u);
  EXPECT_EQ(c.flops(), 34u);
  EXPECT_DOUBLE_EQ(c.rho(), 17.0);
}

TEST(OpCountsTest, AdditionAndScaling) {
  idg::OpCounts a;
  a.fma = 10;
  a.dev_bytes = 100;
  a.visibilities = 5;
  idg::OpCounts b = a + a;
  EXPECT_EQ(b.fma, 20u);
  EXPECT_EQ(b.dev_bytes, 200u);
  b *= 3;
  EXPECT_EQ(b.visibilities, 30u);
}

TEST(OpCountsTest, IntensityComputation) {
  idg::OpCounts c;
  c.fma = 50;  // 100 ops
  c.dev_bytes = 25;
  c.shared_bytes = 200;
  EXPECT_DOUBLE_EQ(c.intensity_dev(), 4.0);
  EXPECT_DOUBLE_EQ(c.intensity_shared(), 0.5);
}

TEST(OpCountsTest, ZeroByteIntensityIsZero) {
  idg::OpCounts c;
  c.fma = 10;
  EXPECT_DOUBLE_EQ(c.intensity_dev(), 0.0);
}

// --- timer ---------------------------------------------------------------------

TEST(TimerTest, SecondsAreMonotonic) {
  idg::Timer timer;
  const double first = timer.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(timer.seconds(), first);
}

// --- report --------------------------------------------------------------------

TEST(ReportTest, TablePrintsAlignedColumns) {
  idg::Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(std::uint64_t{42});
  std::ostringstream oss;
  t.print(oss);
  const std::string s = oss.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(ReportTest, TooManyCellsThrows) {
  idg::Table t({"only"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), idg::Error);
}

TEST(ReportTest, AddBeforeRowThrows) {
  idg::Table t({"a"});
  EXPECT_THROW(t.add("x"), idg::Error);
}

TEST(ReportTest, SiFormat) {
  EXPECT_EQ(idg::si_format(1500.0, 1), "1.5 k");
  EXPECT_EQ(idg::si_format(2.5e9, 2), "2.50 G");
  EXPECT_EQ(idg::si_format(12.0, 0), "12 ");
}

TEST(ReportTest, AsciiBar) {
  EXPECT_EQ(idg::ascii_bar(1.0, 4), "####");
  EXPECT_EQ(idg::ascii_bar(0.0, 4), "....");
  EXPECT_EQ(idg::ascii_bar(0.5, 4), "##..");
  EXPECT_EQ(idg::ascii_bar(2.0, 4), "####");  // clamped
}

// --- image I/O -----------------------------------------------------------------

TEST(ImageIoTest, StokesIPlaneExtraction) {
  idg::Array3D<cfloat> cube(4, 4, 4);
  cube(0, 1, 2) = {3.0f, 1.0f};
  cube(3, 1, 2) = {1.0f, -1.0f};
  auto plane = idg::stokes_i_plane(cube);
  EXPECT_FLOAT_EQ(plane(1, 2), 2.0f);
  EXPECT_FLOAT_EQ(plane(0, 0), 0.0f);
}

TEST(ImageIoTest, PgmRoundtripHeader) {
  idg::Array2D<float> plane(16, 24);
  for (std::size_t y = 0; y < 16; ++y)
    for (std::size_t x = 0; x < 24; ++x)
      plane(y, x) = static_cast<float>(x + y);
  const std::string path = ::testing::TempDir() + "idg_test_image.pgm";
  idg::write_pgm(path, plane);
  auto header = idg::read_pgm_header(path);
  EXPECT_EQ(header.width, 24u);
  EXPECT_EQ(header.height, 16u);
  EXPECT_EQ(header.maxval, 255);
  // File size: header + w*h payload bytes.
  EXPECT_GE(std::filesystem::file_size(path), 24u * 16u);
  std::remove(path.c_str());
}

TEST(ImageIoTest, PgmConstantImageDoesNotDivideByZero) {
  idg::Array2D<float> plane(4, 4);
  plane.fill(7.0f);
  const std::string path = ::testing::TempDir() + "idg_test_flat.pgm";
  idg::write_pgm(path, plane);
  EXPECT_EQ(idg::read_pgm_header(path).width, 4u);
  std::remove(path.c_str());
}

TEST(ImageIoTest, CsvContainsAllRows) {
  idg::Array2D<float> plane(3, 2);
  plane(2, 1) = 5.5f;
  const std::string path = ::testing::TempDir() + "idg_test_plane.csv";
  idg::write_plane_csv(path, plane);
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  std::string last;
  while (std::getline(in, line)) {
    ++rows;
    last = line;
  }
  EXPECT_EQ(rows, 3);
  EXPECT_NE(last.find("5.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ImageIoTest, BadPathThrows) {
  idg::Array2D<float> plane(2, 2);
  EXPECT_THROW(idg::write_pgm("/nonexistent-dir/x.pgm", plane), Error);
  EXPECT_THROW(idg::read_pgm_header("/nonexistent-dir/x.pgm"), Error);
}

// --- cli -----------------------------------------------------------------------

TEST(CliTest, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--stations", "20", "--paper", "--scale=0.5",
                        "pos1"};
  idg::Options opts(6, argv);
  EXPECT_EQ(opts.get("stations", 0L), 20);
  EXPECT_TRUE(opts.flag("paper"));
  EXPECT_DOUBLE_EQ(opts.get("scale", 1.0), 0.5);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  idg::Options opts(1, argv);
  EXPECT_EQ(opts.get("stations", 42L), 42);
  EXPECT_EQ(opts.get("name", std::string("dflt")), "dflt");
  EXPECT_FALSE(opts.flag("paper"));
}

TEST(CliTest, MissingValueThrows) {
  const char* argv[] = {"prog", "--stations"};
  EXPECT_THROW(idg::Options(2, argv), idg::Error);
}

TEST(CliTest, BadIntegerThrows) {
  const char* argv[] = {"prog", "--stations", "abc"};
  idg::Options opts(3, argv);
  EXPECT_THROW(opts.get("stations", 0L), idg::Error);
}

TEST(CliTest, EnvironmentFallback) {
  ::setenv("IDG_BENCH_GRID_SIZE", "128", 1);
  const char* argv[] = {"prog"};
  idg::Options opts(1, argv);
  EXPECT_EQ(opts.get("grid-size", 0L), 128);
  ::unsetenv("IDG_BENCH_GRID_SIZE");
}

TEST(CliTest, CommandLineBeatsEnvironment) {
  ::setenv("IDG_BENCH_GRID_SIZE", "128", 1);
  const char* argv[] = {"prog", "--grid-size", "256"};
  idg::Options opts(3, argv);
  EXPECT_EQ(opts.get("grid-size", 0L), 256);
  ::unsetenv("IDG_BENCH_GRID_SIZE");
}

// --- worker pool -------------------------------------------------------------

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnce) {
  idg::WorkerPool pool(3);
  EXPECT_EQ(pool.nr_threads(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000,
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < counts.size(); ++i)
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(WorkerPoolTest, ReusableAcrossJobs) {
  idg::WorkerPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    const std::size_t n = static_cast<std::size_t>(round % 7);  // incl. 0
    pool.parallel_for(n, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
    EXPECT_EQ(sum.load(), static_cast<int>(n * (n + 1) / 2));
  }
}

TEST(WorkerPoolTest, ZeroWorkersRunsInlineInOrder) {
  idg::WorkerPool pool(0);
  EXPECT_EQ(pool.nr_threads(), 1u);
  std::vector<std::size_t> seen;
  pool.parallel_for(5, [&](std::size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(seen[i], i);
}


TEST(CliTest, DuplicateOptionIsRejected) {
  const char* argv[] = {"prog", "--scale=0.5", "--scale", "2"};
  try {
    Options opts(4, argv);
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate option --scale"),
              std::string::npos)
        << e.what();
  }
}

TEST(CliTest, DuplicateFlagIsRejected) {
  const char* argv[] = {"prog", "--paper", "--paper"};
  EXPECT_THROW(Options(3, argv), Error);
}

TEST(CliTest, UnknownOptionsRejectedWhenCatalogueGiven) {
  // All problems must surface in ONE error, not one per run.
  const char* argv[] = {"prog", "--grid=64", "--subgird=24", "--chanels", "8"};
  try {
    Options opts(5, argv, {"paper"}, {"grid", "subgrid", "channels"});
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown option --subgird"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown option --chanels"), std::string::npos) << what;
    EXPECT_EQ(what.find("--grid"), std::string::npos) << what;
  }
}

TEST(CliTest, KnownCatalogueAcceptsListedOptionsAndFlags) {
  const char* argv[] = {"prog", "--grid", "64", "--paper"};
  Options opts(4, argv, {"paper"}, {"grid"});
  EXPECT_EQ(opts.get("grid", 0L), 64L);
  EXPECT_TRUE(opts.flag("paper"));
}

TEST(WorkerPoolTest, ExceptionInWorkerPropagatesToCaller) {
  WorkerPool pool(3);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 13) throw Error("boom at 13");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at 13"), std::string::npos);
  }
  // The pool must stay usable after a failed job.
  std::atomic<int> again{0};
  pool.parallel_for(32, [&](std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 32);
}

TEST(WorkerPoolTest, SerialPathPropagatesExceptions) {
  WorkerPool pool(0);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t i) {
        if (i == 2) throw Error("serial boom");
      }),
      Error);
}

// --- CRC-32 ---------------------------------------------------------------
//
// Frames, job payloads, checkpoint files and JIT cache keys all carry
// crc32 values, so its results are pinned here against the bitwise
// definition.

/// The CRC one bit at a time, straight from the definition.
std::uint32_t crc32_bitwise(const unsigned char* data, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32Test, KnownAnswerAndEmptyInput) {
  const std::string check = "123456789";
  EXPECT_EQ(idg::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(idg::crc32(nullptr, 0), 0u);
  // An empty update leaves a chained value as it was.
  EXPECT_EQ(idg::crc32(check.data(), 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32Test, ChainedUpdatesEqualOneCall) {
  std::mt19937 rng(7);
  std::vector<unsigned char> bytes(4099);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  const std::uint32_t whole = idg::crc32(bytes.data(), bytes.size());
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 2048u, 4098u, 4099u}) {
    const std::uint32_t a = idg::crc32(bytes.data(), split);
    EXPECT_EQ(idg::crc32(bytes.data() + split, bytes.size() - split, a), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, MatchesTheBitwiseDefinition) {
  // Random lengths (short tails and long runs), start offsets that cover
  // every alignment, and random seeds.
  std::mt19937 rng(20011);
  std::vector<unsigned char> bytes(70000 + 64);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  std::uniform_int_distribution<std::size_t> offset(0, 63);
  std::uniform_int_distribution<std::size_t> short_length(0, 40);
  std::uniform_int_distribution<std::size_t> long_length(0, 70000);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t start = offset(rng);
    const std::size_t size =
        trial % 2 == 0 ? short_length(rng) : long_length(rng);
    const std::uint32_t seed = trial % 4 == 0 ? 0u : rng();
    EXPECT_EQ(idg::crc32(bytes.data() + start, size, seed),
              crc32_bitwise(bytes.data() + start, size, seed))
        << "offset " << start << ", length " << size << ", seed " << seed;
  }
}

// --- cancellation edge cases (DESIGN.md §12) --------------------------------
//
// The idg-server creates a per-job CancelToken at ADMISSION, so these
// edges are load-bearing there: a zero deadline means "no deadline", an
// already-expired deadline must throw at the very first check site (the
// job is cancelled before it ever starts — see the server's
// deadline-while-queued test), and request_cancel must be safe against a
// CancelScope tearing down concurrently on another thread.

TEST(CancelTokenTest, ZeroDeadlineNeverExpires) {
  idg::CancelToken token(0);
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("test.site"));
  // Explicit cancellation still works on a deadline-free token.
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("test.site"), idg::CancelledError);
}

TEST(CancelTokenTest, AlreadyPastDeadlineThrowsAtFirstCheckByName) {
  idg::CancelToken token(1);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    token.check("test.queued", 7);
    FAIL() << "an expired deadline must throw at the first check";
  } catch (const idg::CancelledError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadline of 1 ms exceeded"), std::string::npos)
        << what;
    EXPECT_NE(what.find("test.queued"), std::string::npos) << what;
    EXPECT_NE(what.find("work group 7"), std::string::npos) << what;
  }
  // A deadline crossing is latched: it stays cancelled forever.
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("test.queued"), idg::CancelledError);
}

TEST(CancelTokenTest, RequestCancelIsIdempotentAndSticky) {
  idg::CancelToken token;
  token.request_cancel();
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelScopeTest, CancelRacingScopeTeardownIsSafe) {
  // One thread hammers request_cancel + any_cancel_requested while another
  // registers and unregisters scopes for the same token — the exact race
  // between a job thread finishing (scope teardown) and the server's drain
  // (request_cancel from the event loop).
  idg::CancelToken token;
  std::atomic<bool> stop{false};
  std::thread canceller([&]() {
    do {  // at least one cancel, even if the scope loop already finished
      token.request_cancel();
      (void)idg::any_cancel_requested();
    } while (!stop.load(std::memory_order_acquire));
  });
  for (int i = 0; i < 2000; ++i) {
    idg::CancelScope scope(token);
    // The registry observes the (always-cancelled) token while registered.
  }
  stop.store(true, std::memory_order_release);
  canceller.join();
  EXPECT_TRUE(token.cancelled());
  {
    idg::CancelScope scope(token);
    EXPECT_TRUE(idg::any_cancel_requested());
  }
  // After every scope is gone, the registry is empty again.
  EXPECT_FALSE(idg::any_cancel_requested());
}

TEST(CancelScopeTest, NestedScopesUnregisterInAnyOrderSafely) {
  idg::CancelToken outer;
  idg::CancelToken inner;
  {
    idg::CancelScope a(outer);
    {
      idg::CancelScope b(inner);
      inner.request_cancel();
      EXPECT_TRUE(idg::any_cancel_requested());
    }
    // inner unregistered; outer is live but not cancelled.
    EXPECT_FALSE(idg::any_cancel_requested());
    outer.request_cancel();
    EXPECT_TRUE(idg::any_cancel_requested());
  }
  EXPECT_FALSE(idg::any_cancel_requested());
}

}  // namespace
