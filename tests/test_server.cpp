// Multi-tenant idg-server daemon tests (DESIGN.md §17): the IDGJOB1
// protocol codecs, the admission-controlled queue with per-tenant quotas,
// and the daemon end to end — in-process Server on its own thread, real
// UNIX-domain sockets, real job threads. The drain contract (every
// accepted job completed, checkpointed, or reported failed; exit 0) and
// the completed-job byte-identity to a direct single-shot run are proved
// here and re-proved against the installed binaries by the CI server-soak
// job.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "mutate.hpp"
#include "server/client.hpp"
#include "server/job.hpp"
#include "server/protocol.hpp"
#include "server/queue.hpp"
#include "server/server.hpp"

namespace idg::server {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

/// A tiny job that still runs a few hundred milliseconds: enough work
/// groups that cancellation always lands before completion in the
/// disconnect/drain tests, small enough to keep the suite fast.
JobSpec small_spec() {
  JobSpec spec;
  spec.nr_stations = 8;
  spec.nr_timesteps = 24;
  spec.nr_channels = 4;
  spec.grid_size = 256;
  spec.nr_cycles = 2;
  return spec;
}

// --- JobSpec ----------------------------------------------------------------

TEST(JobSpecTest, DefaultSpecValidatesAndCountsVisibilities) {
  JobSpec spec;
  EXPECT_NO_THROW(spec.validate());
  // 8 stations -> 28 baselines, x 24 timesteps x 4 channels.
  EXPECT_EQ(spec.nr_visibilities(), 28u * 24u * 4u);
}

TEST(JobSpecTest, RejectsDegenerateSpecsByName) {
  JobSpec spec;
  spec.nr_stations = 1;
  EXPECT_THROW(
      {
        try {
          spec.validate();
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("station count"),
                    std::string::npos);
          throw;
        }
      },
      Error);
  spec = JobSpec{};
  spec.grid_size = 300;  // not a power of two
  EXPECT_THROW(spec.validate(), Error);
  spec = JobSpec{};
  spec.nr_cycles = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = JobSpec{};
  spec.retries = 17;
  EXPECT_THROW(spec.validate(), Error);
}

// --- protocol codecs --------------------------------------------------------

TEST(JobProtocolTest, HelloRoundTripsAndChecksMagicAndVersion) {
  ClientHelloMsg hello;
  hello.tenant = "alice";
  const ClientHelloMsg back = decode_client_hello(encode_client_hello(hello));
  EXPECT_EQ(back.tenant, "alice");
  EXPECT_EQ(back.version, kJobProtocolVersion);

  std::string corrupt = encode_client_hello(hello);
  corrupt[0] ^= 0x40;  // break the magic
  EXPECT_THROW(decode_client_hello(corrupt), Error);

  ClientHelloMsg wrong;
  wrong.version = 999;
  wrong.tenant = "bob";
  EXPECT_THROW(decode_client_hello(encode_client_hello(wrong)), Error);

  ServerHelloMsg server_hello;
  server_hello.draining = 1;
  EXPECT_EQ(decode_server_hello(encode_server_hello(server_hello)).draining,
            1);
}

TEST(JobProtocolTest, SpecStatusAndTerminalMessagesRoundTrip) {
  JobSpec spec = small_spec();
  spec.retries = 3;
  spec.deadline_ms = 1234;
  spec.checkpoint = 1;
  spec.resume_job = 42;
  const JobSpec back = decode_job_spec(encode_job_spec(spec));
  EXPECT_EQ(back.nr_stations, spec.nr_stations);
  EXPECT_EQ(back.grid_size, spec.grid_size);
  EXPECT_EQ(back.retries, 3u);
  EXPECT_EQ(back.deadline_ms, 1234u);
  EXPECT_EQ(back.checkpoint, 1);
  EXPECT_EQ(back.resume_job, 42u);

  AcceptedMsg accepted{7, 2};
  EXPECT_EQ(decode_accepted(encode_accepted(accepted)).job, 7u);
  EXPECT_EQ(decode_accepted(encode_accepted(accepted)).queue_position, 2u);

  RejectedMsg rejected;
  rejected.reason = RejectReason::kQuotaInFlight;
  rejected.message = "tenant 'x' in-flight quota (2) exhausted";
  const RejectedMsg rback = decode_rejected(encode_rejected(rejected));
  EXPECT_EQ(rback.reason, RejectReason::kQuotaInFlight);
  EXPECT_EQ(rback.message, rejected.message);

  StatusMsg status{9, JobState::kRunning, "cycle 2 done"};
  const StatusMsg sback = decode_status(encode_status(status));
  EXPECT_EQ(sback.job, 9u);
  EXPECT_EQ(sback.state, JobState::kRunning);
  EXPECT_EQ(sback.detail, "cycle 2 done");

  JobFailedMsg failed;
  failed.job = 5;
  failed.state = JobState::kCheckpointed;
  failed.message = "drained";
  failed.checkpoint_job = 5;
  const JobFailedMsg fback = decode_job_failed(encode_job_failed(failed));
  EXPECT_EQ(fback.state, JobState::kCheckpointed);
  EXPECT_EQ(fback.checkpoint_job, 5u);

  EXPECT_EQ(decode_cancel(encode_cancel(CancelMsg{11})).job, 11u);
}

TEST(JobProtocolTest, ResultRoundTripsImagesExactly) {
  ResultMsg msg;
  msg.job = 3;
  msg.total_components = 17;
  msg.peak_history = {1.5f, 0.25f};
  msg.model_image = Array3D<cfloat>(2, 3, 3);
  msg.residual_image = Array3D<cfloat>(2, 3, 3);
  for (std::size_t i = 0; i < msg.model_image.size(); ++i) {
    msg.model_image.data()[i] = cfloat(static_cast<float>(i), -1.0f);
    msg.residual_image.data()[i] = cfloat(0.5f, static_cast<float>(i));
  }
  std::string payload = encode_result(msg);
  const ResultMsg back = decode_result(std::move(payload));
  EXPECT_EQ(back.total_components, 17u);
  ASSERT_EQ(back.peak_history.size(), 2u);
  ASSERT_EQ(back.model_image.size(), msg.model_image.size());
  EXPECT_EQ(std::memcmp(back.model_image.data(), msg.model_image.data(),
                        msg.model_image.bytes()),
            0);
  EXPECT_EQ(std::memcmp(back.residual_image.data(),
                        msg.residual_image.data(),
                        msg.residual_image.bytes()),
            0);
}

/// A result payload laid out like encode_result's, with the model image's
/// extents and peak count as given and no pixel or peak data behind them.
std::string forged_result(std::uint64_t nr_peaks,
                          const std::uint64_t (&model_dims)[3]) {
  CheckpointWriter w;
  w.write_pod(std::uint64_t{3});   // job
  w.write_pod(std::uint32_t{17});  // total components
  w.write_pod(nr_peaks);
  for (const std::uint64_t d : model_dims) w.write_pod(d);
  for (int d = 0; d < 3; ++d) w.write_pod(std::uint64_t{0});  // residual
  return w.take_payload();
}

TEST(JobProtocolTest, ImageExtentsThatWrapAreRejectedByName) {
  // 2^32 * 2^32 * 1 wraps to 0 in 64 bits: without an overflow check the
  // frame decodes into an image whose storage holds no pixel at all.
  const std::uint64_t wrap = std::uint64_t{1} << 32;
  EXPECT_THROW(decode_result(forged_result(0, {wrap, wrap, 1})), Error);
}

TEST(JobProtocolTest, SizesBeyondThePayloadAreNamedErrorsNotBadAlloc) {
  // An extent of 2^40 pixels, and 2^62 + 1 peaks (whose byte count wraps
  // to 4), must fail by name before anything is allocated for them.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  EXPECT_THROW(decode_result(forged_result(0, {huge, 1, 1})), Error);
  EXPECT_THROW(
      decode_result(forged_result((std::uint64_t{1} << 62) + 1, {0, 0, 0})),
      Error);
}

TEST(JobProtocolTest, MutatedResultsDecodeOrFailByName) {
  // decode_result sees a payload after read_message has checked its CRC,
  // so a mutated payload is a mutated frame with its CRC recomputed.
  ResultMsg msg;
  msg.job = 9;
  msg.total_components = 40;
  msg.peak_history = {2.0f, 0.5f, 0.125f};
  msg.model_image = Array3D<cfloat>(4, 16, 16);
  msg.residual_image = Array3D<cfloat>(4, 16, 16);
  msg.model_image.fill(cfloat(0.25f, 0.0f));
  const std::string payload = encode_result(msg);

  test::Mutator mutator(20261019);
  int decoded = 0;
  for (int round = 0; round < 2000; ++round) {
    decoded += test::decodes([&] {
      const ResultMsg back = decode_result(mutator.mutate(payload));
      EXPECT_TRUE(test::consistent(back.model_image) &&
                  test::consistent(back.residual_image))
          << "round " << round;
    });
  }
  // Both outcomes occur, or the mutations reach nothing.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 2000);
}

TEST(JobProtocolTest, TruncatedPayloadsFailByName) {
  std::string payload = encode_job_spec(small_spec());
  payload.resize(payload.size() - 4);
  EXPECT_THROW(decode_job_spec(payload), Error);
  std::string status = encode_status(StatusMsg{1, JobState::kQueued, "x"});
  status.resize(status.size() - 1);
  EXPECT_THROW(decode_status(status), Error);
}

TEST(JobProtocolTest, FramesShipOverSocketsAndRejectCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_message(fds[0], MsgType::kStatus,
                encode_status(StatusMsg{4, JobState::kRunning, "started"}));
  auto frame = read_message(fds[1]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(static_cast<MsgType>(frame->type), MsgType::kStatus);
  EXPECT_EQ(decode_status(frame->payload).job, 4u);

  // A flipped payload byte must surface as a CRC WireError, not bad data.
  const std::string payload = encode_cancel(CancelMsg{1});
  const std::uint32_t type = static_cast<std::uint32_t>(MsgType::kCancel);
  const std::uint64_t size = payload.size();
  std::string corrupted = payload;
  corrupted[0] ^= 0x1;
  std::uint32_t crc = crc32(&type, sizeof(type));
  crc = crc32(&size, sizeof(size), crc);
  crc = crc32(payload.data(), payload.size(), crc);  // CRC of the original
  ASSERT_EQ(::write(fds[0], &type, sizeof(type)),
            static_cast<ssize_t>(sizeof(type)));
  ASSERT_EQ(::write(fds[0], &size, sizeof(size)),
            static_cast<ssize_t>(sizeof(size)));
  ASSERT_EQ(::write(fds[0], corrupted.data(), corrupted.size()),
            static_cast<ssize_t>(corrupted.size()));
  ASSERT_EQ(::write(fds[0], &crc, sizeof(crc)),
            static_cast<ssize_t>(sizeof(crc)));
  EXPECT_THROW(read_message(fds[1]), WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- admission queue --------------------------------------------------------

PendingJob pending(std::uint64_t id, const std::string& tenant,
                   std::int32_t stations = 8) {
  PendingJob job;
  job.id = id;
  job.tenant = tenant;
  job.spec = small_spec();
  job.spec.nr_stations = stations;
  return job;
}

TEST(AdmissionQueueTest, BoundedQueueRejectsByName) {
  QuotaConfig quotas;
  quotas.max_queue_depth = 2;
  quotas.max_inflight_per_tenant = 10;
  AdmissionQueue queue(quotas);
  EXPECT_FALSE(queue.try_admit(pending(1, "a")).has_value());
  EXPECT_FALSE(queue.try_admit(pending(2, "b")).has_value());
  const auto rejection = queue.try_admit(pending(3, "c"));
  ASSERT_TRUE(rejection.has_value());
  EXPECT_EQ(rejection->reason, RejectReason::kQueueFull);
  EXPECT_NE(rejection->message.find("queue full"), std::string::npos);
}

TEST(AdmissionQueueTest, PerTenantInFlightQuotaCountsQueuedAndRunning) {
  QuotaConfig quotas;
  quotas.max_inflight_per_tenant = 2;
  quotas.max_queue_depth = 10;
  AdmissionQueue queue(quotas);
  EXPECT_FALSE(queue.try_admit(pending(1, "alice")).has_value());
  EXPECT_FALSE(queue.try_admit(pending(2, "alice")).has_value());
  auto rejection = queue.try_admit(pending(3, "alice"));
  ASSERT_TRUE(rejection.has_value());
  EXPECT_EQ(rejection->reason, RejectReason::kQuotaInFlight);
  EXPECT_NE(rejection->message.find("tenant 'alice'"), std::string::npos);
  // Another tenant is unaffected.
  EXPECT_FALSE(queue.try_admit(pending(4, "bob")).has_value());

  // Starting a job keeps it in flight: the quota still rejects...
  ASSERT_TRUE(queue.next().has_value());
  EXPECT_TRUE(queue.try_admit(pending(5, "alice")).has_value());
  // ...until the job finishes and releases.
  queue.release("alice", small_spec());
  EXPECT_FALSE(queue.try_admit(pending(6, "alice")).has_value());
}

TEST(AdmissionQueueTest, VisibilityQuotaIsSizeBased) {
  QuotaConfig quotas;
  quotas.max_queue_depth = 10;
  quotas.max_inflight_per_tenant = 10;
  // Room for one small job (28 * 24 * 4 = 2688 visibilities) but not two.
  quotas.max_visibilities_per_tenant = 3000;
  AdmissionQueue queue(quotas);
  EXPECT_FALSE(queue.try_admit(pending(1, "alice")).has_value());
  const auto rejection = queue.try_admit(pending(2, "alice"));
  ASSERT_TRUE(rejection.has_value());
  EXPECT_EQ(rejection->reason, RejectReason::kQuotaVisibilities);
  EXPECT_NE(rejection->message.find("visibility quota"), std::string::npos);
}

TEST(AdmissionQueueTest, FifoWithinTenantRoundRobinAcross) {
  QuotaConfig quotas;
  quotas.max_queue_depth = 10;
  quotas.max_inflight_per_tenant = 10;
  AdmissionQueue queue(quotas);
  // alice queues three jobs before bob's one; bob must not wait behind all
  // three.
  ASSERT_FALSE(queue.try_admit(pending(1, "alice")).has_value());
  ASSERT_FALSE(queue.try_admit(pending(2, "alice")).has_value());
  ASSERT_FALSE(queue.try_admit(pending(3, "alice")).has_value());
  ASSERT_FALSE(queue.try_admit(pending(4, "bob")).has_value());
  std::vector<std::uint64_t> order;
  while (auto job = queue.next()) order.push_back(job->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 2, 3}));
}

TEST(AdmissionQueueTest, RemoveDropsAQueuedJobWithoutReleasingQuota) {
  QuotaConfig quotas;
  quotas.max_inflight_per_tenant = 1;
  AdmissionQueue queue(quotas);
  ASSERT_FALSE(queue.try_admit(pending(1, "alice")).has_value());
  PendingJob out;
  EXPECT_TRUE(queue.remove(1, &out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_EQ(queue.queued(), 0u);
  EXPECT_FALSE(queue.remove(1));
  // Quota still charged until release() — the terminal-state accounting.
  EXPECT_TRUE(queue.try_admit(pending(2, "alice")).has_value());
  queue.release("alice", out.spec);
  EXPECT_FALSE(queue.try_admit(pending(3, "alice")).has_value());
}

// --- end-to-end daemon fixtures ---------------------------------------------

/// Runs an in-process Server on its own thread; request_stop() + join on
/// teardown gives every test the full drain path.
class ServerFixture {
 public:
  explicit ServerFixture(ServerConfig config) : config_(std::move(config)) {
    server_ = std::make_unique<Server>(config_);
    thread_ = std::thread([this]() { exit_code_ = server_->run(); });
    wait_until_listening();
  }

  ~ServerFixture() { stop(); }

  int stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    return exit_code_;
  }

  Server& server() { return *server_; }
  const std::string& socket_path() const { return config_.socket_path; }

  /// Polls the counters until `pred` holds (the event loop ticks at
  /// 200 ms); fails the test after ~10 s.
  template <typename Pred>
  void wait_for_counters(Pred pred) {
    for (int i = 0; i < 200; ++i) {
      if (pred(snapshot_counters())) return;
      std::this_thread::sleep_for(50ms);
    }
    FAIL() << "server counters never reached the expected state";
  }

  obs::ServerCounters snapshot_counters() {
    const obs::MetricsSnapshot snapshot = server_->metrics();
    const auto it = snapshot.find("server");
    return it == snapshot.end() ? obs::ServerCounters{} : it->second.server;
  }

 private:
  void wait_until_listening() {
    for (int i = 0; i < 100; ++i) {
      if (::access(config_.socket_path.c_str(), F_OK) == 0) return;
      std::this_thread::sleep_for(20ms);
    }
    FAIL() << "server never created " << config_.socket_path;
  }

  ServerConfig config_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

ServerConfig test_config(const std::string& name) {
  ServerConfig config;
  config.socket_path = temp_path("idg_server_" + name + ".sock");
  config.checkpoint_dir = ::testing::TempDir();
  config.client_timeout_ms = 30000;
  return config;
}

ClientOptions client_options(const ServerFixture& fixture,
                             const std::string& tenant) {
  ClientOptions options;
  options.socket_path = fixture.socket_path();
  options.tenant = tenant;
  return options;
}

/// Raw protocol driver for tests that need asynchronous control the
/// synchronous Client deliberately does not expose (submit-then-walk-away,
/// deliberate mid-job disconnects, malformed frames).
class RawConn {
 public:
  RawConn(const ServerFixture& fixture, const std::string& tenant) {
    ClientOptions options = client_options(fixture, tenant);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << strerror(errno);
    // Bound every read: a misbehaving server surfaces as WireTimeout,
    // never as a hung test.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ClientHelloMsg hello;
    hello.tenant = tenant;
    write_message(fd_, MsgType::kClientHello, encode_client_hello(hello));
    auto frame = read_message(fd_);
    EXPECT_TRUE(frame.has_value());
  }

  ~RawConn() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::uint64_t submit(const JobSpec& spec) {
    write_message(fd_, MsgType::kSubmit, encode_job_spec(spec));
    auto frame = read_message(fd_);
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(static_cast<MsgType>(frame->type), MsgType::kAccepted);
    return decode_accepted(frame->payload).job;
  }

  RejectedMsg submit_expect_rejection(const JobSpec& spec) {
    write_message(fd_, MsgType::kSubmit, encode_job_spec(spec));
    auto frame = read_message(fd_);
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(static_cast<MsgType>(frame->type), MsgType::kRejected);
    return decode_rejected(frame->payload);
  }

  /// Reads frames until the job's terminal result/job-failed arrives.
  JobFailedMsg read_until_failed() {
    while (true) {
      auto frame = read_message(fd_);
      if (!frame.has_value()) {
        ADD_FAILURE() << "connection closed before a terminal frame";
        return {};
      }
      if (static_cast<MsgType>(frame->type) == MsgType::kJobFailed) {
        return decode_job_failed(frame->payload);
      }
      EXPECT_EQ(static_cast<MsgType>(frame->type), MsgType::kStatus);
    }
  }

  /// Reads status frames until `detail` appears.
  void read_until_status(const std::string& detail) {
    while (true) {
      auto frame = read_message(fd_);
      ASSERT_TRUE(frame.has_value());
      ASSERT_EQ(static_cast<MsgType>(frame->type), MsgType::kStatus);
      if (decode_status(frame->payload).detail == detail) return;
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// --- end-to-end: completion and byte-identity -------------------------------

TEST(ServerEndToEndTest, CompletedJobIsByteIdenticalToDirectRun) {
  ServerFixture fixture(test_config("identity"));
  Client client(client_options(fixture, "alice"));
  client.connect();
  const JobSpec spec = small_spec();
  const SubmitOutcome outcome = client.submit(spec);
  ASSERT_FALSE(outcome.rejected);
  ASSERT_EQ(outcome.state, JobState::kCompleted);
  ASSERT_TRUE(outcome.result != nullptr);

  const clean::MajorCycleResult direct = run_imaging_job(spec, {});
  ASSERT_EQ(outcome.result->model_image.size(), direct.model_image.size());
  EXPECT_EQ(std::memcmp(outcome.result->model_image.data(),
                        direct.model_image.data(),
                        direct.model_image.bytes()),
            0);
  EXPECT_EQ(std::memcmp(outcome.result->residual_image.data(),
                        direct.residual_image.data(),
                        direct.residual_image.bytes()),
            0);
  EXPECT_EQ(outcome.result->total_components,
            static_cast<std::uint32_t>(direct.total_components));

  client.close();
  EXPECT_EQ(fixture.stop(), 0);
  const obs::ServerCounters counters = fixture.snapshot_counters();
  EXPECT_EQ(counters.jobs_admitted, 1u);
  EXPECT_EQ(counters.jobs_completed, 1u);
  EXPECT_EQ(counters.drained, 1u);
}

// More timesteps than one A-term interval (256) need a second A-term slot;
// a one-slot cube made the kernel read past it and abort the server.
TEST(ServerEndToEndTest, JobLongerThanOneATermIntervalCompletes) {
  JobSpec spec;
  spec.nr_stations = 3;
  spec.nr_timesteps = 257;
  spec.nr_channels = 1;
  spec.grid_size = 64;
  spec.nr_cycles = 1;

  const clean::MajorCycleResult direct = run_imaging_job(spec, {});
  EXPECT_EQ(direct.peak_history.size(), 1u);

  ServerFixture fixture(test_config("long"));
  Client client(client_options(fixture, "alice"));
  client.connect();
  const SubmitOutcome outcome = client.submit(spec);
  ASSERT_FALSE(outcome.rejected);
  ASSERT_EQ(outcome.state, JobState::kCompleted);
  ASSERT_TRUE(outcome.result != nullptr);
  EXPECT_EQ(std::memcmp(outcome.result->model_image.data(),
                        direct.model_image.data(),
                        direct.model_image.bytes()),
            0);
  client.close();
  EXPECT_EQ(fixture.stop(), 0);
  EXPECT_EQ(fixture.snapshot_counters().jobs_completed, 1u);
}

TEST(ServerEndToEndTest, StatsReportsTheV8SchemaWithAServerBlock) {
  ServerFixture fixture(test_config("stats"));
  Client client(client_options(fixture, "alice"));
  client.connect();
  ASSERT_EQ(client.submit(small_spec()).state, JobState::kCompleted);
  const std::string json = client.stats();
  EXPECT_NE(json.find("\"schema\": \"idg-obs/v8\""), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("server.tenant.alice"), std::string::npos);
  EXPECT_NE(json.find("\"jobs_completed\": 1"), std::string::npos);
}

// --- end-to-end: admission control ------------------------------------------
//
// max_running = 0 pins every admitted job in the queue, making admission
// decisions fully deterministic (no races against job completion).

TEST(ServerEndToEndTest, QueueFullAndQuotaRejectionsAreNamedAndCounted) {
  ServerConfig config = test_config("admission");
  config.max_running = 0;
  config.quotas.max_queue_depth = 3;
  config.quotas.max_inflight_per_tenant = 2;
  ServerFixture fixture(config);

  RawConn a1(fixture, "alice");
  RawConn a2(fixture, "alice");
  RawConn a3(fixture, "alice");
  a1.submit(small_spec());
  a2.submit(small_spec());
  const RejectedMsg quota = a3.submit_expect_rejection(small_spec());
  EXPECT_EQ(quota.reason, RejectReason::kQuotaInFlight);
  EXPECT_NE(quota.message.find("quota"), std::string::npos);

  RawConn b1(fixture, "bob");
  RawConn b2(fixture, "bob");
  b1.submit(small_spec());
  const RejectedMsg full = b2.submit_expect_rejection(small_spec());
  EXPECT_EQ(full.reason, RejectReason::kQueueFull);
  EXPECT_NE(full.message.find("queue full"), std::string::npos);

  // Queued jobs are failed by name at drain; the exit stays 0.
  EXPECT_EQ(fixture.stop(), 0);
  const obs::ServerCounters counters = fixture.snapshot_counters();
  EXPECT_EQ(counters.jobs_admitted, 3u);
  EXPECT_EQ(counters.jobs_rejected, 2u);
  EXPECT_EQ(counters.quota_rejections, 1u);
  EXPECT_EQ(counters.queue_full_rejections, 1u);
  EXPECT_EQ(counters.jobs_failed, 3u);
  EXPECT_EQ(counters.queue_depth_peak, 3u);
}

TEST(ServerEndToEndTest, BadSpecsAndMissingResumeCheckpointsAreBadJobs) {
  ServerConfig config = test_config("badjob");
  config.max_running = 0;
  ServerFixture fixture(config);
  RawConn conn(fixture, "alice");
  JobSpec bad = small_spec();
  bad.grid_size = 300;
  EXPECT_EQ(conn.submit_expect_rejection(bad).reason, RejectReason::kBadJob);
  JobSpec resume = small_spec();
  resume.resume_job = 424242;
  const RejectedMsg rejection = conn.submit_expect_rejection(resume);
  EXPECT_EQ(rejection.reason, RejectReason::kBadJob);
  EXPECT_NE(rejection.message.find("no checkpoint"), std::string::npos);
  EXPECT_EQ(fixture.stop(), 0);
}

TEST(ServerEndToEndTest, CancelWhileQueuedReportsCancelled) {
  ServerConfig config = test_config("cancelqueued");
  config.max_running = 0;
  ServerFixture fixture(config);
  RawConn conn(fixture, "alice");
  const std::uint64_t job = conn.submit(small_spec());
  write_message(conn.fd(), MsgType::kCancel, encode_cancel(CancelMsg{job}));
  const JobFailedMsg failed = conn.read_until_failed();
  EXPECT_EQ(failed.job, job);
  EXPECT_EQ(failed.state, JobState::kCancelled);
  EXPECT_EQ(fixture.stop(), 0);
  EXPECT_EQ(fixture.snapshot_counters().jobs_cancelled, 1u);
}

TEST(ServerEndToEndTest, DeadlineFiresWhileJobIsQueuedButNotStarted) {
  // Satellite of the CancelToken edge-case suite: the per-job token is
  // created at ADMISSION, so a deadline can expire before the job ever
  // runs — it must surface as a reported cancellation, not a hang.
  ServerConfig config = test_config("queueddeadline");
  config.max_running = 0;
  ServerFixture fixture(config);
  RawConn conn(fixture, "alice");
  JobSpec spec = small_spec();
  spec.deadline_ms = 100;
  const std::uint64_t job = conn.submit(spec);
  const JobFailedMsg failed = conn.read_until_failed();
  EXPECT_EQ(failed.job, job);
  EXPECT_EQ(failed.state, JobState::kCancelled);
  EXPECT_NE(failed.message.find("while queued"), std::string::npos);
  EXPECT_EQ(fixture.stop(), 0);
  EXPECT_EQ(fixture.snapshot_counters().jobs_cancelled, 1u);
}

// --- end-to-end: disconnects and drain --------------------------------------

TEST(ServerEndToEndTest, MidJobDisconnectCancelsAndAccountsTheJob) {
  ServerConfig config = test_config("disconnect");
  ServerFixture fixture(config);
  {
    RawConn conn(fixture, "carol");
    JobSpec spec = small_spec();
    spec.nr_cycles = 8;  // long enough that the cancel always lands
    conn.submit(spec);
    conn.read_until_status("started");
    // Hard client death mid-job: the catalogued disconnect edge.
  }
  fixture.wait_for_counters([](const obs::ServerCounters& c) {
    return c.jobs_cancelled + c.jobs_completed >= 1;
  });
  EXPECT_EQ(fixture.stop(), 0);
  const obs::ServerCounters counters = fixture.snapshot_counters();
  EXPECT_EQ(counters.jobs_admitted, 1u);
  EXPECT_EQ(counters.jobs_cancelled, 1u) << "job finished before the "
                                            "disconnect-cancel landed";
}

TEST(ServerEndToEndTest, DrainCheckpointsRunningJobAndResumesByteIdentically) {
  const std::string dir = temp_path("idg_server_drainckpt");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  JobSpec spec = small_spec();
  spec.nr_cycles = 3;
  spec.checkpoint = 1;

  std::uint64_t job = 0;
  {
    ServerConfig config = test_config("drain");
    config.checkpoint_dir = dir;
    ServerFixture fixture(config);
    RawConn conn(fixture, "bob");
    job = conn.submit(spec);
    conn.read_until_status("cycle 1 done");
    fixture.server().request_stop();
    const JobFailedMsg failed = conn.read_until_failed();
    EXPECT_EQ(failed.state, JobState::kCheckpointed);
    EXPECT_EQ(failed.checkpoint_job, job);
    conn.close();
    EXPECT_EQ(fixture.stop(), 0);
    const obs::ServerCounters counters = fixture.snapshot_counters();
    EXPECT_EQ(counters.jobs_checkpointed, 1u);
    EXPECT_EQ(counters.drained, 1u);
  }

  // A fresh server resumes the drained checkpoint; the result must be
  // byte-identical to an uninterrupted single-shot run.
  {
    ServerConfig config = test_config("resume");
    config.checkpoint_dir = dir;
    ServerFixture fixture(config);
    Client client(client_options(fixture, "bob"));
    client.connect();
    JobSpec resume = spec;
    resume.resume_job = job;
    const SubmitOutcome outcome = client.submit(resume);
    ASSERT_EQ(outcome.state, JobState::kCompleted);
    JobSpec uninterrupted = spec;
    uninterrupted.checkpoint = 0;
    const clean::MajorCycleResult direct = run_imaging_job(uninterrupted, {});
    EXPECT_EQ(std::memcmp(outcome.result->model_image.data(),
                          direct.model_image.data(),
                          direct.model_image.bytes()),
              0);
    EXPECT_EQ(std::memcmp(outcome.result->residual_image.data(),
                          direct.residual_image.data(),
                          direct.residual_image.bytes()),
              0);
    client.close();
    EXPECT_EQ(fixture.stop(), 0);
  }
}

TEST(ServerEndToEndTest, ClientSeesDrainingRejectionsAfterStop) {
  ServerConfig config = test_config("drainreject");
  config.max_running = 0;
  ServerFixture fixture(config);
  RawConn conn(fixture, "alice");
  conn.submit(small_spec());
  fixture.server().request_stop();
  // The already-queued job is failed by name...
  const JobFailedMsg failed = conn.read_until_failed();
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.message.find("draining"), std::string::npos);
  EXPECT_EQ(fixture.stop(), 0);
}

// --- fault injection --------------------------------------------------------

struct DisarmGuard {
  DisarmGuard() { fault::Injector::instance().disarm_all(); }
  ~DisarmGuard() { fault::Injector::instance().disarm_all(); }
};

#define SKIP_WITHOUT_INJECTION()                              \
  if (!fault::compiled_in()) {                                \
    GTEST_SKIP() << "build without -DIDG_FAULT_INJECTION=ON"; \
  }                                                           \
  DisarmGuard disarm_guard

TEST(ServerFaultTest, InjectedAdmissionFaultIsANamedRejection) {
  SKIP_WITHOUT_INJECTION();
  ServerConfig config = test_config("admitfault");
  config.max_running = 0;
  ServerFixture fixture(config);
  fault::Injector::instance().arm_from_spec("server.admit=throw:1");
  RawConn conn(fixture, "alice");
  const RejectedMsg rejection = conn.submit_expect_rejection(small_spec());
  EXPECT_EQ(rejection.reason, RejectReason::kBadJob);
  EXPECT_NE(rejection.message.find("server.admit"), std::string::npos);
  // The transient arm is spent: the next submit is admitted.
  conn.submit(small_spec());
  EXPECT_EQ(fixture.stop(), 0);
  const obs::ServerCounters counters = fixture.snapshot_counters();
  EXPECT_EQ(counters.jobs_rejected, 1u);
  EXPECT_EQ(counters.jobs_admitted, 1u);
}

TEST(ServerFaultTest, InjectedAcceptFaultIsCountedAndNonFatal) {
  SKIP_WITHOUT_INJECTION();
  ServerConfig config = test_config("acceptfault");
  config.max_running = 0;
  ServerFixture fixture(config);
  fault::Injector::instance().arm_from_spec("server.accept=throw:1");
  {
    // First connection: the server drops it before the hello exchange.
    Client client(client_options(fixture, "alice"));
    EXPECT_THROW(client.connect(), WireError);
  }
  // The server survives and keeps accepting.
  Client client(client_options(fixture, "alice"));
  client.connect();
  client.close();
  EXPECT_EQ(fixture.stop(), 0);
  EXPECT_EQ(fixture.snapshot_counters().accept_failures, 1u);
}

TEST(ServerFaultTest, InjectedProtocolFaultTakesTheDisconnectPath) {
  SKIP_WITHOUT_INJECTION();
  ServerConfig config = test_config("protofault");
  config.max_running = 0;
  ServerFixture fixture(config);
  RawConn conn(fixture, "alice");
  const std::uint64_t job = conn.submit(small_spec());
  EXPECT_GT(job, 0u);
  // Every server-side read now fails once: the next frame from this client
  // is treated as a disconnect, cancelling its queued job.
  fault::Injector::instance().arm_from_spec("server.protocol.read=throw:1");
  write_message(conn.fd(), MsgType::kCancel, encode_cancel(CancelMsg{job}));
  fixture.wait_for_counters([](const obs::ServerCounters& c) {
    return c.jobs_cancelled >= 1;
  });
  EXPECT_EQ(fixture.stop(), 0);
  EXPECT_EQ(fixture.snapshot_counters().jobs_cancelled, 1u);
}

TEST(ServerFaultTest, DrainDeadlineFaultSiteDoesNotBreakTheDrain) {
  SKIP_WITHOUT_INJECTION();
  ServerConfig config = test_config("drainfault");
  config.drain_deadline_ms = 1;  // force the deadline edge immediately
  ServerFixture fixture(config);
  fault::Injector::instance().arm_from_spec("server.drain.deadline=throw:1");
  RawConn conn(fixture, "alice");
  JobSpec spec = small_spec();
  spec.nr_cycles = 8;
  conn.submit(spec);
  conn.read_until_status("started");
  fixture.server().request_stop();
  const JobFailedMsg failed = conn.read_until_failed();
  EXPECT_EQ(failed.state, JobState::kCancelled);
  conn.close();
  EXPECT_EQ(fixture.stop(), 0) << "drain must exit 0 even when the "
                                  "deadline fault site fires";
  const obs::ServerCounters counters = fixture.snapshot_counters();
  EXPECT_EQ(counters.drain_timeouts, 1u);
  EXPECT_EQ(counters.jobs_cancelled, 1u);
}

}  // namespace
}  // namespace idg::server
