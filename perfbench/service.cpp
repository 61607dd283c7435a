// The service workload: an in-process idg-server on a UNIX socket under
// the run directory, driven by a closed loop of client threads that each
// submit their next job after the previous one's terminal frame (one job
// per connection, like idg-client).
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "common/error.hpp"
#include "idg/processor.hpp"
#include "imaging.hpp"
#include "server/client.hpp"
#include "server/job.hpp"
#include "server/server.hpp"
#include "sim/predict.hpp"

namespace perfbench {

using namespace idg;

namespace {

constexpr int kClients = 3;

/// The four job shapes: small/medium, each without and with retries=2.
std::vector<server::JobSpec> job_shapes(bool tiny) {
  server::JobSpec small;
  small.nr_stations = tiny ? 6 : 8;
  small.nr_timesteps = tiny ? 16 : 24;
  small.nr_channels = 4;
  small.grid_size = 128;
  small.nr_cycles = 1;
  server::JobSpec medium = small;
  medium.nr_stations = tiny ? 8 : 12;
  medium.nr_timesteps = tiny ? 24 : 64;
  medium.grid_size = tiny ? 128 : 256;
  medium.nr_cycles = tiny ? 1 : 2;
  std::vector<server::JobSpec> shapes = {small, small, medium, medium};
  shapes[1].retries = 2;
  shapes[3].retries = 2;
  return shapes;
}

/// The job mix: small and medium alternate; within every block of four
/// jobs the seed picks which small and which medium job run with retries.
std::vector<int> job_mix(std::uint32_t seed, std::size_t length) {
  std::mt19937 rng(seed);
  std::vector<int> mix(length);
  for (std::size_t block = 0; block < length; block += 4) {
    const int small_retry = static_cast<int>(rng() % 2);
    const int medium_retry = static_cast<int>(rng() % 2);
    const int shapes[4] = {small_retry, 2 + medium_retry, 1 - small_retry,
                           3 - medium_retry};
    for (std::size_t i = 0; i < 4 && block + i < length; ++i)
      mix[block + i] = shapes[i];
  }
  return mix;
}

/// The library stages whose spans a job emits on its own thread. They do
/// not nest, so their spans add up to the job's time spent in them. The
/// supervisor's span of a job with retries encloses them and is left out.
constexpr const char* kJobStages[] = {
    stage::kScrub,    stage::kGridder,   stage::kSubgridFft, stage::kAdder,
    stage::kSplitter, stage::kDegridder, stage::kGridFft};

/// Visibilities the job's calls to `stage` processed, from its op counts.
double stage_visibilities(const obs::MetricsSnapshot& snapshot,
                          const char* stage) {
  const auto it = snapshot.find(stage);
  return it == snapshot.end()
             ? 0.0
             : static_cast<double>(it->second.ops.visibilities);
}

/// Seconds of library stage spans in the trace, over all threads. Events a
/// thread's ring buffer dropped are noted as a failure: the sum would be
/// short.
double job_stage_seconds(const obs::TraceSink& sink, WorkloadResult& result) {
  std::int64_t ns = 0;
  for (const obs::TraceSink::ThreadTrack& track : sink.collect()) {
    if (track.dropped != 0) {
      result.problem("trace track '" + track.name + "' dropped " +
                     std::to_string(track.dropped) + " events");
    }
    for (const obs::TraceEvent& ev : track.events) {
      if (ev.kind != obs::TraceEvent::Kind::kSpan) continue;
      for (const char* name : kJobStages) {
        if (std::strcmp(ev.name, name) == 0) ns += ev.dur_ns;
      }
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

/// What the reference pass learns about one shape.
struct ShapeInfo {
  JobOutputs reference;       ///< run_imaging_job's outputs
  double grid_vis = 0.0;      ///< visibilities gridded by one job
  double degrid_vis = 0.0;    ///< visibilities degridded by one job
  double direct_s = 0.0;      ///< wall time of a direct run_imaging_job
};

/// One client-observed job.
struct JobRecord {
  int shape = 0;
  bool completed = false;
  double latency = 0.0;
  double connect = 0.0;
  double wait = 0.0;    ///< connected -> "started" status
  double run = 0.0;     ///< "started" -> last "cycle N done" status
  double result = 0.0;  ///< last status -> result decoded
};

/// Submits one job and checks its result; failures go to `local`.
JobRecord submit_job(const std::string& socket, const std::string& tenant,
                     int shape, const server::JobSpec& spec,
                     const ShapeInfo& info, Tracer& tracer,
                     WorkloadResult& local) {
  JobRecord rec;
  rec.shape = shape;
  const std::uint64_t mark = local.problems;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point connected = t0;
  Clock::time_point started = t0;
  Clock::time_point last_status = t0;
  try {
    server::ClientOptions copts;
    copts.socket_path = socket;
    copts.tenant = tenant;
    server::Client client(copts);
    client.connect();
    connected = Clock::now();
    started = last_status = connected;
    server::SubmitOptions sopts;
    sopts.on_status = [&](const server::StatusMsg& status) {
      const Clock::time_point now = Clock::now();
      if (status.detail == "started") started = now;
      if (status.detail.rfind("cycle ", 0) == 0) last_status = now;
    };
    server::SubmitOutcome outcome = client.submit(spec, sopts);
    const Clock::time_point done = Clock::now();
    if (outcome.rejected) {
      local.problem("job rejected: " + outcome.rejection.message);
    } else if (outcome.state != server::JobState::kCompleted || !outcome.result) {
      local.problem(std::string("job ended ") + server::to_string(outcome.state) +
                    ": " + outcome.message);
    } else {
      server::ResultMsg& msg = *outcome.result;
      JobOutputs got;
      got.peak_history = std::move(msg.peak_history);
      got.total_components = static_cast<int>(msg.total_components);
      got.model_image = std::move(msg.model_image);
      got.residual_image = std::move(msg.residual_image);
      compare_job(info.reference, got, local,
                  "service job (shape " + std::to_string(shape) + ")");
      rec.completed = true;
    }
    rec.latency = std::chrono::duration<double>(done - t0).count();
    rec.connect = std::chrono::duration<double>(connected - t0).count();
    rec.wait = std::chrono::duration<double>(started - connected).count();
    rec.run = std::chrono::duration<double>(last_status - started).count();
    rec.result = std::chrono::duration<double>(done - last_status).count();
    tracer.add("server.connect", t0, connected);
    tracer.add("server.queue_wait", connected, started);
    tracer.add("server.result", last_status, done);
  } catch (const std::exception& e) {
    local.problem(std::string("service job failed: ") + e.what());
  }
  if (local.problems != mark) rec.completed = false;
  local.count(mark);
  return rec;
}

/// A running daemon on its own thread; stops and joins on destruction.
class DaemonUnderTest {
 public:
  explicit DaemonUnderTest(const std::string& socket) {
    server::ServerConfig config;
    config.socket_path = socket;
    config.max_running = 2;
    server_ = std::make_unique<server::Server>(config);
    thread_ = std::thread([this] {
      try {
        exit_code_ = server_->run();
      } catch (const std::exception& e) {
        error_ = e.what();
        exit_code_ = 2;
        failed_.store(true);
      }
    });
    const Clock::time_point t0 = Clock::now();
    while (::access(socket.c_str(), F_OK) != 0) {
      if (failed_.load() || seconds_since(t0) > 30.0) {
        stop();
        IDG_CHECK(false, "idg-server did not start on '" << socket
                                                         << "': " << error_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~DaemonUnderTest() { stop(); }
  DaemonUnderTest(const DaemonUnderTest&) = delete;
  DaemonUnderTest& operator=(const DaemonUnderTest&) = delete;

  /// Drains the server and joins its thread; returns run()'s exit code.
  int stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    return exit_code_;
  }
  obs::MetricsSnapshot metrics() const { return server_->metrics(); }

 private:
  std::unique_ptr<server::Server> server_;
  std::atomic<bool> failed_{false};
  std::string error_;
  int exit_code_ = 0;
  std::thread thread_;
};

}  // namespace

WorkloadResult run_service_workload(const RunOptions& options) {
  const std::vector<server::JobSpec> shapes = job_shapes(options.tiny);
  WorkloadResult r;
  r.context["sizes"] =
      "small 8 st/24 t/4 ch/grid 128/1 cycle, medium 12 st/64 t/4 ch/grid "
      "256/2 cycles, alternating, half with retries=2; max_running 2, " +
      std::to_string(kClients) + " closed-loop clients, 3 tenants";
  if (options.tiny) r.context["sizes"] = "tiny job shapes";

  // --- references: a direct run_imaging_job per shape. Its stage op counts
  // give the visibilities one job grids and degrids. The first of them is
  // the process's cold job.
  std::vector<ShapeInfo> info(shapes.size());
  double cold_rep_s = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    clean::MajorCycleResult reference =
        server::run_imaging_job(shapes[i], server::JobExecution{});
    if (i == 0) cold_rep_s = seconds_since(t0);
    info[i].grid_vis = stage_visibilities(reference.metrics, stage::kGridder);
    info[i].degrid_vis =
        stage_visibilities(reference.metrics, stage::kDegridder);
    info[i].reference = outputs_of(std::move(reference));
  }

  const std::string socket =
      std::string(kRunDir) + "/idg-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<DaemonUnderTest> daemon;
  std::vector<double> setup_s;
  Tracer tracer;

  // --- setup, repeated: server start plus one warm-up job per size --------
  const int setups = options.tiny ? 1 : 3;
  for (int k = 0; k < setups; ++k) {
    if (daemon && daemon->stop() != 0) r.problem("idg-server drain failed");
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<DaemonUnderTest>(socket);
    for (int shape : {0, 2})
      submit_job(socket, "warmup", shape, shapes[shape], info[shape], tracer, r);
    setup_s.push_back(seconds_since(t0));
  }
  // The peak while jobs run one at a time. Under the window's concurrent
  // jobs the peak depends on how allocations of the job threads happen to
  // interleave across malloc arenas and moves by a fifth from run to run.
  const double setup_rss_mb = peak_rss_mb();

  // --- traced-run extras, measured before the window ----------------------
  // Direct run_imaging_job calls, two per shape: their stage metrics are
  // the per-layer split of the daemon's job (the same function on the same
  // specs), and the fastest of each shape is its direct run time.
  obs::AggregateSink direct_stages;
  std::size_t direct_jobs = 0;
  if (options.trace) {
    double build_s = 0.0;
    for (int shape : {0, 2}) {
      const Clock::time_point t0 = Clock::now();
      const server::JobWorkload w = server::build_job_workload(shapes[shape]);
      build_s += seconds_since(t0) / 2.0;
    }
    r.set("sim.job_build_s", build_s, "s");
    for (ShapeInfo& s : info) s.direct_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < (options.tiny ? 1 : 2); ++rep) {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const clean::MajorCycleResult job =
            server::run_imaging_job(shapes[i], server::JobExecution{});
        info[i].direct_s = std::min(info[i].direct_s, seconds_since(t0));
        direct_stages.merge(job.metrics);
        ++direct_jobs;
      }
    }
  }

  // --- the timed window(s): untraced, then (traced run) traced --------------
  const std::vector<int> mix = job_mix(options.seed, 1 << 16);
  std::atomic<std::size_t> next_job{0};
  std::vector<JobRecord> records[2];
  double window_s[2] = {0.0, 0.0};
  std::unique_ptr<obs::TraceSession> session;
  std::string trace_path;
  double daemon_stage_s = 0.0;  // library stage spans of the traced jobs
  const int phases = options.trace ? 2 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    const bool traced = phase == 1;
    if (traced) {
      trace_path = std::string(kRunDir) + "/trace-service-" +
                   std::to_string(options.seed) + ".json";
      session = std::make_unique<obs::TraceSession>(trace_path);
      tracer.reset();
      tracer.enable(true);
    }
    const double budget = options.seconds / phases;
    std::vector<WorkloadResult> locals(kClients);
    std::vector<std::vector<JobRecord>> per_client(kClients);
    const Clock::time_point window = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::string tenant = "tenant" + std::to_string(c);
        while (seconds_since(window) < budget ||
               per_client[c].empty()) {
          const std::size_t j = next_job.fetch_add(1) % mix.size();
          const int shape = mix[j];
          per_client[c].push_back(submit_job(socket, tenant, shape,
                                             shapes[shape], info[shape],
                                             tracer, locals[c]));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    window_s[phase] = seconds_since(window);
    tracer.enable(false);
    if (traced) daemon_stage_s = job_stage_seconds(*session->sink(), r);
    for (int c = 0; c < kClients; ++c) {
      r.attempted += locals[c].attempted;
      r.failed += locals[c].failed;
      r.problems += locals[c].problems;
      for (const std::string& f : locals[c].failures)
        if (r.failures.size() < 8) r.failures.push_back(f);
      records[phase].insert(records[phase].end(), per_client[c].begin(),
                            per_client[c].end());
    }
  }
  session.reset();  // uninstalls the trace and writes it
  const obs::MetricsSnapshot server_metrics = daemon->metrics();
  if (daemon->stop() != 0) r.problem("idg-server drain failed");
  daemon.reset();

  const auto completed = [](const std::vector<JobRecord>& recs) {
    std::vector<JobRecord> out;
    for (const JobRecord& rec : recs)
      if (rec.completed) out.push_back(rec);
    return out;
  };
  const auto field = [](const std::vector<JobRecord>& recs,
                        double JobRecord::*member) {
    std::vector<double> out;
    for (const JobRecord& rec : recs) out.push_back(rec.*member);
    return out;
  };

  const std::vector<JobRecord> done = completed(records[0]);
  if (!options.trace) {
    double grid_vis = 0.0;
    double degrid_vis = 0.0;
    for (const JobRecord& rec : done) {
      grid_vis += info[rec.shape].grid_vis;
      degrid_vis += info[rec.shape].degrid_vis;
    }
    // Small and medium jobs alternate, so one median over both would sit
    // on the gap between the two modes; average the two sizes' medians.
    const auto p50 = [&](double JobRecord::*member) {
      std::vector<double> small, large;
      for (const JobRecord& rec : done)
        (rec.shape < 2 ? small : large).push_back(rec.*member);
      return 0.5 * (median(small) + median(large));
    };
    const std::vector<double> latency = field(done, &JobRecord::latency);
    r.set("setup_s", median(setup_s), "s");
    r.set("cycle_s", p50(&JobRecord::run), "s");
    r.set("grid_mvis_s", grid_vis / window_s[0] / 1e6, "MVis/s");
    r.set("degrid_mvis_s", degrid_vis / window_s[0] / 1e6, "MVis/s");
    r.set("jobs_per_s", static_cast<double>(done.size()) / window_s[0], "1/s");
    r.set("job_p50_s", p50(&JobRecord::latency), "s");
    set_tail_latency(latency, r);
    r.set("peak_rss_mb", setup_rss_mb, "MB");
    return r;
  }

  // --- per-layer metrics ----------------------------------------------------
  check_chrome_trace(trace_path, r);

  std::vector<JobRecord> all = done;
  const std::vector<JobRecord> traced_done = completed(records[1]);
  all.insert(all.end(), traced_done.begin(), traced_done.end());
  r.set("server.connect_s", median(field(all, &JobRecord::connect)), "s");
  r.set("server.queue_wait_p50_s", median(field(all, &JobRecord::wait)), "s");
  r.set("server.run_p50_s", median(field(all, &JobRecord::run)), "s");
  r.set("server.result_p50_s", median(field(all, &JobRecord::result)), "s");
  double direct_mean = 0.0;
  for (const ShapeInfo& s : info) direct_mean += s.direct_s / static_cast<double>(info.size());
  r.set("server.direct_job_s", direct_mean, "s");
  double latency_sum = 0.0;
  double direct_sum = 0.0;
  for (const JobRecord& rec : all) {
    latency_sum += rec.latency;
    direct_sum += info[rec.shape].direct_s;
  }
  r.set("server.overhead_frac",
        direct_sum > 0.0 ? latency_sum / direct_sum - 1.0 : 0.0, "ratio");
  const auto it = server_metrics.find("server");
  const obs::ServerCounters counters =
      it == server_metrics.end() ? obs::ServerCounters{} : it->second.server;
  r.set("server.queue_depth_peak", static_cast<double>(counters.queue_depth_peak),
        "count");
  r.set("server.rejected", static_cast<double>(counters.jobs_rejected), "count");

  // Coverage: the client-side phases outside the daemon's job run
  // (connect, queue wait, result) plus the library stage spans the job
  // threads emitted, over the client latency. The rest of the run phase
  // (job build, plan, CLEAN minor cycles, subtract) emits no spans.
  double traced_latency = 0.0;
  for (const JobRecord& rec : traced_done) traced_latency += rec.latency;
  const double self = tracer.total_self_seconds() + daemon_stage_s;
  r.set("obs.trace_overhead_frac",
        median(field(traced_done, &JobRecord::latency)) /
                median(field(done, &JobRecord::latency)) -
            1.0,
        "ratio");
  r.set("obs.coverage", traced_latency > 0.0 ? self / traced_latency : 0.0,
        "ratio");
  r.set("obs.unattributed_s",
        (traced_latency - self) /
            static_cast<double>(std::max<std::size_t>(traced_done.size(), 1)),
        "s");
  r.set("obs.cold_rep_s", cold_rep_s, "s");

  // The daemon's job by layer, from the direct runs of the same specs.
  // CLEAN's split needs the grid/degrid call boundaries, which a direct
  // run_imaging_job does not expose; clean.* other than the component
  // count stays 0 here (cycle-long measures it).
  LayerInputs layers;
  layers.snapshot = direct_stages.snapshot();
  layers.jobs = direct_jobs;
  for (const ShapeInfo& s : info) {
    layers.components += static_cast<double>(s.reference.total_components) /
                         static_cast<double>(info.size());
  }
  set_layer_metrics(layers, r);
  // The supervisor's price on the daemon's path: shapes 1 and 3 are shapes
  // 0 and 2 with retries=2.
  r.set("exec.resilient_overhead_frac",
        (info[1].direct_s + info[3].direct_s) /
                (info[0].direct_s + info[2].direct_s) -
            1.0,
        "ratio");

  const server::JobWorkload medium = server::build_job_workload(shapes[2]);
  const sim::Dataset& ds = medium.dataset;
  Clock::time_point t0 = Clock::now();
  sim::predict_visibilities(medium.sky, ds.uvw, ds.baselines, ds.obs);
  r.set("sim.predict_s", seconds_since(t0), "s");
  t0 = Clock::now();
  const Plan plan(medium.params, ds.uvw, ds.frequencies, ds.baselines);
  r.set("plan.build_s", seconds_since(t0), "s");
  set_plan_metrics(plan, r);
  r.set("wstack.planes", 1, "count");
  r.set("wstack.plane_mb",
        static_cast<double>(shapes[2].grid_size) * shapes[2].grid_size *
            sizeof(cfloat) * kNrPolarizations / 1e6,
        "MB");
  return r;
}

}  // namespace perfbench
