#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "tests/json_mini.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void set_tail_latency(std::vector<double> latencies, WorkloadResult& result) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t n = latencies.size();
  // Rank k (0-based) leaves n - 1 - k samples above it.
  const std::size_t k = n >= 11 ? n - 11 : (n - 1) / 2;
  result.set("job_tail_s", latencies[k], "s");
  std::ostringstream what;
  what << "p" << 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)
       << " of " << n << " jobs, " << n - 1 - k << " beyond";
  result.context["job_tail"] = what.str();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Tracer -------------------------------------------------------------------

namespace {
thread_local Tracer::Scope* current_scope = nullptr;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name) {
  if (tracer_ == nullptr) return;
  parent_ = current_scope;
  current_scope = this;
  begin_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const double dur = std::chrono::duration<double>(end - begin_).count();
  current_scope = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += dur;
  tracer_->finish(name_, begin_, end, dur - child_seconds_);
}

void Tracer::add(const char* name, Clock::time_point begin,
                 Clock::time_point end) {
  if (!enabled_) return;
  finish(name, begin, end, std::chrono::duration<double>(end - begin).count());
}

void Tracer::finish(const char* name, Clock::time_point begin,
                    Clock::time_point end, double self_seconds) {
  {
    std::lock_guard lock(mutex_);
    Totals& t = totals_[name];
    t.self_seconds += self_seconds;
    t.count += 1;
  }
  if (idg::obs::TraceSink* sink = idg::obs::global_trace()) {
    // Map the steady-clock interval onto the sink's own epoch.
    const std::int64_t end_ns =
        sink->now_ns() -
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - end)
            .count();
    const std::int64_t dur_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count();
    sink->record_span(sink->intern(std::string(kSpanPrefix) + name),
                      end_ns - dur_ns, dur_ns);
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  return totals_;
}

double Tracer::total_self_seconds() const {
  std::lock_guard lock(mutex_);
  double sum = 0.0;
  for (const auto& [_, t] : totals_) sum += t.self_seconds;
  return sum;
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  totals_.clear();
}

// --- TimedBackend -------------------------------------------------------------

void TimedBackend::grid(const idg::Plan& plan,
                        idg::ArrayView<const idg::UVW, 2> uvw,
                        idg::ArrayView<const idg::Visibility, 3> visibilities,
                        idg::FlagView flags,
                        idg::ArrayView<const idg::Jones, 4> aterms,
                        idg::ArrayView<idg::cfloat, 3> grid,
                        idg::obs::MetricsSink& sink,
                        const idg::RunControl& ctl) const {
  Interval call;
  {
    Tracer::Scope span(tracer_, "exec.grid");
    call.begin = Clock::now();
    inner_->grid(plan, uvw, visibilities, flags, aterms, grid, sink, ctl);
    call.end = Clock::now();
  }
  const double seconds =
      std::chrono::duration<double>(call.end - call.begin).count();
  log_->grid_calls.push_back(call);
  log_->grid_seconds.push_back(seconds);
  log_->grid_mvis_s.push_back(
      static_cast<double>(plan.nr_planned_visibilities()) / seconds / 1e6);
  if (check_) {
    check_(CallKind::kGrid, grid_calls_, grid.data(),
           grid.size() * sizeof(idg::cfloat));
  }
  ++grid_calls_;
}

void TimedBackend::degrid(const idg::Plan& plan,
                          idg::ArrayView<const idg::UVW, 2> uvw,
                          idg::ArrayView<const idg::cfloat, 3> grid,
                          idg::FlagView flags,
                          idg::ArrayView<const idg::Jones, 4> aterms,
                          idg::ArrayView<idg::Visibility, 3> visibilities,
                          idg::obs::MetricsSink& sink,
                          const idg::RunControl& ctl) const {
  Interval call;
  {
    Tracer::Scope span(tracer_, "exec.degrid");
    call.begin = Clock::now();
    inner_->degrid(plan, uvw, grid, flags, aterms, visibilities, sink, ctl);
    call.end = Clock::now();
  }
  const double seconds =
      std::chrono::duration<double>(call.end - call.begin).count();
  log_->degrid_calls.push_back(call);
  log_->degrid_seconds.push_back(seconds);
  log_->degrid_mvis_s.push_back(
      static_cast<double>(plan.nr_planned_visibilities()) / seconds / 1e6);
  if (check_) {
    check_(CallKind::kDegrid, degrid_calls_, visibilities.data(),
           visibilities.size() * sizeof(idg::Visibility));
  }
  ++degrid_calls_;
}

// --- trace validation ---------------------------------------------------------

void check_chrome_trace(const std::string& path, WorkloadResult& result) {
  try {
    std::ifstream in(path, std::ios::binary);
    IDG_CHECK(in, "cannot read trace file '" << path << "'");
    std::ostringstream text;
    text << in.rdbuf();
    const idg::testjson::Value doc = idg::testjson::parse(text.str());
    const idg::testjson::Value& events = doc.at("traceEvents");
    IDG_CHECK(events.is_array(), "traceEvents is not an array");
    std::size_t ours = 0;
    const std::string prefix = kSpanPrefix;
    for (const idg::testjson::Value& ev : events.array) {
      if (ev.has("name") && ev.at("name").string.rfind(prefix, 0) == 0) ++ours;
    }
    IDG_CHECK(ours > 0, "no benchmark spans");
    result.context["trace_file"] =
        path + " (" + std::to_string(ours) + " benchmark spans)";
  } catch (const std::exception& e) {
    result.problem("trace '" + path + "': " + e.what());
  }
}

}  // namespace perfbench
