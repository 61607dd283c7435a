#include "kernels/autotune.hpp"

#include <sys/utsname.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "idg/taper.hpp"
#include "kernels/jit.hpp"
#include "kernels/optimized.hpp"

namespace idg::kernels {

const char* to_string(TuneOp op) {
  return op == TuneOp::kGrid ? "grid" : "degrid";
}

namespace {

std::optional<TuneOp> tune_op_from_string(const std::string& s) {
  if (s == "grid") return TuneOp::kGrid;
  if (s == "degrid") return TuneOp::kDegrid;
  return std::nullopt;
}

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::string model = line.substr(colon + 1);
      // Collapse whitespace so the fingerprint is a single clean token
      // sequence.
      std::string out;
      bool space = true;
      for (char ch : model) {
        if (ch == ' ' || ch == '\t') {
          if (!space && !out.empty()) out += ' ';
          space = true;
        } else {
          out += ch;
          space = false;
        }
      }
      while (!out.empty() && out.back() == ' ') out.pop_back();
      return out;
    }
  }
  return "unknown-cpu";
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for the idg-tune/v2 schema. Strict: anything the
// writer below would not produce — truncation, stray bytes, wrong types —
// is a named parse error.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kString, kNumber, kArray, kObject } kind = Kind::kString;
  std::string string;
  double number = 0.0;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue& at(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v;
    }
    throw Error("tuning database: missing key '" + key + "'");
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("tuning database: truncated or corrupt JSON: " + what +
                " (offset " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    return parse_number();
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        if (e == '"' || e == '\\' || e == '/') v.string += e;
        else if (e == 'n') v.string += '\n';
        else if (e == 't') v.string += '\t';
        else fail("unsupported escape sequence");
      } else {
        v.string += c;
      }
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      std::size_t used = 0;
      v.number = std::stod(text_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) fail("malformed number");
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(key.string, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string format_double(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

const std::string& require_string(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kString)
    throw Error(std::string("tuning database: '") + what +
                "' must be a string");
  return v.string;
}

double require_number(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kNumber)
    throw Error(std::string("tuning database: '") + what +
                "' must be a number");
  return v.number;
}

}  // namespace

std::string host_fingerprint() {
  static const std::string fp = [] {
    struct ::utsname uts{};
    std::string sys = "unknown", machine = "unknown";
    if (::uname(&uts) == 0) {
      sys = uts.sysname;
      machine = uts.machine;
    }
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    return sys + "|" + machine + "|" + cpu_model_name() + "|t" +
           std::to_string(threads);
  }();
  return fp;
}

TuningDatabase::TuningDatabase() : host_(host_fingerprint()) {}
TuningDatabase::TuningDatabase(std::string host) : host_(std::move(host)) {}

TuningDatabase TuningDatabase::load(const std::string& path) {
  return load(path, host_fingerprint());
}

TuningDatabase TuningDatabase::load(const std::string& path,
                                    const std::string& expected_host) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    throw Error("tuning database: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const JsonValue root = JsonParser(text).parse();
  if (root.kind != JsonValue::Kind::kObject)
    throw Error("tuning database: top-level value must be an object");
  const std::string& schema = require_string(root.at("schema"), "schema");
  if (schema != kSchema)
    throw Error("tuning database: schema mismatch: expected '" +
                std::string(kSchema) + "', got '" + schema + "' in '" + path +
                "'");
  const std::string& host = require_string(root.at("host"), "host");
  if (host != expected_host)
    throw Error("tuning database: host mismatch: '" + path +
                "' was tuned for '" + host + "' but this host is '" +
                expected_host + "'; re-run the autotuner");

  TuningDatabase db(host);
  const JsonValue& entries = root.at("entries");
  if (entries.kind != JsonValue::Kind::kArray)
    throw Error("tuning database: 'entries' must be an array");
  for (const JsonValue& e : entries.array) {
    if (e.kind != JsonValue::Kind::kObject)
      throw Error("tuning database: entry must be an object");
    TuneEntry entry;
    const std::string& op = require_string(e.at("op"), "op");
    const auto parsed_op = tune_op_from_string(op);
    if (!parsed_op)
      throw Error("tuning database: unknown op '" + op +
                  "' (expected grid | degrid)");
    entry.op = *parsed_op;
    entry.shape.subgrid_size = static_cast<std::size_t>(
        require_number(e.at("subgrid_size"), "subgrid_size"));
    entry.shape.nr_channels = static_cast<std::size_t>(
        require_number(e.at("nr_channels"), "nr_channels"));
    entry.shape.nr_stations =
        static_cast<int>(require_number(e.at("nr_stations"), "nr_stations"));
    entry.kernel_set = require_string(e.at("kernel_set"), "kernel_set");
    entry.seconds = require_number(e.at("seconds"), "seconds");
    entry.baseline_seconds =
        require_number(e.at("baseline_seconds"), "baseline_seconds");
    db.put(entry);
  }
  return db;
}

void TuningDatabase::save(const std::string& path) const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"host\": \""
      << json_escape(host_) << "\",\n  \"entries\": [";
  bool first = true;
  for (const auto& [key, e] : entries_) {
    out << (first ? "" : ",") << "\n    {\"op\": \"" << to_string(e.op)
        << "\", \"subgrid_size\": " << e.shape.subgrid_size
        << ", \"nr_channels\": " << e.shape.nr_channels
        << ", \"nr_stations\": " << e.shape.nr_stations
        << ", \"kernel_set\": \"" << json_escape(e.kernel_set)
        << "\", \"seconds\": " << format_double(e.seconds)
        << ", \"baseline_seconds\": " << format_double(e.baseline_seconds)
        << "}";
    first = false;
  }
  out << "\n  ]\n}\n";

  // Atomic commit: write the whole document to a sibling temp file, then
  // rename over the destination (same pattern as common/checkpoint).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    IDG_CHECK(f.good(), "tuning database: cannot write '" << tmp << "'");
    f << out.str();
    f.flush();
    IDG_CHECK(f.good(), "tuning database: write to '" << tmp << "' failed");
  }
  IDG_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "tuning database: cannot rename '" << tmp << "' to '" << path
                                               << "'");
}

const TuneEntry* TuningDatabase::find(TuneOp op,
                                      const TuneShape& shape) const {
  const auto it = entries_.find({static_cast<int>(op), shape});
  return it == entries_.end() ? nullptr : &it->second;
}

void TuningDatabase::put(const TuneEntry& entry) {
  entries_[{static_cast<int>(entry.op), entry.shape}] = entry;
}

std::vector<TuneEntry> TuningDatabase::entries() const {
  std::vector<TuneEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(e);
  return out;
}

std::string default_tuning_database_path() {
  if (const char* env = std::getenv("IDG_TUNE_DB")) return env;
  std::string base;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
    base = xdg;
  } else if (const char* home = std::getenv("HOME")) {
    base = std::string(home) + "/.cache";
  } else {
    base = "/tmp";
  }
  const std::string dir = base + "/idg";
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return "/tmp/idg-tune.json";
  return dir + "/tune.json";
}

// ---------------------------------------------------------------------------
// Synthetic benchmark workload
// ---------------------------------------------------------------------------

namespace {

/// A deterministic single-subgrid-shape workload: nr_items identical-shape
/// work items with random uvw and visibilities, identity A-terms and the
/// PSWF taper. The shape (subgrid_size, nr_channels, nr_stations) is
/// exactly the tuning key; everything else only scales run time.
struct Workload {
  Parameters params;
  Array2D<UVW> uvw;
  std::vector<float> wavenumbers;
  Array4D<Jones> aterms;
  Array2D<float> taper;
  std::vector<WorkItem> items;
  Array3D<Visibility> visibilities;
  Array4D<cfloat> subgrids;

  KernelData data() const {
    return {uvw.cview(), wavenumbers, aterms.cview(), taper.cview()};
  }
};

Workload make_workload(const Parameters& params, std::size_t nr_channels,
                       const AutotuneOptions& options) {
  Workload w;
  w.params = params;
  const std::size_t n = params.subgrid_size;
  const std::size_t nr_items =
      static_cast<std::size_t>(std::max(1, options.nr_items));
  const std::size_t nt =
      static_cast<std::size_t>(std::max(1, options.nr_timesteps));

  std::mt19937_64 rng(options.seed);
  const auto uniform = [&rng](float lo, float hi) {
    // Hand-rolled scaling: std distributions are not bit-stable across
    // standard libraries, the raw engine is.
    const double u01 =
        static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    return lo + static_cast<float>(u01 * (hi - lo));
  };

  w.uvw = Array2D<UVW>(nr_items, nt);
  for (std::size_t b = 0; b < nr_items; ++b) {
    for (std::size_t t = 0; t < nt; ++t) {
      w.uvw(b, t) = {uniform(-500.f, 500.f), uniform(-500.f, 500.f),
                     uniform(-20.f, 20.f)};
    }
  }

  w.wavenumbers.resize(nr_channels);
  for (std::size_t c = 0; c < nr_channels; ++c) {
    const double freq = 100e6 + 1e6 * static_cast<double>(c);
    w.wavenumbers[c] = static_cast<float>(2.0 * M_PI * freq / kSpeedOfLight);
  }

  const std::size_t nr_stations =
      static_cast<std::size_t>(std::max(2, params.nr_stations));
  w.aterms = Array4D<Jones>(1, nr_stations, n, n);
  for (std::size_t st = 0; st < nr_stations; ++st)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        w.aterms(0, st, y, x) = Jones::identity();

  w.taper = make_taper(n);

  w.items.resize(nr_items);
  for (std::size_t i = 0; i < nr_items; ++i) {
    WorkItem& item = w.items[i];
    item.baseline = static_cast<int>(i);
    item.station1 = static_cast<int>(i % nr_stations);
    item.station2 = static_cast<int>((i + 1) % nr_stations);
    item.time_begin = 0;
    item.nr_timesteps = static_cast<int>(nt);
    item.channel_begin = 0;
    item.nr_channels = static_cast<int>(nr_channels);
    item.aterm_slot = 0;
    item.coord_x = static_cast<int>((params.grid_size - n) / 2 + (i % 5));
    item.coord_y = static_cast<int>((params.grid_size - n) / 2 + (i % 7));
    item.order = static_cast<std::uint32_t>(i);
  }

  w.visibilities = Array3D<Visibility>(nr_items, nt, nr_channels);
  for (std::size_t b = 0; b < nr_items; ++b)
    for (std::size_t t = 0; t < nt; ++t)
      for (std::size_t c = 0; c < nr_channels; ++c)
        w.visibilities(b, t, c) = {{uniform(-1.f, 1.f), uniform(-1.f, 1.f)},
                                   {uniform(-1.f, 1.f), uniform(-1.f, 1.f)},
                                   {uniform(-1.f, 1.f), uniform(-1.f, 1.f)},
                                   {uniform(-1.f, 1.f), uniform(-1.f, 1.f)}};

  w.subgrids = Array4D<cfloat>(nr_items, 4, n, n);
  return w;
}

double time_candidate(const KernelSet& kernels, TuneOp op, Workload& w,
                      const AutotuneOptions& options) {
  const KernelData data = w.data();
  const auto run = [&] {
    if (op == TuneOp::kGrid) {
      kernels.grid(w.params, data, w.items, w.visibilities.cview(),
                   w.subgrids.view());
    } else {
      kernels.degrid(w.params, data, w.items, w.subgrids.cview(),
                     w.visibilities.view());
    }
  };
  for (int i = 0; i < std::max(0, options.warmup); ++i) run();
  double best = 0.0;
  for (int i = 0; i < std::max(1, options.repeats); ++i) {
    Timer timer;
    run();
    const double s = timer.seconds();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

std::vector<std::string> default_tune_candidates() {
  std::vector<std::string> names = {"optimized", "optimized-lut"};
  if (jit_available()) names.push_back("jit");
  return names;
}

AutotuneResult autotune_op(const Parameters& params, std::size_t nr_channels,
                           TuneOp op, const AutotuneOptions& options) {
  std::vector<std::string> candidates = options.candidates.empty()
                                            ? default_tune_candidates()
                                            : options.candidates;
  // "optimized" is the recorded baseline and the fallback — always measure
  // it, even when the caller's candidate list omits it.
  if (std::find(candidates.begin(), candidates.end(), "optimized") ==
      candidates.end())
    candidates.insert(candidates.begin(), "optimized");

  Workload w = make_workload(params, nr_channels, options);
  // The degridder reads subgrids: fill them once with a gridder pass so the
  // timed runs see non-trivial pixel data.
  if (op == TuneOp::kDegrid) {
    optimized_kernels().grid(w.params, w.data(), w.items,
                             w.visibilities.cview(), w.subgrids.view());
  }

  AutotuneResult result;
  double baseline = 0.0;
  for (const std::string& name : candidates) {
    const KernelSet* kernels = nullptr;
    try {
      kernels = &kernel_set(name);
    } catch (const Error&) {
      continue;  // unknown candidate: skip, never fail the tuning run
    }
    if (name == "tuned") continue;  // would recurse through the dispatch
    const double seconds = time_candidate(*kernels, op, w, options);
    result.ranking.push_back({name, seconds});
    if (name == "optimized") baseline = seconds;
  }
  IDG_CHECK(!result.ranking.empty(), "autotune: no resolvable candidates");
  std::stable_sort(result.ranking.begin(), result.ranking.end(),
                   [](const CandidateTiming& a, const CandidateTiming& b) {
                     return a.seconds < b.seconds;
                   });

  result.entry.op = op;
  result.entry.shape = {params.subgrid_size, nr_channels, params.nr_stations};
  result.entry.kernel_set = result.ranking.front().kernel_set;
  result.entry.seconds = result.ranking.front().seconds;
  result.entry.baseline_seconds = baseline;
  return result;
}

std::vector<AutotuneResult> autotune(TuningDatabase& db,
                                     const Parameters& params,
                                     std::size_t nr_channels,
                                     const AutotuneOptions& options) {
  std::vector<AutotuneResult> results;
  for (const TuneOp op : {TuneOp::kGrid, TuneOp::kDegrid}) {
    results.push_back(autotune_op(params, nr_channels, op, options));
    db.put(results.back().entry);
  }
  return results;
}

// ---------------------------------------------------------------------------
// The "tuned" kernel set and the process-wide database
// ---------------------------------------------------------------------------

namespace {

std::mutex g_db_mutex;
TuningDatabase* g_db = nullptr;  // leaked singleton; guarded by g_db_mutex
// Cached (op, shape) -> winner resolutions; invalidated whenever the
// process database is replaced. Guarded by g_db_mutex.
std::map<std::pair<int, TuneShape>, const KernelSet*> g_resolve_cache;

TuningDatabase& locked_db() {
  if (g_db == nullptr) {
    g_db = new TuningDatabase();
    try {
      *g_db = TuningDatabase::load(default_tuning_database_path());
    } catch (const Error&) {
      // No database (or an unusable one): dispatch falls back to
      // "optimized". The autotuner writes a fresh file.
    }
  }
  return *g_db;
}

class TunedKernels final : public KernelSet {
 public:
  std::string name() const override { return "tuned"; }

  /// Double accumulation delegates to the reference kernels (resolve()).
  bool implements(Accumulation) const override { return true; }

  void grid(const Parameters& params, const KernelData& data,
            std::span<const WorkItem> items,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<cfloat, 4> subgrids) const override {
    resolve(params, data, TuneOp::kGrid)
        .grid(params, data, items, visibilities, subgrids);
  }

  void degrid(const Parameters& params, const KernelData& data,
              std::span<const WorkItem> items,
              ArrayView<const cfloat, 4> subgrids,
              ArrayView<Visibility, 3> visibilities) const override {
    resolve(params, data, TuneOp::kDegrid)
        .degrid(params, data, items, subgrids, visibilities);
  }

 private:
  /// Maps (op, shape) to the winning kernel set. The resolution is cached,
  /// so after the first call per shape the dispatch is one map lookup.
  const KernelSet& resolve(const Parameters& params, const KernelData& data,
                           TuneOp op) const {
    // The tuned family is single-precision; tiers that demand double
    // accumulation (standard/science) keep their proven kernel.
    if (params.accumulation == Accumulation::kDouble)
      return reference_kernels();

    const TuneShape shape{params.subgrid_size, data.wavenumbers.size(),
                          params.nr_stations};
    std::lock_guard lock(g_db_mutex);
    const auto key = std::make_pair(static_cast<int>(op), shape);
    const auto it = g_resolve_cache.find(key);
    if (it != g_resolve_cache.end()) return *it->second;

    const KernelSet* chosen = &optimized_kernels();
    if (const TuneEntry* entry = locked_db().find(op, shape)) {
      if (entry->kernel_set != "tuned") {
        try {
          chosen = &kernel_set(entry->kernel_set);
        } catch (const Error&) {
          // A database naming a kernel set this build does not have (one
          // recorded before a set was removed) falls back to "optimized".
        }
      }
    }
    g_resolve_cache.emplace(key, chosen);
    return *chosen;
  }
};

}  // namespace

const KernelSet& tuned_kernels() {
  static const TunedKernels kernels;
  return kernels;
}

const TuningDatabase& process_tuning_database() {
  std::lock_guard lock(g_db_mutex);
  return locked_db();
}

void set_process_tuning_database(TuningDatabase db) {
  std::lock_guard lock(g_db_mutex);
  locked_db() = std::move(db);
  g_resolve_cache.clear();
}

std::string reload_process_tuning_database(const std::string& path) {
  std::lock_guard lock(g_db_mutex);
  g_resolve_cache.clear();
  try {
    locked_db() = TuningDatabase::load(path);
    return "";
  } catch (const Error& e) {
    locked_db() = TuningDatabase();
    return e.what();
  }
}

}  // namespace idg::kernels
