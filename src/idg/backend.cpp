#include "idg/backend.hpp"

#include <sstream>

#include "common/error.hpp"
#include "idg/pipelined.hpp"
#include "idg/processor.hpp"
#include "idg/supervisor.hpp"

namespace idg {

std::vector<std::string> backend_names() {
  return {"synchronous", "pipelined", "resilient"};
}

namespace {
/// Canonical executor name for a spelling; nullopt for unknown ones.
std::optional<std::string> canonical_executor(const std::string& name) {
  if (name == "synchronous" || name == "sync" || name == "processor")
    return "synchronous";
  if (name == "pipelined" || name == "async") return "pipelined";
  if (name == "resilient") return "resilient";
  return std::nullopt;
}

[[noreturn]] void throw_unknown_backend(const std::string& name) {
  std::ostringstream oss;
  oss << "unknown gridder backend '" << name << "'; valid backends:";
  for (const auto& known : backend_names()) oss << " '" << known << "'";
  throw Error(oss.str());
}

}  // namespace

BackendOptions parse_backend_spec(const std::string& spec) {
  BackendOptions options;
  // "resilient:<inner>" wraps a specific inner backend
  // ("resilient:synchronous" then has no distinct fallback left, so it
  // runs with retry/quarantine only).
  if (spec.rfind("resilient:", 0) == 0) {
    const std::string inner = spec.substr(sizeof("resilient:") - 1);
    const auto canonical = canonical_executor(inner);
    if (!canonical || *canonical == "resilient") {
      IDG_CHECK(canonical.has_value(),
                "unknown inner backend in '" << spec << "'");
      throw Error("cannot nest resilient backends ('" + spec + "')");
    }
    options.executor = "resilient";
    options.inner = *canonical;
    return options;
  }
  const auto canonical = canonical_executor(spec);
  if (!canonical) throw_unknown_backend(spec);
  options.executor = *canonical;
  return options;
}

std::unique_ptr<GridderBackend> make_backend(const BackendOptions& options,
                                             const Parameters& params) {
  const KernelSet& kernels =
      options.kernels != nullptr ? *options.kernels : reference_kernels();
  check_accumulation(kernels, params);
  const auto executor = canonical_executor(options.executor);
  if (!executor) throw_unknown_backend(options.executor);

  // Supervisor knobs on a plain executor mean "wrap it" (the benches'
  // --retries convention); the resilient executor uses them directly.
  if (*executor != "resilient") {
    std::unique_ptr<GridderBackend> backend;
    if (*executor == "synchronous") {
      backend = std::make_unique<Processor>(params, kernels);
    } else {
      backend = std::make_unique<PipelinedProcessor>(params, kernels);
    }
    if (!options.supervisor.has_value()) return backend;
    std::unique_ptr<GridderBackend> fallback;
    if (backend->name() != "synchronous")
      fallback = std::make_unique<Processor>(params, kernels);
    return make_resilient_backend(std::move(backend), std::move(fallback),
                                  *options.supervisor);
  }

  // "resilient" wraps the inner executor (default: pipelined) with the
  // synchronous executor as the failover target.
  const std::string inner = options.inner.empty() ? "pipelined" : options.inner;
  const auto canonical_inner = canonical_executor(inner);
  IDG_CHECK(canonical_inner.has_value() && *canonical_inner != "resilient",
            "cannot nest resilient backends ('" << inner << "')");
  BackendOptions inner_options;
  inner_options.executor = *canonical_inner;
  inner_options.kernels = &kernels;
  auto primary = make_backend(inner_options, params);
  std::unique_ptr<GridderBackend> fallback;
  if (primary->name() != "synchronous") {
    fallback = std::make_unique<Processor>(params, kernels);
  }
  return make_resilient_backend(
      std::move(primary), std::move(fallback),
      options.supervisor.value_or(SupervisorConfig{}));
}

std::unique_ptr<GridderBackend> make_backend(const std::string& name,
                                             const Parameters& params,
                                             const KernelSet& kernels) {
  BackendOptions options = parse_backend_spec(name);
  options.kernels = &kernels;
  return make_backend(options, params);
}

}  // namespace idg
