#pragma once
// One self-contained flow request and its deterministic rendering — the
// canonical unit shared by the CLI `flow` command and the sctuned daemon
// (DESIGN.md §14). Both paths build the FlowConfig through makeFlowConfig
// and render the result through runFlowJob, so a daemon response is
// byte-identical to the CLI's --report file for the same job by
// construction, not by convention.

#include <cstdint>
#include <optional>
#include <string>

#include "core/flow.hpp"
#include "tuning/methods.hpp"

namespace sct::core {

struct FlowJob {
  std::string profile = "full";  ///< "small" | "full" stage presets
  std::string workload = "mcu";  ///< subject design: mcu|dsp|noc|big
  double period = 0.0;           ///< clock period [ns]
  std::string method;  ///< tuning method name; empty = baseline synthesis
  double value = 0.0;  ///< tuning method parameter
  std::uint64_t mcCount = 0;     ///< MC library instances; 0 = profile default
  std::uint64_t mcSeed = 2014;   ///< paper's seed
  std::string lintMode = "error";  ///< "error" | "warn" | "off"
};

/// The method named in tuning::kMethodNames (strength-load, strength-slew,
/// cell-load, cell-slew, sigma-ceiling); throws std::runtime_error on
/// unknown names.
[[nodiscard]] tuning::TuningMethod tuningMethodByName(const std::string& name);

/// The job's tuning config (method at `value`); nullopt for a baseline job.
[[nodiscard]] std::optional<tuning::TuningConfig> tuningConfigOf(
    const FlowJob& job);

/// Flow configuration for a job: profile presets, MC count/seed, lint mode.
/// Cache wiring (cacheDir / shared tiers / memCacheBytes) is left at the
/// defaults for the caller to fill in — it never affects results.
[[nodiscard]] FlowConfig makeFlowConfig(const FlowJob& job);

struct FlowJobResult {
  bool success = false;
  std::string summary;  ///< the one-line human summary the CLI prints
  std::string report;   ///< deterministic "flow-report v1" text (%.17g)
};

/// Runs the job on an already-constructed flow and renders both outputs.
/// The report bytes depend only on the job inputs — never on cache state,
/// thread count, or observability settings.
[[nodiscard]] FlowJobResult runFlowJob(TuningFlow& flow, const FlowJob& job);

}  // namespace sct::core
