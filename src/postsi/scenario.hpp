#pragma once
// ScenarioRunner: the post-silicon experiment matrix (ISSUE: LUT-window
// tuning alone, + clock tuning, + buffer insertion) evaluated at the paper's
// clock periods, each (scenario, period) cell a cache-keyed flow stage —
// cold runs compute and publish through ArtifactStore/MemoryArtifactCache,
// warm runs (and the daemon) decode the same bytes, so the deterministic
// sigma/area/power/yield trade-off report is byte-identical across CLI,
// daemon, and cache temperature by construction.

#include <cstdint>
#include <string>
#include <vector>

#include "clocktree/clock_tree.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"

namespace sct::postsi {

/// Scenario identifiers, cumulative in paper order:
///   "tuning"  — LUT-window library tuning alone (the flow baseline)
///   "clock"   — + post-silicon clock tuning (tunable delay elements)
///   "buffers" — + sampling-based buffer insertion, then clock tuning
inline constexpr const char* kScenarioTuning = "tuning";
inline constexpr const char* kScenarioClock = "clock";
inline constexpr const char* kScenarioBuffers = "buffers";

struct ScenarioJob {
  core::FlowJob flow;  ///< profile/method/value/mc/lint (period ignored)
  std::vector<double> periods;  ///< explicit clock periods [ns]
  std::string scenarios = "tuning,clock,buffers";  ///< comma list, run order
  clocktree::TuningElementSpec element{0.0, 0.3, 0.05, 2.0};
  std::uint64_t mcTrials = 0;  ///< die instances; 0 = profile default
  std::uint64_t mcSeed = 2014;
};

/// The paper's four clock-period set as ratios of a base period
/// (2.41 / 2.5 / 4.0 / 10.0 ns in section VII, normalized to the 2.41 ns
/// minimum). Shared by the CLI and tests so both derive identical jobs.
[[nodiscard]] std::vector<double> paperPeriods(double base);

/// One (scenario, period) cell of the matrix.
struct ScenarioCell {
  std::string scenario;
  double period = 0.0;
  bool success = false;  ///< synthesis success at this period
  bool met = false;      ///< deterministic STA timing met
  double wns = 0.0;
  double area = 0.0;  ///< mapped area + tuning-element area [um^2]
  double designSigma = 0.0;
  double worstPathSigma = 0.0;
  double powerMean = 0.0;  ///< dynamic power totals (src/power) [uW]
  double powerSigma = 0.0;
  double yield = 0.0;  ///< MC design yield (fraction of passing dies)
  std::uint64_t buffers = 0;   ///< sampling-pass insertions accepted
  std::uint64_t elements = 0;  ///< tunable clock elements attached
  double tuningArea = 0.0;

  static constexpr const char* kSection = "scenario-cell";
  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("scenario", s.scenario);
    v("period", s.period);
    v("success", s.success);
    v("met", s.met);
    v("wns", s.wns);
    v("area", s.area);
    v("designSigma", s.designSigma);
    v("worstPathSigma", s.worstPathSigma);
    v("powerMean", s.powerMean);
    v("powerSigma", s.powerSigma);
    v("yield", s.yield);
    v("buffers", s.buffers);
    v("elements", s.elements);
    v("tuningArea", s.tuningArea);
  }
};

struct ScenarioRunResult {
  bool success = false;  ///< every cell synthesized successfully
  std::string summary;   ///< one-line human summary
  std::string report;    ///< deterministic "scenario-report v1" text (%.17g)
  std::string json;      ///< same matrix as a deterministic JSON array
  std::vector<ScenarioCell> cells;  ///< scenario-major, period-minor order
};

/// Cache key of one (scenario, period) cell (DESIGN.md §15); tuningConfig
/// is nullptr for the untuned baseline. It includes the lint mode, which
/// never changes a result: a cell hit skips every lint gate, so a cell
/// published under --lint-mode off must not serve an `error` run.
[[nodiscard]] artifact::Digest cellKey(const core::TuningFlow& flow,
                                       const tuning::TuningConfig* tuningConfig,
                                       const ScenarioJob& job,
                                       const std::string& scenario,
                                       double period, std::size_t trials);

/// Runs the matrix on an already-constructed flow. Each cell goes through
/// core::cachedStage against the flow's cache tiers (stage names
/// "scenario.stage.<name>", so spans and per-stage metrics come for free);
/// report/json bytes depend only on the job — never on cache state, thread
/// count, or transport. Throws std::runtime_error on unknown scenario names
/// or an empty period list.
[[nodiscard]] ScenarioRunResult runScenarioJob(core::TuningFlow& flow,
                                               const ScenarioJob& job);

}  // namespace sct::postsi
