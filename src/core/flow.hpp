#pragma once
// End-to-end library-tuning flow (the paper's methodology, sections II-VII):
//   characterize -> build statistical library -> extract thresholds ->
//   restrict LUTs -> synthesize under constraints -> measure design sigma.
// Every bench and example drives this facade.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "artifact/mem_cache.hpp"
#include "artifact/store.hpp"
#include "charlib/characterizer.hpp"
#include "core/sync.hpp"
#include "lint/engine.hpp"
#include "netlist/dsp.hpp"
#include "netlist/mcu.hpp"
#include "netlist/noc.hpp"
#include "netlist/random.hpp"
#include "power/power_stats.hpp"
#include "statlib/stat_library.hpp"
#include "synth/synthesis.hpp"
#include "tuning/restriction.hpp"
#include "variation/path_stats.hpp"

namespace sct::core {

/// How the flow treats lint findings on its stage inputs (DESIGN.md §11).
/// kError fails fast (throws) on error-severity findings before the tainted
/// artifact feeds a downstream stage; kWarn reports everything to stderr but
/// never stops; kOff skips linting entirely — flow *results* are identical
/// across all three settings for clean inputs, since the gate only ever
/// reads the artifacts.
enum class LintMode : std::uint8_t { kError = 0, kWarn = 1, kOff = 2 };

/// The one LintMode policy, shared by the flow's stage gates, the evolve
/// parameter gate and the scenario tuning-element gate. kOff returns without
/// calling `lint`. Otherwise error-severity findings in kError throw
/// std::runtime_error "lint gate failed at stage '<stage>': ..." listing at
/// most 10 errors; any other non-empty report prints "sct: lint[<stage>]:
/// <summary>" to stderr.
void applyLintMode(LintMode mode, std::string_view stage,
                   const std::function<lint::LintReport()>& lint);

struct FlowConfig {
  charlib::CharacterizationConfig characterization{};
  std::size_t mcLibraryCount = 50;  ///< paper: 50 library instances
  std::uint64_t mcSeed = 2014;
  /// Subject-design selector for the design-diversity matrix, a row of
  /// kWorkloads: "mcu" (default), "dsp" (FIR datapath), "noc" (wormhole
  /// router) or "big" (scaled random DAG — ~200k gates at the default
  /// scale, the 10x-paper-size workload). Only the selected generator's
  /// config enters the stage keys.
  std::string workload = "mcu";
  netlist::McuConfig mcu{};
  netlist::DspConfig dsp{};
  netlist::NocConfig noc{};
  netlist::RandomDagConfig big{.primaryInputs = 64,
                               .gates = 200,
                               .flipFlops = 16,
                               .primaryOutputs = 64,
                               .scale = 1000,
                               .seed = 1};
  sta::ClockSpec clock{};  ///< period is overridden per experiment
  synth::SynthesisOptions synthesis{};
  double rho = 0.0;  ///< pairwise cell correlation in path convolution
  /// Root of the content-addressed artifact cache; empty disables caching.
  /// Each pipeline stage (characterize, merge, tune, synthesize) consults
  /// the store before computing and skips to a warm SCTB load on a hit.
  /// Keys hash all stage inputs (characterization config, MC count + seed,
  /// tuning parameters, subject/clock/synthesis options, schema version),
  /// so warm results are bit-identical to a cold run by construction.
  std::string cacheDir{};
  /// Lint gate over each stage's input artifact. Lint reports are cached in
  /// the artifact store keyed by subject digest + lint::kRulePackVersion.
  LintMode lintMode = LintMode::kError;
  /// Byte bound of the in-memory artifact tier layered in front of the
  /// on-disk store (DESIGN.md §14): repeated stage probes decode from a
  /// shared validated reader instead of re-reading the cache file. 0
  /// disables the tier; it only engages when a disk store is active (or a
  /// sharedMemCache is injected), and never changes results — memory hits
  /// serve the exact bytes a disk hit would.
  std::uint64_t memCacheBytes = 64ull << 20;
  /// Externally-owned cache tiers for long-lived processes (the sctuned
  /// daemon shares one store + one memory cache across every session).
  /// sharedStore overrides cacheDir; neither is owned by the flow.
  artifact::ArtifactStore* sharedStore = nullptr;
  artifact::MemoryArtifactCache* sharedMemCache = nullptr;
  /// Design-power measurement knobs (src/power wired into measure(); the
  /// totals land in the flow report and the scenario trade-off output).
  /// Deterministic: per-instance streams are derived from powerSeed alone.
  /// The flow's power::DrawTable is built from powerSamples and powerSeed.
  double powerActivity = 0.1;      ///< transitions per clock per cell
  std::size_t powerSamples = 50;   ///< mismatch draws per instance
  std::uint64_t powerSeed = 7;
};

/// One row of the workload table: a subject-design name, the FlowConfig
/// member holding its generator config, and the generator.
template <class Config>
struct Workload {
  std::string_view name;
  Config FlowConfig::*config;
  netlist::Design (*generate)(const Config&);
};

/// The workload table. Subject generation, the subject's stage-key
/// encoding and `sctune generate` all read it.
inline constexpr std::tuple kWorkloads{
    Workload<netlist::McuConfig>{"mcu", &FlowConfig::mcu,
                                 &netlist::generateMcu},
    Workload<netlist::DspConfig>{"dsp", &FlowConfig::dsp,
                                 &netlist::generateDsp},
    Workload<netlist::NocConfig>{"noc", &FlowConfig::noc,
                                 &netlist::buildNocRouter},
    Workload<netlist::RandomDagConfig>{"big", &FlowConfig::big,
                                       &netlist::generateRandomDag}};

/// Whether kWorkloads has a row named `name` (no alias).
[[nodiscard]] constexpr bool isWorkload(std::string_view name) {
  return std::apply(
      [&](const auto&... row) { return ((name == row.name) || ...); },
      kWorkloads);
}

/// Calls f(row) with the kWorkloads row named `workload` ("" is an alias
/// for "mcu"); throws std::invalid_argument for any other name.
template <class F>
void withWorkload(std::string_view workload, F&& f) {
  if (workload.empty()) workload = "mcu";
  const bool found = std::apply(
      [&](const auto&... row) {
        return ((workload == row.name && (f(row), true)) || ...);
      },
      kWorkloads);
  if (!found) {
    throw std::invalid_argument("unknown workload '" + std::string(workload) +
                                "' (expected mcu|dsp|noc|big)");
  }
}

/// The subject design config.workload selects, from its generator config.
[[nodiscard]] netlist::Design generateSubject(const FlowConfig& config);

/// Per-endpoint worst-path record used by the path-population figures.
struct PathRecord {
  std::size_t depth = 0;
  double mean = 0.0;    ///< statistical path mean [ns]
  double sigma = 0.0;   ///< statistical path sigma [ns]
  double arrival = 0.0; ///< STA arrival at the endpoint [ns]
  double slack = 0.0;
  std::string endpoint;
};

struct DesignMeasurement {
  synth::SynthesisResult synthesis;
  variation::DesignStats design;  ///< eq. (11) aggregate
  std::vector<PathRecord> paths;  ///< one per unique endpoint
  power::DesignPower power;       ///< dynamic-power mean/sigma totals
  double clockPeriod = 0.0;
  /// The constraints a tuned synthesis used; nullopt for the baseline.
  std::optional<tuning::LibraryConstraints> constraints;

  [[nodiscard]] bool success() const noexcept { return synthesis.success(); }
  [[nodiscard]] double area() const noexcept { return synthesis.area; }
  [[nodiscard]] double sigma() const noexcept { return design.sigma; }
};

class TuningFlow {
 public:
  explicit TuningFlow(FlowConfig config = {});

  [[nodiscard]] const FlowConfig& config() const noexcept { return config_; }
  [[nodiscard]] const charlib::Characterizer& characterizer() const noexcept {
    return characterizer_;
  }

  /// config().clock at another period.
  [[nodiscard]] sta::ClockSpec clockAt(double period) const;

  /// Nominal TT library used by synthesis (lazily characterized).
  const liberty::Library& nominalLibrary();
  /// Statistical library from N Monte-Carlo library instances (Fig. 2).
  const statlib::StatLibrary& statLibrary();
  /// The subject graph selected by config().workload (lazily generated).
  const netlist::Design& subject();

  // ---- stage cache keys (DESIGN.md §10) ----------------------------------
  // A tag, the schema version and the canonical encoding
  // (artifact/fields.hpp) of every config the stage reads.
  [[nodiscard]] artifact::Digest nominalKey() const;
  [[nodiscard]] artifact::Digest statKey() const;
  [[nodiscard]] artifact::Digest tuneKey(
      const tuning::TuningConfig& config) const;
  /// Key of the subject design's lint report.
  [[nodiscard]] artifact::Digest subjectKey() const;
  /// config == nullptr keys the untuned baseline.
  [[nodiscard]] artifact::Digest synthKey(
      double period, const tuning::TuningConfig* config) const;
  /// Digest of everything that can influence a (constraints -> synthesize ->
  /// measure) evaluation at this clock period: characterization, corner,
  /// MC parameters, subject/workload, clock, synthesis options, rho and the
  /// power knobs. The evolutionary tuner mixes candidate genes into this to
  /// key its memoized fitness evaluations; scenario cells build on it too.
  [[nodiscard]] artifact::Digest measurementContextDigest(double period) const;

  /// Stage 1+2 of the tuning method for a given config.
  tuning::LibraryConstraints tune(const tuning::TuningConfig& config);

  /// Baseline synthesis (untuned library) at a clock period.
  DesignMeasurement synthesizeBaseline(double period);
  /// Constrained synthesis under a tuning config. Tunes once; the
  /// measurement carries the constraints.
  DesignMeasurement synthesizeTuned(double period,
                                    const tuning::TuningConfig& config);

  /// Synthesizes the subject with `synthesizer` at `period` under
  /// config().synthesis. The usable-op dependent part of mapping runs once
  /// per flow for each synthesizer.usableOps() and is kept; each call binds
  /// and optimizes a copy. Safe to call from pool workers once subject() is
  /// resolved (the mapping memo is locked).
  [[nodiscard]] synth::SynthesisResult synthesize(
      const synth::Synthesizer& synthesizer, double period);

  /// Statistical measurement of an already-synthesized design. Adopts the
  /// result's final synthesis timing when it timed this design against the
  /// nominal library at this period; otherwise (a result decoded from the
  /// cache, or one without timing) analyzes afresh. With SCT_STA_CHECK=1
  /// adopted timing is checked against a fresh analysis (abort on any
  /// difference). The flow's first measurement reads powerDraws() but
  /// stores no draws: only a later one could read them.
  DesignMeasurement measure(synth::SynthesisResult result, double period);

  /// Traced endpoint worst paths of a synthesized design (for Monte-Carlo
  /// experiments that need the full path structure, Figs. 15/16).
  [[nodiscard]] std::vector<sta::TimingPath> tracePaths(
      const synth::SynthesisResult& result, double period) const;

  /// Minimum feasible clock period of the baseline (Table 1 protocol). The
  /// probes synthesize through the mapping and sizing-prefix memos.
  std::optional<double> findMinPeriod(double lo = 0.5, double hi = 14.0,
                                      double tolerance = 0.02);

  // ---- method sweeps (Table 3 / Fig. 10) --------------------------------
  struct SweepPoint {
    tuning::TuningMethod method{};
    double parameter = 0.0;
    DesignMeasurement measurement;
    double sigmaReductionPct = 0.0;  ///< vs baseline, positive = better
    double areaIncreasePct = 0.0;    ///< vs baseline
  };

  /// Runs the Table 2 parameter sweep of one method at one clock period.
  std::vector<SweepPoint> sweepMethod(tuning::TuningMethod method,
                                      double period,
                                      const DesignMeasurement& baseline);

  /// Paper's Fig. 10 selection rule: highest sigma reduction among
  /// successful runs with area increase below the cap (default 10%).
  [[nodiscard]] static const SweepPoint* bestUnderAreaCap(
      std::span<const SweepPoint> points, double maxAreaIncreasePct = 10.0);

  /// The mismatch draws of every design-power analysis of this flow
  /// (config().powerSamples draws per instance from config().powerSeed):
  /// measure() from its second call on and the scenario cells read and
  /// extend it, so each counted position's draws are made at most twice
  /// per flow.
  [[nodiscard]] power::DrawTable& powerDraws() noexcept { return powerDraws_; }

  /// Artifact store backing the resumable stages; nullptr when caching is
  /// disabled (empty cacheDir, or a cache directory that could not be
  /// created — the flow then degrades to always computing).
  [[nodiscard]] artifact::ArtifactStore* cache() noexcept { return store_; }
  [[nodiscard]] const artifact::ArtifactStore* cache() const noexcept {
    return store_;
  }
  /// In-memory tier in front of the store; nullptr when disabled.
  [[nodiscard]] artifact::MemoryArtifactCache* memCache() noexcept {
    return mem_;
  }
  [[nodiscard]] const artifact::MemoryArtifactCache* memCache() const noexcept {
    return mem_;
  }

 private:
  /// The stage tag, then every stage's common inputs (characterization and
  /// corner), then `parts`.
  template <class... Parts>
  [[nodiscard]] artifact::Digest key(std::string_view stage,
                                     const Parts&... parts) const;

  /// Shared cached-synthesis stage behind synthesizeBaseline/synthesizeTuned
  /// (config == nullptr means the untuned baseline library; otherwise
  /// `constraints` is tune(*config)).
  synth::SynthesisResult synthesizeCached(
      double period, const tuning::TuningConfig* config,
      const tuning::LibraryConstraints* constraints);

  /// Runs the selected rule packs over the subject `makeSubject` builds
  /// before a stage consumes it (cached by `stageKey` + rule-pack version),
  /// under applyLintMode; kOff builds no subject.
  void lintGate(std::string_view stageName, const artifact::Digest& stageKey,
                lint::RulePackMask packs,
                const std::function<lint::LintSubject()>& makeSubject);

  /// The subject mapped for `synthesizer`'s usable-op set: memo entries are
  /// computed under mapMutex_ and never change once inserted.
  const synth::MappedSubject& mappedSubject(
      const synth::Synthesizer& synthesizer);

  /// synthesize(synthesizer, period) through the sizing-prefix memo: the
  /// first period of a (config, options) pair records its prefix, every
  /// other replays it (DESIGN.md §9). `synthesizer` must be the nominal
  /// library under tune(*config), or untuned when config is null. With
  /// SCT_STA_CHECK=1 a replayed result is compared with a fresh run, bit
  /// for bit (abort on any difference).
  synth::SynthesisResult synthesizeFromPrefix(
      const synth::Synthesizer& synthesizer, double period,
      const tuning::TuningConfig* config);

  FlowConfig config_;
  charlib::Characterizer characterizer_;
  power::DrawTable powerDraws_;
  std::unique_ptr<artifact::ArtifactStore> ownedStore_;
  std::unique_ptr<artifact::MemoryArtifactCache> ownedMem_;
  artifact::ArtifactStore* store_ = nullptr;  ///< owned or shared
  artifact::MemoryArtifactCache* mem_ = nullptr;
  std::unique_ptr<liberty::Library> nominal_;
  std::unique_ptr<statlib::StatLibrary> stat_;
  std::unique_ptr<netlist::Design> subject_;
  sct::Mutex mapMutex_;
  /// Keyed by Synthesizer::usableOps().
  std::map<std::uint64_t, synth::MappedSubject> mapped_
      SCT_GUARDED_BY(mapMutex_);
  sct::Mutex prefixMutex_;
  /// Keyed by synthKey at period 0: sizing never reads the period in a
  /// prefix. Recorded outside the lock; the first insert wins, and entries
  /// never change once inserted.
  std::unordered_map<artifact::Digest,
                     std::shared_ptr<const synth::SizingPrefix>,
                     artifact::DigestHash>
      prefixes_ SCT_GUARDED_BY(prefixMutex_);
  std::atomic<std::size_t> measures_{0};  ///< measure() calls so far
};

}  // namespace sct::core
