#include "core/flow.hpp"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "artifact/codecs.hpp"
#include "artifact/fields.hpp"
#include "core/stage_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/power_stats.hpp"
#include "sta/sta.hpp"

namespace sct::core {

namespace {

/// Key part of the subject: the selected workload's name and generator
/// config. Only the selected one, so an inactive workload's config never
/// splits a key.
struct SubjectPart {
  const FlowConfig& config;
  template <class S, class V>
  static void fields(S& s, V&& v) {
    withWorkload(s.config.workload, [&](const auto& row) {
      v("workload", row.name);
      v("generator", s.config.*row.config);
    });
  }
};

/// Key part of a synthesized design: subject, clock and synthesis options.
struct DesignPart {
  SubjectPart subject;
  sta::ClockSpec clock;
  const synth::SynthesisOptions& synthesis;
  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("subject", s.subject);
    v("clock", s.clock);
    v("synthesis", s.synthesis);
  }
};

/// A synthesis result's stored bytes (every field and the design) and
/// whether it carries final timing: what a replayed run must reproduce.
std::vector<std::byte> resultBytes(const synth::SynthesisResult& result) {
  artifact::SctbWriter writer;
  artifact::encodeSynthesisResult(writer, result);
  writer.beginSection("timing");
  writer.boolean(static_cast<bool>(result.timing));
  return writer.finish();
}

}  // namespace

TuningFlow::TuningFlow(FlowConfig config)
    : config_(std::move(config)),
      characterizer_(config_.characterization),
      powerDraws_(config_.powerSamples, config_.powerSeed) {
  if (config_.sharedStore != nullptr) {
    store_ = config_.sharedStore;
  } else if (!config_.cacheDir.empty()) {
    try {
      ownedStore_ = std::make_unique<artifact::ArtifactStore>(config_.cacheDir);
      store_ = ownedStore_.get();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "sct: artifact cache disabled: %s\n", error.what());
    }
  }
  if (config_.sharedMemCache != nullptr) {
    mem_ = config_.sharedMemCache;
  } else if (config_.memCacheBytes > 0 && store_ != nullptr) {
    // Private memory tier: repeated probes of the same stage inside one
    // invocation (tune for the report digest, lint gates, sweeps) decode
    // from the shared reader instead of re-reading the cache file.
    ownedMem_ =
        std::make_unique<artifact::MemoryArtifactCache>(config_.memCacheBytes);
    mem_ = ownedMem_.get();
  }
}

netlist::Design generateSubject(const FlowConfig& config) {
  netlist::Design design;
  withWorkload(config.workload, [&](const auto& row) {
    design = row.generate(config.*row.config);
  });
  return design;
}

sta::ClockSpec TuningFlow::clockAt(double period) const {
  sta::ClockSpec clock = config_.clock;
  clock.period = period;
  return clock;
}

template <class... Parts>
artifact::Digest TuningFlow::key(std::string_view stage,
                                 const Parts&... parts) const {
  return artifact::digestOf("sct-flow", artifact::kSchemaVersion, stage,
                            config_.characterization,
                            charlib::ProcessCorner::typical(), parts...);
}

artifact::Digest TuningFlow::nominalKey() const {
  return key("stage:nominal");
}

artifact::Digest TuningFlow::statKey() const {
  return key("stage:stat", config_.mcLibraryCount, config_.mcSeed);
}

artifact::Digest TuningFlow::tuneKey(const tuning::TuningConfig& config) const {
  return key("stage:tune", config_.mcLibraryCount, config_.mcSeed, config);
}

artifact::Digest TuningFlow::subjectKey() const {
  return key("stage:subject", SubjectPart{config_});
}

artifact::Digest TuningFlow::synthKey(double period,
                                      const tuning::TuningConfig* config) const {
  const DesignPart design{{config_}, clockAt(period), config_.synthesis};
  if (config == nullptr) return key("stage:synth-baseline", design);
  return key("stage:synth", design, config_.mcLibraryCount, config_.mcSeed,
             *config);
}

artifact::Digest TuningFlow::measurementContextDigest(double period) const {
  return key("measure-context",
             DesignPart{{config_}, clockAt(period), config_.synthesis},
             config_.mcLibraryCount, config_.mcSeed, config_.rho,
             config_.powerActivity, config_.powerSamples, config_.powerSeed);
}

const liberty::Library& TuningFlow::nominalLibrary() {
  if (!nominal_) {
    auto library = std::make_unique<liberty::Library>(
        cachedStage<liberty::Library>(
            store_, mem_, "flow.stage.nominal", nominalKey(),
            [&] {
              return characterizer_.characterizeNominal(
                  charlib::ProcessCorner::typical());
            },
            artifact::encodeLibrary, artifact::decodeLibrary));
    // Gate before the member is set: a failed gate leaves the flow without a
    // nominal library, so a retried call re-lints instead of serving the
    // tainted artifact.
    lintGate("nominal", nominalKey(), lint::packBit(lint::RulePack::kLiberty),
             [&] { return lint::LintSubject{.library = library.get()}; });
    nominal_ = std::move(library);
  }
  return *nominal_;
}

const statlib::StatLibrary& TuningFlow::statLibrary() {
  if (!stat_) {
    auto library = std::make_unique<statlib::StatLibrary>(
        cachedStage<statlib::StatLibrary>(
            store_, mem_, "flow.stage.stat", statKey(),
            [&] {
              const std::vector<liberty::Library> instances =
                  characterizer_.characterizeMonteCarlo(
                      charlib::ProcessCorner::typical(),
                      config_.mcLibraryCount, config_.mcSeed);
              return statlib::buildStatLibrary(instances);
            },
            artifact::encodeStatLibrary, artifact::decodeStatLibrary));
    // Grid cross-checks need the nominal library; resolving it here keeps
    // the gate's reference consistent with what synthesis will use.
    lintGate("stat", statKey(), lint::packBit(lint::RulePack::kStatLib), [&] {
      return lint::LintSubject{.statLibrary = library.get(),
                               .referenceLibrary = &nominalLibrary()};
    });
    stat_ = std::move(library);
  }
  return *stat_;
}

const netlist::Design& TuningFlow::subject() {
  if (!subject_) {
    SCT_TRACE_SPAN("flow.stage.subject");
    std::unique_ptr<netlist::Design> design;
    {
      // Generation only; the gate's time lands under the lint stage.
      const StageTimer timer("flow.stage.subject");
      design = std::make_unique<netlist::Design>(generateSubject(config_));
    }
    lintGate("subject", subjectKey(), lint::packBit(lint::RulePack::kNetlist),
             [&] { return lint::LintSubject{.design = design.get()}; });
    subject_ = std::move(design);
  }
  return *subject_;
}

tuning::LibraryConstraints TuningFlow::tune(const tuning::TuningConfig& config) {
  tuning::LibraryConstraints constraints =
      cachedStage<tuning::LibraryConstraints>(
          store_, mem_, "flow.stage.tune", tuneKey(config),
          [&] { return tuning::tuneLibrary(statLibrary(), config); },
          artifact::encodeConstraints, artifact::decodeConstraints);
  lintGate("tune", tuneKey(config), lint::packBit(lint::RulePack::kConstraints),
           [&] {
             return lint::LintSubject{.constraints = &constraints,
                                      .referenceLibrary = &nominalLibrary()};
           });
  return constraints;
}

void applyLintMode(LintMode mode, std::string_view stage,
                   const std::function<lint::LintReport()>& lint) {
  if (mode == LintMode::kOff) return;
  const lint::LintReport report = lint();
  if (report.empty()) return;
  if (report.hasErrors() && mode == LintMode::kError) {
    constexpr std::size_t kMaxShown = 10;
    std::ostringstream message;
    message << "lint gate failed at stage '" << stage
            << "': " << report.summary();
    std::size_t shown = 0;
    for (const lint::Diagnostic& d : report.diagnostics()) {
      if (d.severity != lint::Severity::kError) continue;
      if (shown == kMaxShown) {
        message << "\n  ... (" << (report.errorCount() - shown) << " more)";
        break;
      }
      ++shown;
      message << "\n  [" << d.ruleId << "] " << d.objectPath << ": "
              << d.message;
    }
    throw std::runtime_error(message.str());
  }
  std::fprintf(stderr, "sct: lint[%.*s]: %s\n", static_cast<int>(stage.size()),
               stage.data(), report.summary().c_str());
}

void TuningFlow::lintGate(
    std::string_view stageName, const artifact::Digest& stageKey,
    lint::RulePackMask packs,
    const std::function<lint::LintSubject()>& makeSubject) {
  applyLintMode(config_.lintMode, stageName, [&] {
    const lint::LintSubject subject = makeSubject();
    // Lint-result cache key: subject identity (the stage's own artifact key)
    // + rule-pack version, so a rule change invalidates every cached report.
    const artifact::Digest lintKey =
        artifact::digestOf("sct-lint", artifact::kSchemaVersion,
                           lint::kRulePackVersion, stageName, stageKey.hi,
                           stageKey.lo, packs);
    return cachedStage<lint::LintReport>(
        store_, mem_, "flow.stage.lint", lintKey,
        [&] { return lint::LintEngine::withAllRules().run(subject, packs); },
        artifact::encodeLintReport, artifact::decodeLintReport);
  });
}

const synth::MappedSubject& TuningFlow::mappedSubject(
    const synth::Synthesizer& synthesizer) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static obs::Counter& probes = registry.counter("flow.stage.map.probes");
  static obs::Counter& hits = registry.counter("flow.stage.map.hits");
  static obs::Counter& misses = registry.counter("flow.stage.map.misses");
  const netlist::Design& design = subject();
  const LockGuard lock(mapMutex_);
  probes.inc();
  const std::uint64_t key = synthesizer.usableOps();
  if (const auto it = mapped_.find(key); it != mapped_.end()) {
    hits.inc();
    return it->second;
  }
  misses.inc();
  const StageTimer timer("flow.stage.map");
  return mapped_.emplace(key, synthesizer.map(design)).first->second;
}

synth::SynthesisResult TuningFlow::synthesize(
    const synth::Synthesizer& synthesizer, double period) {
  return synthesizer.run(mappedSubject(synthesizer), clockAt(period),
                         config_.synthesis);
}

synth::SynthesisResult TuningFlow::synthesizeFromPrefix(
    const synth::Synthesizer& synthesizer, double period,
    const tuning::TuningConfig* config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static obs::Counter& probes = registry.counter("flow.stage.prefix.probes");
  static obs::Counter& hits = registry.counter("flow.stage.prefix.hits");
  static obs::Counter& misses = registry.counter("flow.stage.prefix.misses");
  // Sizing reads the period only through slacks, which no prefix pass
  // reads: the key is the synthesis key with the period neutralized.
  const artifact::Digest key = synthKey(0.0, config);
  std::shared_ptr<const synth::SizingPrefix> known;
  {
    const LockGuard lock(prefixMutex_);
    probes.inc();
    if (const auto it = prefixes_.find(key); it != prefixes_.end()) {
      known = it->second;
    }
  }
  (known ? hits : misses).inc();
  const synth::MappedSubject& mapped = mappedSubject(synthesizer);
  const sta::ClockSpec clock = clockAt(period);
  synth::SizingPrefix prefix = known ? *known : synth::SizingPrefix{};
  synth::SynthesisResult result =
      synthesizer.run(mapped, clock, config_.synthesis, prefix);
  if (!known) {
    if (prefix.complete) {
      const LockGuard lock(prefixMutex_);
      prefixes_.try_emplace(key, std::make_shared<const synth::SizingPrefix>(
                                     std::move(prefix)));
    }
  } else if (sta::TimingAnalyzer::crossCheckEnabled() &&
             resultBytes(result) !=
                 resultBytes(synthesizer.run(mapped, clock,
                                             config_.synthesis))) {
    std::fprintf(stderr,
                 "SCT_STA_CHECK: synthesis replayed from a %zu-pass sizing "
                 "prefix differs from a fresh run at period %.17g\n",
                 known->passes, period);
    std::abort();
  }
  return result;
}

synth::SynthesisResult TuningFlow::synthesizeCached(
    double period, const tuning::TuningConfig* config,
    const tuning::LibraryConstraints* constraints) {
  const liberty::Library& library = nominalLibrary();
  return cachedStage<synth::SynthesisResult>(
      store_, mem_, "flow.stage.synth", synthKey(period, config),
      [&] {
        return synthesizeFromPrefix(synth::Synthesizer(library, constraints),
                                    period, config);
      },
      artifact::encodeSynthesisResult,
      [&library](const artifact::SctbReader& reader) {
        return artifact::decodeSynthesisResult(reader, &library);
      });
}

DesignMeasurement TuningFlow::synthesizeBaseline(double period) {
  return measure(synthesizeCached(period, nullptr, nullptr), period);
}

DesignMeasurement TuningFlow::synthesizeTuned(
    double period, const tuning::TuningConfig& config) {
  tuning::LibraryConstraints constraints = tune(config);
  DesignMeasurement m =
      measure(synthesizeCached(period, &config, &constraints), period);
  m.constraints = std::move(constraints);
  return m;
}

std::vector<sta::TimingPath> TuningFlow::tracePaths(
    const synth::SynthesisResult& result, double period) const {
  sta::TimingAnalyzer analyzer(result.design, *nominal_, clockAt(period));
  if (!analyzer.analyze()) return {};
  return analyzer.endpointWorstPaths();
}

DesignMeasurement TuningFlow::measure(synth::SynthesisResult result,
                                      double period) {
  SCT_TRACE_SPAN("flow.measure");
  const StageTimer timer("flow.stage.measure");
  DesignMeasurement out;
  out.clockPeriod = period;
  out.synthesis = std::move(result);
  const sta::ClockSpec clock = clockAt(period);

  // Synthesis' last drain left its analyzer bit-identical to a fresh
  // analyze() of the final design (DESIGN.md §9). It stands in for one when
  // it timed against the same library and clock, bit for bit.
  std::unique_ptr<sta::TimingAnalyzer> analyzer =
      out.synthesis.timing.take(out.synthesis.design);
  bool timed = false;
  if (analyzer != nullptr && &analyzer->library() == &nominalLibrary() &&
      artifact::digestOf(analyzer->clock()) == artifact::digestOf(clock)) {
    timed = true;
    analyzer->crossCheck("adopted synthesis timing");
  } else {
    analyzer = std::make_unique<sta::TimingAnalyzer>(
        out.synthesis.design, nominalLibrary(), clock);
    timed = analyzer->analyze();
  }
  if (timed) {
    const std::vector<sta::TimingPath> paths = analyzer->endpointWorstPaths();
    const variation::PathStatistics stats(statLibrary(), config_.rho);
    // Each endpoint path is convolved once (on the pool); eq. (11) and the
    // per-path records both read the same results.
    const std::vector<variation::PathStats> pathStats =
        stats.allPathStats(paths);
    out.design = variation::foldDesignStats(pathStats);
    out.paths.reserve(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const sta::TimingPath& path = paths[i];
      const variation::PathStats& ps = pathStats[i];
      PathRecord record;
      record.depth = ps.depth;
      record.mean = ps.mean;
      record.sigma = ps.sigma;
      record.arrival = path.endpoint.arrival;
      record.slack = path.endpoint.slack;
      record.endpoint = analyzer->endpointName(path.endpoint);
      out.paths.push_back(std::move(record));
    }
    // Dynamic-power totals at the measured operating points (satellite of
    // the scenario work: the report and trade-off output carry power
    // alongside sigma/area). Deterministic per-instance streams from
    // powerSeed. A flow that measures once (a CLI run, a daemon request)
    // would never read what it stores, so the first measurement only reads.
    const power::PowerModel powerModel(characterizer_.model());
    if (measures_.fetch_add(1) == 0) {
      out.power = power::analyzeDesignPower(
          out.synthesis.design, *analyzer, characterizer_, powerModel,
          config_.powerActivity, std::as_const(powerDraws_));
    } else {
      out.power = power::analyzeDesignPower(
          out.synthesis.design, *analyzer, characterizer_, powerModel,
          config_.powerActivity, powerDraws_);
    }
  }
  return out;
}

std::optional<double> TuningFlow::findMinPeriod(double lo, double hi,
                                                double tolerance) {
  const synth::Synthesizer synthesizer(nominalLibrary());
  return synth::bisectMinPeriod(lo, hi, tolerance, [&](double period) {
    return synthesizeFromPrefix(synthesizer, period, nullptr).success();
  });
}

std::vector<TuningFlow::SweepPoint> TuningFlow::sweepMethod(
    tuning::TuningMethod method, double period,
    const DesignMeasurement& baseline) {
  std::vector<SweepPoint> points;
  for (double value : tuning::sweepValues(method)) {
    SweepPoint point;
    point.method = method;
    point.parameter = value;
    point.measurement =
        synthesizeTuned(period, tuning::TuningConfig::forMethod(method, value));
    if (baseline.sigma() > 0.0) {
      point.sigmaReductionPct =
          100.0 * (baseline.sigma() - point.measurement.sigma()) /
          baseline.sigma();
    }
    if (baseline.area() > 0.0) {
      point.areaIncreasePct =
          100.0 * (point.measurement.area() - baseline.area()) /
          baseline.area();
    }
    points.push_back(std::move(point));
  }
  return points;
}

const TuningFlow::SweepPoint* TuningFlow::bestUnderAreaCap(
    std::span<const SweepPoint> points, double maxAreaIncreasePct) {
  const SweepPoint* best = nullptr;
  for (const SweepPoint& point : points) {
    if (!point.measurement.success()) continue;
    if (point.areaIncreasePct >= maxAreaIncreasePct) continue;
    if (best == nullptr ||
        point.sigmaReductionPct > best->sigmaReductionPct) {
      best = &point;
    }
  }
  return best;
}

}  // namespace sct::core
