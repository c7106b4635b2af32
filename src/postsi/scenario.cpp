#include "postsi/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "artifact/fields.hpp"
#include "artifact/hash.hpp"
#include "core/fmt17.hpp"
#include "core/stage_cache.hpp"
#include "postsi/buffer_sampling.hpp"
#include "postsi/clock_tuning.hpp"
#include "power/power_model.hpp"
#include "power/power_stats.hpp"
#include "tuning/methods.hpp"
#include "variation/path_stats.hpp"

namespace sct::postsi {
namespace {

using core::fmt17;

constexpr std::uint32_t kScenarioSchema = 2;

std::vector<std::string> parseScenarios(const std::string& list) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream stream(list);
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    if (token != kScenarioTuning && token != kScenarioClock &&
        token != kScenarioBuffers) {
      throw std::runtime_error("unknown scenario '" + token +
                               "' (tuning/clock/buffers)");
    }
    out.push_back(token);
  }
  if (out.empty()) throw std::runtime_error("empty scenario list");
  return out;
}

/// cachedStage requires a literal stage name (span + metric prefix).
const char* stageNameFor(const std::string& scenario) {
  if (scenario == kScenarioClock) return "scenario.stage.clock";
  if (scenario == kScenarioBuffers) return "scenario.stage.buffers";
  return "scenario.stage.tuning";
}

double mappedArea(const netlist::Design& design) {
  double area = 0.0;
  for (netlist::InstIndex i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst = design.instance(i);
    if (inst.alive && inst.cell != nullptr) area += inst.cell->area();
  }
  return area;
}

ScenarioCell computeCell(core::TuningFlow& flow, const ScenarioJob& job,
                         const tuning::TuningConfig* tuningConfig,
                         const std::string& scenario, double period,
                         std::size_t trials) {
  const core::DesignMeasurement m =
      tuningConfig ? flow.synthesizeTuned(period, *tuningConfig)
                   : flow.synthesizeBaseline(period);

  ScenarioCell cell;
  cell.scenario = scenario;
  cell.period = period;
  cell.success = m.success();
  cell.met = m.synthesis.timingMet;
  cell.wns = m.synthesis.worstSlack;
  cell.area = m.area();
  cell.designSigma = m.sigma();
  cell.powerMean = m.power.meanPower;
  cell.powerSigma = m.power.sigmaPower;
  for (const core::PathRecord& p : m.paths) {
    cell.worstPathSigma = std::max(cell.worstPathSigma, p.sigma);
  }

  ClockTuningConfig mc;
  mc.trials = trials;
  mc.mcSeed = job.mcSeed;

  if (scenario == kScenarioTuning) {
    // Baseline: MC yield with no post-silicon knobs.
    const std::vector<sta::TimingPath> paths =
        flow.tracePaths(m.synthesis, period);
    mc.element = clocktree::TuningElementSpec{};  // disabled
    const ClockTuningResult r = computeClockTuning(
        flow.characterizer(), m.synthesis.design, paths, mc);
    cell.yield = r.designYieldBefore;
    return cell;
  }

  if (scenario == kScenarioClock) {
    const std::vector<sta::TimingPath> paths =
        flow.tracePaths(m.synthesis, period);
    mc.element = job.element;
    const ClockTuningResult r = computeClockTuning(
        flow.characterizer(), m.synthesis.design, paths, mc);
    cell.yield = r.designYieldAfter;
    cell.elements = r.elements;
    cell.tuningArea = r.tuningArea;
    cell.area += r.tuningArea;
    return cell;
  }

  // "buffers": sampling-based insertion on top of the synthesized design,
  // then clock tuning over the buffered paths (cumulative scenario).
  const sta::ClockSpec clock = flow.clockAt(period);
  BufferSamplingOptions options;
  options.trials = trials;
  options.seed = job.mcSeed;
  const BufferSamplingResult sampled = sampleBufferInsertion(
      m.synthesis.design, flow.nominalLibrary(), flow.statLibrary(),
      flow.characterizer(), clock,
      m.constraints ? &*m.constraints : nullptr, options);
  cell.buffers = sampled.inserted;

  sta::TimingAnalyzer analyzer(sampled.design, flow.nominalLibrary(), clock);
  if (!analyzer.analyze()) return cell;  // unreachable for synthesized input
  const std::vector<sta::TimingPath> paths = analyzer.endpointWorstPaths();
  cell.met = analyzer.met();
  cell.wns = analyzer.worstSlack();
  const variation::PathStatistics stats(flow.statLibrary(),
                                        flow.config().rho);
  const variation::DesignStats designStats = stats.designStats(paths);
  cell.designSigma = designStats.sigma;
  cell.worstPathSigma = sampled.worstPathSigmaAfter;
  const power::PowerModel powerModel(flow.characterizer().model());
  const power::DesignPower power = power::analyzeDesignPower(
      sampled.design, analyzer, flow.characterizer(), powerModel,
      flow.config().powerActivity, flow.powerDraws());
  cell.powerMean = power.meanPower;
  cell.powerSigma = power.sigmaPower;

  mc.element = job.element;
  const ClockTuningResult r = computeClockTuning(
      flow.characterizer(), sampled.design, paths, mc);
  cell.yield = r.designYieldAfter;
  cell.elements = r.elements;
  cell.tuningArea = r.tuningArea;
  cell.area = mappedArea(sampled.design) + r.tuningArea;
  return cell;
}

}  // namespace

artifact::Digest cellKey(const core::TuningFlow& flow,
                         const tuning::TuningConfig* tuningConfig,
                         const ScenarioJob& job, const std::string& scenario,
                         double period, std::size_t trials) {
  const artifact::Digest context = flow.measurementContextDigest(period);
  return artifact::digestOf("sct-scenario", kScenarioSchema, context.hi,
                            context.lo, tuningConfig, scenario, job.element,
                            trials, job.mcSeed, flow.config().lintMode);
}

std::vector<double> paperPeriods(double base) {
  return {base, base * (2.5 / 2.41), base * (4.0 / 2.41),
          base * (10.0 / 2.41)};
}

ScenarioRunResult runScenarioJob(core::TuningFlow& flow,
                                 const ScenarioJob& job) {
  if (job.periods.empty()) {
    throw std::runtime_error("scenario job needs at least one clock period");
  }
  const std::vector<std::string> scenarios = parseScenarios(job.scenarios);
  // The tuning element is an input of the clock and buffers scenarios: gate
  // it before any cell is probed, so a cell hit cannot skip the check.
  if (std::any_of(scenarios.begin(), scenarios.end(), [](const auto& name) {
        return name == kScenarioClock || name == kScenarioBuffers;
      })) {
    core::applyLintMode(flow.config().lintMode, "clock", [&] {
      return lint::LintEngine::withAllRules().run(
          lint::LintSubject{.clockTuning = &job.element},
          lint::packBit(lint::RulePack::kClock));
    });
  }
  const std::size_t trials =
      job.mcTrials != 0
          ? job.mcTrials
          : (job.flow.profile == "small" ? std::size_t{64} : std::size_t{200});

  const std::optional<tuning::TuningConfig> tuningConfig =
      core::tuningConfigOf(job.flow);
  const tuning::TuningConfig* tuned = tuningConfig ? &*tuningConfig : nullptr;

  ScenarioRunResult result;
  result.success = true;
  for (const std::string& scenario : scenarios) {
    for (const double period : job.periods) {
      ScenarioCell cell = core::cachedStage<ScenarioCell>(
          flow.cache(), flow.memCache(), stageNameFor(scenario),
          cellKey(flow, tuned, job, scenario, period, trials),
          [&] {
            return computeCell(flow, job, tuned, scenario, period, trials);
          },
          artifact::encodeRecord<ScenarioCell>,
          artifact::decodeRecord<ScenarioCell>);
      result.success = result.success && cell.success;
      result.cells.push_back(std::move(cell));
    }
  }

  // --- deterministic text report -----------------------------------------
  std::ostringstream report;
  report << "scenario-report v1\n";
  report << "matrix scenarios " << scenarios.size() << " periods "
         << job.periods.size() << " trials " << trials << " seed "
         << job.mcSeed << "\n";
  for (const ScenarioCell& cell : result.cells) {
    report << "scenario " << cell.scenario << " period " << fmt17(cell.period)
           << " met " << cell.met << " wns " << fmt17(cell.wns) << " area "
           << fmt17(cell.area) << " sigma " << fmt17(cell.designSigma)
           << " worst-path-sigma " << fmt17(cell.worstPathSigma)
           << " power-mean " << fmt17(cell.powerMean) << " power-sigma "
           << fmt17(cell.powerSigma) << " yield " << fmt17(cell.yield)
           << " buffers " << cell.buffers << " elements " << cell.elements
           << " tuning-area " << fmt17(cell.tuningArea) << "\n";
  }
  result.report = report.str();

  // --- deterministic JSON rendering --------------------------------------
  std::ostringstream json;
  json << "{\"version\":" << kScenarioSchema << ",\"trials\":" << trials
       << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const ScenarioCell& cell = result.cells[i];
    if (i != 0) json << ",";
    json << "{\"scenario\":\"" << cell.scenario
         << "\",\"period\":" << fmt17(cell.period)
         << ",\"met\":" << (cell.met ? "true" : "false")
         << ",\"wns\":" << fmt17(cell.wns)
         << ",\"area\":" << fmt17(cell.area)
         << ",\"sigma\":" << fmt17(cell.designSigma)
         << ",\"worst_path_sigma\":" << fmt17(cell.worstPathSigma)
         << ",\"power_mean\":" << fmt17(cell.powerMean)
         << ",\"power_sigma\":" << fmt17(cell.powerSigma)
         << ",\"yield\":" << fmt17(cell.yield)
         << ",\"buffers\":" << cell.buffers
         << ",\"elements\":" << cell.elements
         << ",\"tuning_area\":" << fmt17(cell.tuningArea) << "}";
  }
  json << "]}\n";
  result.json = json.str();

  // --- one-line human summary at the tightest (first) period -------------
  const double p0 = job.periods.front();
  std::ostringstream summary;
  summary << "scenarios @" << fmt17(p0).substr(0, 6) << " ns:";
  for (const ScenarioCell& cell : result.cells) {
    if (cell.period != p0) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s yield %.3f", cell.scenario.c_str(),
                  cell.yield);
    summary << buf;
    if (cell.buffers != 0) summary << " (" << cell.buffers << " buf)";
  }
  result.summary = summary.str();
  return result;
}

}  // namespace sct::postsi
