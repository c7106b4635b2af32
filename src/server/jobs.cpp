#include "server/jobs.hpp"

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "lint/report_io.hpp"
#include "liberty/liberty_io.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sta/report.hpp"
#include "sta/sta.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"

namespace sct::server {
namespace {

/// The job's flow, wired to the caller's cache tiers.
core::FlowConfig flowConfig(const core::FlowJob& job,
                            const JobContext& context) {
  core::FlowConfig config = core::makeFlowConfig(job);
  config.sharedStore = context.store;
  config.sharedMemCache = context.memCache;
  return config;
}

std::string inferArtifactType(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  if (ext == ".lib") return "lib";
  if (ext == ".slib") return "stat";
  if (ext == ".v") return "netlist";
  if (ext == ".txt" || ext == ".constraints") return "constraints";
  throw std::runtime_error("cannot infer artifact type of '" + path +
                           "'; pass --type lib|stat|netlist|constraints");
}

}  // namespace

JobResult FlowKind::run(const Job& job, const JobContext& context) {
  core::TuningFlow flow(flowConfig(job, context));
  const core::FlowJobResult result = core::runFlowJob(flow, job);
  return {result.success ? 0 : 2, result.summary, result.report};
}

JobResult ScenarioKind::run(const Job& job, const JobContext& context) {
  postsi::ScenarioJob scenario = job.scenario;
  scenario.mcSeed = scenario.flow.mcSeed;
  if (scenario.periods.empty()) {
    if (!(scenario.flow.period > 0.0)) {
      throw std::runtime_error("scenario needs --period or --periods");
    }
    scenario.periods = postsi::paperPeriods(scenario.flow.period);
  }
  core::TuningFlow flow(flowConfig(scenario.flow, context));
  const postsi::ScenarioRunResult result =
      postsi::runScenarioJob(flow, scenario);
  // Unmet cells at tight paper periods are the measurement the matrix
  // exists to take (yield < 1), not a command failure — unlike `flow`,
  // which targets a single period and exits 2 when it is missed.
  return {0, result.summary, job.json ? result.json : result.report};
}

JobResult EvolveKind::run(const Job& job, const JobContext& context) {
  core::TuningFlow flow(flowConfig(job.evolve.flow, context));
  const evo::EvolveRunResult result = evo::runEvolveJob(flow, job.evolve);
  return {result.success ? 0 : 2, result.summary,
          job.json ? result.json : result.report};
}

JobResult LintKind::run(const Job& job, const JobContext&) {
  const std::string type =
      job.type.empty() ? inferArtifactType(job.path.path) : job.type;
  // Optional nominal library for the cross-checking rules (stat grids,
  // netlist cell binding, constraint targets/ranges).
  std::optional<liberty::Library> reference;
  if (!job.ref.path.empty()) {
    reference.emplace(liberty::readLibraryFromString(job.ref.text));
  }

  std::optional<liberty::Library> library;
  std::optional<statlib::StatLibrary> stat;
  std::optional<netlist::Design> design;
  std::optional<tuning::LibraryConstraints> constraints;
  lint::LintSubject subject;
  subject.referenceLibrary = reference ? &*reference : nullptr;
  const std::string& text = job.path.text;
  if (type == "lib") {
    library.emplace(liberty::readLibraryFromString(text));
    subject.library = &*library;
  } else if (type == "stat") {
    stat.emplace(statlib::readStatLibraryFromString(text));
    subject.statLibrary = &*stat;
  } else if (type == "netlist") {
    design.emplace(
        netlist::readVerilogFromString(text, subject.referenceLibrary));
    subject.design = &*design;
  } else if (type == "constraints") {
    constraints.emplace(tuning::readConstraintsFromString(text));
    subject.constraints = &*constraints;
  } else {
    throw std::runtime_error("unknown --type '" + type +
                             "' (lib|stat|netlist|constraints)");
  }

  const lint::LintEngine engine = lint::LintEngine::withAllRules();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const bool timed = obs::metricsEnabled();
  const std::uint64_t lintStart = timed ? obs::monotonicNanos() : 0;
  lint::LintReport report;
  {
    SCT_TRACE_SPAN("lint.run");
    report = engine.run(subject);
  }
  if (timed) {
    registry.counter("lint.runs").inc();
    registry.counter("lint.ns").add(obs::monotonicNanos() - lintStart);
    registry.counter("lint.diagnostics").add(report.diagnostics().size());
  }

  std::string body;
  if (job.sarif) {
    body = lint::writeSarifToString(report);
  } else if (job.json) {
    body = lint::writeJsonToString(report);
  } else {
    body = lint::writeTextToString(report);
  }
  return {report.hasErrors() ? 3 : 0, "lint: " + report.summary(),
          std::move(body)};
}

JobResult StaKind::run(const Job& job, const JobContext&) {
  const liberty::Library library = liberty::readLibraryFromString(job.lib.text);
  const netlist::Design design =
      netlist::readVerilogFromString(job.netlist.text, &library);
  sta::ClockSpec clock;
  clock.period = job.period;
  sta::TimingAnalyzer analyzer(design, library, clock);
  if (!analyzer.analyze()) {
    throw std::runtime_error("timing analysis failed (combinational cycle)");
  }
  std::ostringstream summary;
  summary << "sta: " << design.name() << " wns "
          << (analyzer.met() ? "met" : "violated");
  return {0, summary.str(), sta::timingReportToString(design, analyzer)};
}

}  // namespace sct::server
