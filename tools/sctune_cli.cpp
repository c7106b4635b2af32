// sctune — command-line driver for the library-tuning flow.
//
// Subcommands (artifacts are the repository's text formats, so stages can
// run in separate invocations, like the tool hand-offs in the paper):
//
//   sctune characterize --out lib.lib [--corner TT|SS|FF] [--mc N --seed S
//                        --stat-out stat.slib]
//   sctune generate     --design mcu|dsp|accumulator --out design.v
//   sctune tune         --stat stat.slib --method <name> --value <v>
//                        --out constraints.txt [--script constraints.tcl]
//   sctune synth        --lib lib.lib --design <name|netlist.v>
//                        --period <ns> [--constraints c.txt] [--out out.v]
//   sctune report       --lib lib.lib --stat stat.slib
//                        --netlist out.v --period <ns>
//   sctune lint         <artifact> [--type lib|stat|netlist|constraints]
//                        [--ref nominal.lib] [--json | --sarif] [--out file]
//   sctune flow         --period <ns> [--method <name> --value <v>]
//                        [--profile small|full] [--cache-dir DIR | --no-cache]
//                        [--cache-stats] [--lint-mode error|warn|off]
//                        [--report out.txt]
//   sctune cache stats  --cache-dir DIR
//   sctune cache gc     --cache-dir DIR [--max-bytes N] [--max-age seconds]
//
// Methods: strength-load, strength-slew, cell-load, cell-slew,
//          sigma-ceiling.
//
// `flow` runs the whole pipeline in-process on top of the content-addressed
// artifact store (SCT_CACHE_DIR is the --cache-dir default): a warm rerun
// loads every stage artifact instead of recomputing, and its --report file
// is byte-identical to the cold run's.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "artifact/store.hpp"
#include "charlib/characterizer.hpp"
#include "core/env.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "server/client.hpp"
#include "lint/engine.hpp"
#include "lint/report_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "postsi/scenario.hpp"
#include "sta/report.hpp"
#include "netlist/dsp.hpp"
#include "netlist/noc.hpp"
#include "netlist/random.hpp"
#include "netlist/verilog_io.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"
#include "variation/path_stats.hpp"
#include "variation/ssta.hpp"

namespace {

using namespace sct;

/// Minimal --flag value parser. Flags listed in `booleanFlags` take no
/// value operand; `start` skips the command (and subcommand) words.
class Args {
 public:
  Args(int argc, char** argv, int start = 2,
       std::vector<std::string> booleanFlags = {}) {
    for (int i = start; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::runtime_error(std::string("expected flag, got ") + argv[i]);
      }
      const std::string name = argv[i] + 2;
      if (std::find(booleanFlags.begin(), booleanFlags.end(), name) !=
          booleanFlags.end()) {
        values_[name] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        throw std::runtime_error("flag --" + name + " needs a value");
      }
      values_[name] = argv[++i];
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::optional(it->second) : std::nullopt;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::runtime_error("missing required flag --" + key);
    return *v;
  }
  [[nodiscard]] double requireDouble(const std::string& key) const {
    return std::stod(require(key));
  }
  [[nodiscard]] std::uint64_t getUint(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto v = get(key);
    return v ? std::stoull(*v) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---- observability wiring (DESIGN.md §12) --------------------------------

/// What --trace-out/--metrics-out/--obs-off (plus the SCT_TRACE/SCT_METRICS
/// variables) resolved to. Tracing/metrics stay globally off unless asked
/// for; --obs-off wins over everything, pinning one side of the
/// bit-identity comparison the flow tests make.
struct ObsOptions {
  bool tracing = false;
  bool metrics = false;
  std::string traceOut;
  std::string metricsOut;
};

ObsOptions setupObservability(const Args& args) {
  ObsOptions opts;
  if (!args.has("obs-off")) {
    opts.traceOut = args.get("trace-out").value_or("");
    opts.metricsOut = args.get("metrics-out").value_or("");
    opts.tracing =
        !opts.traceOut.empty() ||
        env::parseFlag("SCT_TRACE", env::get("SCT_TRACE").value_or(""), false);
    opts.metrics = !opts.metricsOut.empty() ||
                   env::parseFlag("SCT_METRICS",
                                  env::get("SCT_METRICS").value_or(""), false);
  }
  obs::setTracingEnabled(opts.tracing);
  obs::setMetricsEnabled(opts.metrics);
  return opts;
}

/// Writes the requested exporter files once the command finished.
void finishObservability(const ObsOptions& opts) {
  if (opts.tracing && !opts.traceOut.empty()) {
    std::ofstream out(opts.traceOut);
    if (!out) throw std::runtime_error("cannot open " + opts.traceOut);
    const obs::TraceSnapshot snapshot = obs::traceSnapshot();
    obs::writeChromeTrace(out, snapshot);
    std::printf("wrote %s (%zu spans%s)\n", opts.traceOut.c_str(),
                snapshot.events.size(),
                snapshot.dropped > 0 ? ", some dropped" : "");
  }
  if (opts.metrics && !opts.metricsOut.empty()) {
    std::ofstream out(opts.metricsOut);
    if (!out) throw std::runtime_error("cannot open " + opts.metricsOut);
    obs::writeMetricsJson(out, obs::MetricsRegistry::global().snapshot());
    std::printf("wrote %s\n", opts.metricsOut.c_str());
  }
}

/// Per-stage timing / cache-hit table, read back out of the metrics
/// snapshot. Goes to stdout only — never into the --report file, whose
/// bytes must not depend on whether observability is on.
void printStageTable(const obs::MetricsSnapshot& snapshot) {
  std::printf("%-10s %10s %7s %5s %7s %7s\n", "stage", "time_ms", "probes",
              "hits", "misses", "stores");
  for (const char* stage : {"nominal", "stat", "subject", "tune", "synth",
                            "measure", "lint"}) {
    const std::string prefix = std::string("flow.stage.") + stage + ".";
    if (!snapshot.hasCounter(prefix + "ns") &&
        !snapshot.hasCounter(prefix + "probes")) {
      continue;
    }
    std::printf(
        "%-10s %10.2f %7llu %5llu %7llu %7llu\n", stage,
        static_cast<double>(snapshot.counterValue(prefix + "ns")) / 1e6,
        static_cast<unsigned long long>(
            snapshot.counterValue(prefix + "probes")),
        static_cast<unsigned long long>(snapshot.counterValue(prefix + "hits")),
        static_cast<unsigned long long>(
            snapshot.counterValue(prefix + "misses")),
        static_cast<unsigned long long>(
            snapshot.counterValue(prefix + "stores")));
  }
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << contents;
  std::printf("wrote %s (%.1f KB)\n", path.c_str(),
              static_cast<double>(contents.size()) / 1024.0);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

charlib::ProcessCorner cornerByName(const std::string& name) {
  if (name == "TT") return charlib::ProcessCorner::typical();
  if (name == "SS") return charlib::ProcessCorner::slow();
  if (name == "FF") return charlib::ProcessCorner::fast();
  throw std::runtime_error("unknown corner '" + name + "' (TT/SS/FF)");
}

// One method-name dictionary for CLI and daemon (core/flow_job.hpp).
tuning::TuningMethod methodByName(const std::string& name) {
  return core::tuningMethodByName(name);
}

netlist::Design designByName(const std::string& name,
                             const liberty::Library* library) {
  if (name == "mcu") return netlist::generateMcu();
  if (name == "dsp") return netlist::generateDsp();
  if (name == "noc") return netlist::buildNocRouter();
  if (name == "big") {
    // The flow's 10x-paper-size subject (core::FlowConfig::big defaults).
    return netlist::generateRandomDag({.primaryInputs = 64,
                                       .gates = 200,
                                       .flipFlops = 16,
                                       .primaryOutputs = 64,
                                       .scale = 1000,
                                       .seed = 1});
  }
  if (name == "accumulator") return netlist::generateAccumulator(16);
  // Otherwise: a structural Verilog file.
  std::ifstream in(name);
  if (!in) throw std::runtime_error("no built-in design or file '" + name + "'");
  return netlist::readVerilog(in, library);
}

int cmdCharacterize(const Args& args) {
  const charlib::Characterizer characterizer;
  const auto corner = cornerByName(args.get("corner").value_or("TT"));
  const liberty::Library library = characterizer.characterizeNominal(corner);
  writeFile(args.require("out"), liberty::writeLibraryToString(library));
  if (const auto statOut = args.get("stat-out")) {
    const std::size_t n = args.getUint("mc", 50);
    const std::uint64_t seed = args.getUint("seed", 2014);
    std::printf("characterizing %zu Monte-Carlo library instances...\n", n);
    const auto instances = characterizer.characterizeMonteCarlo(corner, n, seed);
    const statlib::StatLibrary stat = statlib::buildStatLibrary(instances);
    writeFile(*statOut, statlib::writeStatLibraryToString(stat));
  }
  return 0;
}

int cmdGenerate(const Args& args) {
  const netlist::Design design = designByName(args.require("design"), nullptr);
  std::printf("generated '%s': %zu gates\n", design.name().c_str(),
              design.gateCount());
  writeFile(args.require("out"), netlist::writeVerilogToString(design));
  return 0;
}

int cmdTune(const Args& args) {
  const statlib::StatLibrary stat =
      statlib::readStatLibraryFromString(readFile(args.require("stat")));
  const tuning::TuningConfig config = tuning::TuningConfig::forMethod(
      methodByName(args.require("method")), args.requireDouble("value"));
  const tuning::LibraryConstraints constraints =
      tuning::tuneLibrary(stat, config);
  std::printf("tuned %zu cells (%zu unusable)\n", constraints.size(),
              constraints.unusableCellCount());
  writeFile(args.require("out"), tuning::writeConstraintsToString(constraints));
  if (const auto script = args.get("script")) {
    writeFile(*script,
              tuning::writeSynthesisScriptToString(constraints, stat.name()));
  }
  return 0;
}

int cmdSynth(const Args& args) {
  const liberty::Library library =
      liberty::readLibraryFromString(readFile(args.require("lib")));
  std::optional<tuning::LibraryConstraints> constraints;
  if (const auto path = args.get("constraints")) {
    constraints = tuning::readConstraintsFromString(readFile(*path));
  }
  const netlist::Design subject =
      designByName(args.require("design"), nullptr);
  sta::ClockSpec clock;
  clock.period = args.requireDouble("period");
  const synth::Synthesizer synthesizer(
      library, constraints ? &*constraints : nullptr);
  const synth::SynthesisResult result = synthesizer.run(subject, clock);
  std::printf("synthesis: %s | wns %+.4f ns | area %.0f um^2 | %zu gates | "
              "%zu buffers | %zu resizes\n",
              result.success() ? "MET" : "FAILED", result.worstSlack,
              result.area, result.design.gateCount(), result.buffersInserted,
              result.resizes);
  if (const auto out = args.get("out")) {
    writeFile(*out, netlist::writeVerilogToString(result.design));
  }
  return result.success() ? 0 : 2;
}

int cmdReport(const Args& args) {
  const liberty::Library library =
      liberty::readLibraryFromString(readFile(args.require("lib")));
  const statlib::StatLibrary stat =
      statlib::readStatLibraryFromString(readFile(args.require("stat")));
  std::ifstream netIn(args.require("netlist"));
  if (!netIn) throw std::runtime_error("cannot open netlist");
  const netlist::Design design = netlist::readVerilog(netIn, &library);
  sta::ClockSpec clock;
  clock.period = args.requireDouble("period");
  sta::TimingAnalyzer sta(design, library, clock);
  if (!sta.analyze()) throw std::runtime_error("timing analysis failed");

  const auto paths = sta.endpointWorstPaths();
  const variation::PathStatistics stats(stat);
  const variation::DesignStats designStats = stats.designStats(paths);
  const variation::SstaResult ssta = variation::runSsta(design, sta, stat);

  std::printf("design %s @ %.3f ns\n", design.name().c_str(), clock.period);
  std::printf("  gates %zu, area %.0f um^2\n", design.gateCount(),
              design.totalArea());
  std::printf("  setup: wns %+.4f ns (%s); hold: %+.4f ns (%s)\n",
              sta.worstSlack(), sta.met() ? "met" : "VIOLATED",
              sta.worstHoldSlack(), sta.holdMet() ? "met" : "VIOLATED");
  std::printf("  per-path statistics (paper eq. 11): design sigma %.4f ns "
              "over %zu endpoint paths\n",
              designStats.sigma, designStats.paths);
  std::printf("  SSTA: critical delay %.4f +- %.4f ns, expected failing "
              "endpoints %.3g, timing yield %.4f\n",
              ssta.designArrival.mean, ssta.designArrival.sigma,
              ssta.expectedFailures, ssta.timingYield);
  if (const auto reportOut = args.get("out")) {
    std::ofstream file(*reportOut);
    if (!file) throw std::runtime_error("cannot open " + *reportOut);
    sta::writeTimingReport(file, design, sta);
    std::printf("wrote full timing report to %s\n", reportOut->c_str());
  } else {
    std::printf("\n");
    std::ostringstream report;
    sta::writeTimingReport(report, design, sta);
    std::fputs(report.str().c_str(), stdout);
  }
  return 0;
}

// ---- lint ----------------------------------------------------------------

/// `sctune lint <artifact>`: parse one text artifact, run the matching rule
/// pack(s), and render the report as text (default), JSON or SARIF. Exit
/// code 0 = no error-severity findings, 3 = errors found; parse failures
/// report through the generic error path (exit 1).
int cmdLint(const std::string& path, const Args& args) {
  std::string type;
  if (const auto explicitType = args.get("type")) {
    type = *explicitType;
  } else {
    const std::string ext = std::filesystem::path(path).extension().string();
    if (ext == ".lib") type = "lib";
    else if (ext == ".slib") type = "stat";
    else if (ext == ".v") type = "netlist";
    else if (ext == ".txt" || ext == ".constraints") type = "constraints";
    else {
      throw std::runtime_error(
          "cannot infer artifact type of '" + path +
          "'; pass --type lib|stat|netlist|constraints");
    }
  }

  // Optional nominal library for the cross-checking rules (stat grids,
  // netlist cell binding, constraint targets/ranges).
  std::optional<liberty::Library> reference;
  if (const auto refPath = args.get("ref")) {
    reference.emplace(liberty::readLibraryFromString(readFile(*refPath)));
  }

  std::optional<liberty::Library> library;
  std::optional<statlib::StatLibrary> stat;
  std::optional<netlist::Design> design;
  std::optional<tuning::LibraryConstraints> constraints;
  lint::LintSubject subject;
  subject.referenceLibrary = reference ? &*reference : nullptr;
  if (type == "lib") {
    library.emplace(liberty::readLibraryFromString(readFile(path)));
    subject.library = &*library;
  } else if (type == "stat") {
    stat.emplace(statlib::readStatLibraryFromString(readFile(path)));
    subject.statLibrary = &*stat;
  } else if (type == "netlist") {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    design.emplace(netlist::readVerilog(in, subject.referenceLibrary));
    subject.design = &*design;
  } else if (type == "constraints") {
    constraints.emplace(tuning::readConstraintsFromString(readFile(path)));
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

  std::string rendered;
  if (args.has("sarif")) {
    rendered = lint::writeSarifToString(report, &engine);
  } else if (args.has("json")) {
    rendered = lint::writeJsonToString(report);
  } else {
    rendered = lint::writeTextToString(report);
  }
  if (const auto out = args.get("out")) {
    writeFile(*out, rendered);
    std::printf("lint: %s\n", report.summary().c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return report.hasErrors() ? 3 : 0;
}

// ---- resumable flow + cache maintenance ----------------------------------

std::filesystem::path cacheRoot(const Args& args) {
  if (const auto dir = args.get("cache-dir")) return *dir;
  if (const auto env = env::get("SCT_CACHE_DIR")) return *env;
  throw std::runtime_error("need --cache-dir (or the SCT_CACHE_DIR variable)");
}

/// Flow job description from the command line; shared verbatim between the
/// local `flow` command and `client flow` (the daemon round trip), so both
/// paths compute and render exactly the same request.
core::FlowJob flowJobFromArgs(const Args& args) {
  core::FlowJob job;
  job.profile = args.get("profile").value_or("full");
  job.workload = args.get("workload").value_or(job.workload);
  job.period = args.requireDouble("period");
  if (const auto method = args.get("method")) {
    job.method = *method;
    job.value = args.requireDouble("value");
  }
  job.mcCount = args.getUint("mc", 0);  // 0 = profile default
  job.mcSeed = args.getUint("seed", job.mcSeed);
  job.lintMode = args.get("lint-mode").value_or("error");
  return job;
}

core::FlowConfig makeFlowConfigFor(const core::FlowJob& job,
                                   const Args& args) {
  core::FlowConfig config = core::makeFlowConfig(job);
  if (!args.has("no-cache")) {
    if (const auto dir = args.get("cache-dir")) {
      config.cacheDir = *dir;
    } else if (const auto env = env::get("SCT_CACHE_DIR")) {
      config.cacheDir = *env;
    }
  }
  // The in-memory tier in front of the store (--mem-cache-mb bounds it,
  // --no-mem-cache disables it; it never changes results).
  if (args.has("no-mem-cache")) {
    config.memCacheBytes = 0;
  } else {
    config.memCacheBytes = args.getUint("mem-cache-mb", 64) << 20;
  }
  return config;
}

core::FlowConfig makeFlowConfig(const Args& args) {
  return makeFlowConfigFor(flowJobFromArgs(args), args);
}

/// Scenario job description from the command line; shared verbatim between
/// the local `scenario` command and `client scenario`, so both paths encode
/// identical jobs (and therefore identical cache keys and report bytes).
postsi::ScenarioJob scenarioJobFromArgs(const Args& args) {
  postsi::ScenarioJob job;
  job.flow.profile = args.get("profile").value_or("full");
  job.flow.workload = args.get("workload").value_or(job.flow.workload);
  job.flow.period = 0.0;  // per-cell periods live in job.periods
  if (const auto method = args.get("method")) {
    job.flow.method = *method;
    job.flow.value = args.requireDouble("value");
  }
  job.flow.mcCount = args.getUint("mc", 0);
  job.flow.mcSeed = args.getUint("seed", job.flow.mcSeed);
  job.flow.lintMode = args.get("lint-mode").value_or("error");
  if (const auto list = args.get("periods")) {
    std::stringstream stream(*list);
    std::string token;
    while (std::getline(stream, token, ',')) {
      if (!token.empty()) job.periods.push_back(std::stod(token));
    }
  } else {
    // Paper protocol: the four clock periods as ratios of a base period.
    job.periods = postsi::paperPeriods(args.requireDouble("period"));
  }
  job.scenarios = args.get("scenarios").value_or(job.scenarios);
  job.element.rangeMin = std::stod(args.get("tune-range-min").value_or("0"));
  job.element.rangeMax = std::stod(args.get("tune-range-max").value_or("0.3"));
  job.element.step = std::stod(args.get("tune-step").value_or("0.05"));
  job.element.areaPerElement = std::stod(args.get("tune-area").value_or("2"));
  job.mcTrials = args.getUint("trials", 0);  // 0 = profile default
  job.mcSeed = job.flow.mcSeed;
  return job;
}

int cmdScenario(const Args& args) {
  const postsi::ScenarioJob job = scenarioJobFromArgs(args);
  core::TuningFlow flow(makeFlowConfigFor(job.flow, args));
  const postsi::ScenarioRunResult result = postsi::runScenarioJob(flow, job);
  std::printf("%s\n", result.summary.c_str());
  // The body choice mirrors the daemon's (json flag selects the rendering),
  // so a --report file and a `client scenario --report` file are
  // byte-identical for the same job.
  const std::string& body = args.has("json") ? result.json : result.report;
  if (const auto out = args.get("report")) {
    writeFile(*out, body);
  } else {
    std::fputs(body.c_str(), stdout);
  }
  // Unmet cells at tight paper periods are the measurement the matrix
  // exists to take (yield < 1), not a command failure — unlike `flow`,
  // which targets a single period and exits 2 when it is missed.
  return 0;
}

/// Evolve job description from the command line; shared verbatim between the
/// local `evolve` command and `client evolve`, so both paths encode identical
/// jobs (and therefore identical cache keys and report bytes).
evo::EvolveJob evolveJobFromArgs(const Args& args) {
  evo::EvolveJob job;
  job.flow.profile = args.get("profile").value_or("full");
  job.flow.workload = args.get("workload").value_or(job.flow.workload);
  job.flow.period = args.requireDouble("period");
  job.flow.mcCount = args.getUint("mc", 0);
  job.flow.mcSeed = args.getUint("seed", job.flow.mcSeed);
  job.flow.lintMode = args.get("lint-mode").value_or("error");
  job.params.population = args.getUint("population", job.params.population);
  job.params.generations =
      args.getUint("generations", job.params.generations);
  job.params.objectives =
      args.get("objectives").value_or(job.params.objectives);
  if (const auto v = args.get("gene-min")) job.params.geneMin = std::stod(*v);
  if (const auto v = args.get("gene-max")) job.params.geneMax = std::stod(*v);
  job.params.seed = args.getUint("evo-seed", job.params.seed);
  return job;
}

int cmdEvolve(const Args& args) {
  const evo::EvolveJob job = evolveJobFromArgs(args);
  core::TuningFlow flow(makeFlowConfigFor(job.flow, args));
  const evo::EvolveRunResult result = evo::runEvolveJob(flow, job);
  std::printf("%s\n", result.summary.c_str());
  // The body choice mirrors the daemon's (json flag selects the rendering),
  // so a --report file and a `client evolve --report` file are
  // byte-identical for the same job.
  const std::string& body = args.has("json") ? result.json : result.report;
  if (const auto out = args.get("report")) {
    writeFile(*out, body);
  } else {
    std::fputs(body.c_str(), stdout);
  }
  return result.success ? 0 : 2;
}

int cmdFlow(const Args& args) {
  core::TuningFlow flow(makeFlowConfig(args));
  const core::FlowJob job = flowJobFromArgs(args);
  // The summary line and report bytes come from the same renderer the
  // daemon uses (core::runFlowJob), so `flow --report` output and a
  // `client flow` response body are byte-identical by construction.
  const core::FlowJobResult result = core::runFlowJob(flow, job);
  std::printf("%s\n", result.summary.c_str());
  if (const auto out = args.get("report")) writeFile(*out, result.report);

  if (obs::metricsEnabled()) {
    printStageTable(obs::MetricsRegistry::global().snapshot());
  }

  if (args.has("cache-stats")) {
    if (const artifact::ArtifactStore* store = flow.cache()) {
      const artifact::StoreStats& s = store->stats();
      const auto [files, bytes] = store->diskUsage();
      std::printf(
          "cache %s: %zu hits, %zu misses, %zu corrupt, %zu stores; "
          "%.1f KB read, %.1f KB written; %zu entries / %.1f KB on disk\n",
          store->root().c_str(), s.hits.load(), s.misses.load(),
          s.corrupt.load(), s.stores.load(),
          static_cast<double>(s.bytesRead.load()) / 1024.0,
          static_cast<double>(s.bytesWritten.load()) / 1024.0, files,
          static_cast<double>(bytes) / 1024.0);
    } else {
      std::printf("cache: disabled\n");
    }
  }
  return result.success ? 0 : 2;
}

int cmdCacheStats(const Args& args) {
  const artifact::ArtifactStore store(cacheRoot(args));
  const auto [files, bytes] = store.diskUsage();
  if (args.has("json")) {
    // Summaries route through the same deterministic exporter the flow's
    // --metrics-out uses (gauges record even while metrics are off).
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("cache.entries").set(static_cast<double>(files));
    registry.gauge("cache.bytes").set(static_cast<double>(bytes));
    obs::writeMetricsJson(std::cout, registry.snapshot());
    return 0;
  }
  std::printf("cache %s: %zu entries, %.1f KB\n", store.root().c_str(), files,
              static_cast<double>(bytes) / 1024.0);
  return 0;
}

int cmdCacheGc(const Args& args) {
  artifact::ArtifactStore store(cacheRoot(args));
  artifact::GcPolicy policy;
  policy.maxBytes = args.getUint("max-bytes", 0);
  policy.maxAgeSeconds = args.getUint("max-age", 0);
  const artifact::GcResult r = store.gc(policy);
  if (args.has("json")) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("cache.gc.files_removed")
        .set(static_cast<double>(r.filesRemoved));
    registry.gauge("cache.gc.bytes_removed")
        .set(static_cast<double>(r.bytesRemoved));
    registry.gauge("cache.gc.files_kept").set(static_cast<double>(r.filesKept));
    registry.gauge("cache.gc.bytes_kept").set(static_cast<double>(r.bytesKept));
    obs::writeMetricsJson(std::cout, registry.snapshot());
    return 0;
  }
  std::printf(
      "cache gc %s: removed %zu entries (%.1f KB), kept %zu (%.1f KB)\n",
      store.root().c_str(), r.filesRemoved,
      static_cast<double>(r.bytesRemoved) / 1024.0, r.filesKept,
      static_cast<double>(r.bytesKept) / 1024.0);
  return 0;
}

// ---- daemon client -------------------------------------------------------

/// Connection target for `sctune client`: --socket (Unix-domain path, also
/// the SCT_SOCKET variable) or --tcp-port (127.0.0.1 loopback).
server::Client connectClient(const Args& args) {
  if (const auto port = args.get("tcp-port")) {
    return server::Client::connectTcp(
        static_cast<std::uint16_t>(std::stoul(*port)));
  }
  if (const auto path = args.get("socket")) {
    return server::Client::connectUnix(*path);
  }
  if (const auto env = env::get("SCT_SOCKET")) {
    return server::Client::connectUnix(*env);
  }
  throw std::runtime_error(
      "need --socket PATH or --tcp-port N (or the SCT_SOCKET variable)");
}

/// Renders one daemon response like the equivalent local command would:
/// summary to stdout, body to --report/--out or stdout. Exit codes: 0 ok,
/// 1 error, 4 busy, 5 deadline expired, 6 server shutting down.
int finishClientCall(const server::Response& response, const Args& args) {
  if (!response.summary.empty()) {
    std::printf("%s\n", response.summary.c_str());
  }
  if (!response.body.empty()) {
    std::optional<std::string> out = args.get("report");
    if (!out) out = args.get("out");
    if (out) {
      writeFile(*out, response.body);
    } else {
      std::fputs(response.body.c_str(), stdout);
    }
  }
  switch (response.status) {
    case server::Status::kOk: return 0;
    case server::Status::kBusy: return 4;
    case server::Status::kTimeout: return 5;
    case server::Status::kShuttingDown: return 6;
    case server::Status::kError:
    default: return 1;
  }
}

int cmdClient(const std::string& op, const Args& args) {
  server::Client client = connectClient(args);
  if (op == "flow") {
    server::FlowRequest request;
    request.job = flowJobFromArgs(args);
    request.deadlineMillis = args.getUint("deadline-ms", 0);
    return finishClientCall(client.flow(request), args);
  }
  if (op == "scenario") {
    const postsi::ScenarioJob job = scenarioJobFromArgs(args);
    server::ScenarioRequest request;
    request.job = job.flow;
    request.periods = job.periods;
    request.scenarios = job.scenarios;
    request.rangeMin = job.element.rangeMin;
    request.rangeMax = job.element.rangeMax;
    request.step = job.element.step;
    request.areaPerElement = job.element.areaPerElement;
    request.mcTrials = job.mcTrials;
    request.mcSeed = job.mcSeed;
    request.json = args.has("json");
    request.deadlineMillis = args.getUint("deadline-ms", 0);
    return finishClientCall(client.scenario(request), args);
  }
  if (op == "evolve") {
    const evo::EvolveJob job = evolveJobFromArgs(args);
    server::EvolveRequest request;
    request.job = job.flow;
    request.params = job.params;
    request.json = args.has("json");
    request.deadlineMillis = args.getUint("deadline-ms", 0);
    return finishClientCall(client.evolve(request), args);
  }
  if (op == "lint") {
    server::LintRequest request;
    request.artifactType = args.require("type");
    request.content = readFile(args.require("path"));
    request.json = args.has("json");
    request.deadlineMillis = args.getUint("deadline-ms", 0);
    return finishClientCall(client.lint(request), args);
  }
  if (op == "sta") {
    server::StaRequest request;
    request.libraryText = readFile(args.require("lib"));
    request.netlistText = readFile(args.require("netlist"));
    request.period = args.requireDouble("period");
    request.deadlineMillis = args.getUint("deadline-ms", 0);
    return finishClientCall(client.sta(request), args);
  }
  if (op == "ping") {
    server::PingRequest request;
    request.echo = args.get("echo").value_or("");
    request.sleepMillis = args.getUint("sleep-ms", 0);
    request.deadlineMillis = args.getUint("deadline-ms", 0);
    return finishClientCall(client.ping(request), args);
  }
  if (op == "health") return finishClientCall(client.health(), args);
  if (op == "shutdown") return finishClientCall(client.shutdown(), args);
  throw std::runtime_error(
      "unknown client op '" + op +
      "' (flow|scenario|evolve|lint|sta|ping|health|shutdown)");
}

int usage() {
  std::printf(
      "sctune — standard cell library tuning for variability tolerant "
      "designs\n\n"
      "usage: sctune <command> [--flag value ...]\n\n"
      "commands:\n"
      "  characterize  --out lib.lib [--corner TT] [--mc 50 --seed 2014\n"
      "                --stat-out stat.slib]\n"
      "  generate      --design mcu|dsp|noc|big|accumulator --out design.v\n"
      "  tune          --stat stat.slib --method sigma-ceiling --value 0.02\n"
      "                --out constraints.txt [--script constraints.tcl]\n"
      "  synth         --lib lib.lib --design <name|file.v> --period <ns>\n"
      "                [--constraints c.txt] [--out mapped.v]\n"
      "  report        --lib lib.lib --stat stat.slib --netlist mapped.v\n"
      "                --period <ns> [--out report.txt]\n"
      "  lint          <artifact> [--type lib|stat|netlist|constraints]\n"
      "                [--ref nominal.lib] [--json | --sarif] [--out file]\n"
      "                (type inferred from .lib/.slib/.v/.txt; exit 3 when\n"
      "                 error-severity findings exist)\n"
      "  flow          --period <ns> [--method <m> --value <v>]\n"
      "                [--workload mcu|dsp|noc|big]\n"
      "                [--profile small|full] [--mc N --seed S]\n"
      "                [--cache-dir DIR | --no-cache] [--cache-stats]\n"
      "                [--no-mem-cache | --mem-cache-mb N]\n"
      "                [--lint-mode error|warn|off] [--report report.txt]\n"
      "  scenario      --period <ns> | --periods a,b,c — post-silicon\n"
      "                scenario matrix (tuning/clock/buffers) at each period;\n"
      "                [--scenarios LIST] [--method <m> --value <v>]\n"
      "                [--profile small|full] [--trials N] [--tune-range-min\n"
      "                X --tune-range-max Y --tune-step S --tune-area A]\n"
      "                [--json] [--report report.txt] + flow cache flags\n"
      "  evolve        --period <ns> — multi-objective evolutionary window\n"
      "                tuner (NSGA-II over per-cluster sigma thresholds,\n"
      "                seeded with the five paper methods' sweep points);\n"
      "                [--workload mcu|dsp|noc|big] [--population N]\n"
      "                [--generations G] [--objectives sigma,area,power]\n"
      "                [--gene-min X --gene-max Y] [--evo-seed S]\n"
      "                [--profile small|full] [--json] [--report report.txt]\n"
      "                + flow cache flags\n"
      "  client <op>   --socket PATH | --tcp-port N — run <op> on a sctuned\n"
      "                daemon: flow (same flags as flow), scenario (same\n"
      "                flags as scenario), evolve (same flags as evolve),\n"
      "                lint (--path F\n"
      "                --type T [--json]), sta (--lib F --netlist F\n"
      "                --period <ns>), ping ([--sleep-ms N --echo TEXT]),\n"
      "                health, shutdown; all ops accept --deadline-ms N\n"
      "  cache stats   --cache-dir DIR [--json]\n"
      "  cache gc      --cache-dir DIR [--max-bytes N] [--max-age seconds]\n"
      "                [--json]\n\n"
      "flow and cache default --cache-dir to SCT_CACHE_DIR; warm flow reruns\n"
      "load every stage artifact and are bit-identical to cold runs.\n"
      "every command accepts --threads <N|serial|auto> (default: the\n"
      "SCT_THREADS environment variable); results do not depend on it.\n"
      "flow, synth and lint accept --trace-out trace.json (Chrome/Perfetto\n"
      "span trace), --metrics-out metrics.json and --obs-off; SCT_TRACE=1 /\n"
      "SCT_METRICS=1 enable collection without an output file. Observability\n"
      "never changes any numeric artifact.\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  int start = 2;
  std::string lintPath;
  if (command == "lint") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "lint needs an artifact file operand\n\n");
      return usage();
    }
    lintPath = argv[2];
    start = 3;
  }
  if (command == "cache") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "cache needs a subcommand (stats|gc)\n\n");
      return usage();
    }
    command = std::string("cache ") + argv[2];
    start = 3;
  }
  std::string clientOp;
  if (command == "client") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr,
                   "client needs an op (flow|lint|sta|ping|health|"
                   "shutdown)\n\n");
      return usage();
    }
    clientOp = argv[2];
    start = 3;
  }
  try {
    std::vector<std::string> booleans;
    if (command == "flow") {
      booleans = {"no-cache", "no-mem-cache", "cache-stats", "obs-off"};
    }
    if (command == "scenario" || command == "evolve") {
      booleans = {"no-cache", "no-mem-cache", "json", "obs-off"};
    }
    if (command == "synth") booleans = {"obs-off"};
    if (command == "lint") booleans = {"json", "sarif", "obs-off"};
    if (command == "client") booleans = {"json"};
    if (command == "cache stats" || command == "cache gc") booleans = {"json"};
    const Args args(argc, argv, start, std::move(booleans));
    // Worker-pool size for the parallelized kernels. The flag takes
    // precedence over SCT_THREADS; results are identical either way.
    if (const auto threads = args.get("threads")) {
      const std::size_t hw = std::thread::hardware_concurrency();
      parallel::setThreadCount(
          parallel::parseThreadSpec(*threads, hw > 1 ? hw : 0));
    }
    const ObsOptions obsOptions = setupObservability(args);
    int code = -1;
    if (command == "characterize") code = cmdCharacterize(args);
    else if (command == "generate") code = cmdGenerate(args);
    else if (command == "tune") code = cmdTune(args);
    else if (command == "synth") code = cmdSynth(args);
    else if (command == "report") code = cmdReport(args);
    else if (command == "lint") code = cmdLint(lintPath, args);
    else if (command == "flow") code = cmdFlow(args);
    else if (command == "scenario") code = cmdScenario(args);
    else if (command == "evolve") code = cmdEvolve(args);
    else if (command == "cache stats") code = cmdCacheStats(args);
    else if (command == "cache gc") code = cmdCacheGc(args);
    else if (command == "client") code = cmdClient(clientOp, args);
    else {
      std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
      return usage();
    }
    finishObservability(obsOptions);
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
