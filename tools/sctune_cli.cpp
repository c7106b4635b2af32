// sctune — command-line driver for the library-tuning flow.
//
// Subcommands (artifacts are the repository's text formats, so stages can
// run in separate invocations, like the tool hand-offs in the paper):
//
//   sctune characterize --out lib.lib [--corner TT|SS|FF] [--mc N --seed S
//                        --stat-out stat.slib]
//   sctune generate     --design mcu|dsp|noc|big|accumulator --out design.v
//   sctune tune         --stat stat.slib --method <name> --value <v>
//                        --out constraints.txt [--script constraints.tcl]
//   sctune synth        --lib lib.lib --design <name|netlist.v>
//                        --period <ns> [--constraints c.txt] [--out out.v]
//   sctune report       --lib lib.lib --stat stat.slib
//                        --netlist out.v --period <ns>
//   sctune cache stats  --cache-dir DIR
//   sctune cache gc     --cache-dir DIR [--max-bytes N] [--max-age seconds]
//   sctune flow | scenario | evolve | lint | sta   [flags]
//   sctune client <op> --socket PATH [flags]
//
// Methods: strength-load, strength-slew, cell-load, cell-slew,
//          sigma-ceiling.
//
// The job commands (flow, scenario, evolve, lint, sta) come from the job
// table in server/jobs.hpp: their flags are the table's field names, and
// `sctune <kind>` runs the same Kind::run in-process that the daemon runs
// for `sctune client <kind>`, so both print identical bytes. Flow-backed
// jobs run on the content-addressed artifact store (SCT_CACHE_DIR is the
// --cache-dir default): a warm rerun loads every stage artifact instead of
// recomputing, and its --report file is byte-identical to the cold run's.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "artifact/store.hpp"
#include "charlib/characterizer.hpp"
#include "core/env.hpp"
#include "core/flow_job.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "server/client.hpp"
#include "server/jobs.hpp"
#include "sta/report.hpp"
#include "netlist/verilog_io.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"
#include "variation/path_stats.hpp"
#include "variation/ssta.hpp"

namespace {

using namespace sct;

/// Minimal --flag value parser. Flags listed in `booleanFlags` take no
/// value operand; `start` skips the command (and subcommand) words. One
/// bare word is accepted as the value of `operandFlag` when the command
/// has one (`lint <artifact>` is `lint --path <artifact>`).
class Args {
 public:
  Args(int argc, char** argv, int start,
       const std::vector<std::string>& booleanFlags,
       const char* operandFlag) {
    for (int i = start; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        if (operandFlag == nullptr || values_.contains(operandFlag)) {
          throw std::runtime_error(std::string("expected flag, got ") +
                                   argv[i]);
        }
        values_[operandFlag] = argv[i];
        continue;
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
    return server::parseFlagNumber<double>(key, require(key));
  }
  [[nodiscard]] std::uint64_t getUint(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto v = get(key);
    return v ? server::parseFlagNumber<std::uint64_t>(key, *v) : fallback;
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
/// snapshot. `self_ms` leaves out the stages nested in a stage on the same
/// thread (`tune` resolves `stat`, `synth` generates the subject and maps
/// it); `incl_ms` keeps them. Goes to stdout only — never into the
/// --report file, whose bytes must not depend on whether observability is
/// on.
void printStageTable(const obs::MetricsSnapshot& snapshot) {
  bool header = false;
  for (const char* stage : {"nominal", "stat", "subject", "map", "prefix",
                            "tune", "synth", "measure", "lint"}) {
    const std::string prefix = std::string("flow.stage.") + stage + ".";
    if (!snapshot.hasCounter(prefix + "ns") &&
        !snapshot.hasCounter(prefix + "probes")) {
      continue;
    }
    if (!std::exchange(header, true)) {
      std::printf("%-10s %10s %10s %7s %5s %7s %7s\n", "stage", "self_ms",
                  "incl_ms", "probes", "hits", "misses", "stores");
    }
    const std::uint64_t inclusive = snapshot.counterValue(prefix + "ns");
    const std::uint64_t nested = snapshot.counterValue(prefix + "nested_ns");
    std::printf(
        "%-10s %10.2f %10.2f %7llu %5llu %7llu %7llu\n", stage,
        static_cast<double>(inclusive - std::min(nested, inclusive)) / 1e6,
        static_cast<double>(inclusive) / 1e6,
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

netlist::Design designByName(const std::string& name,
                             const liberty::Library* library) {
  if (core::isWorkload(name)) {
    // The flow's subject at the default (full-profile) generator configs.
    core::FlowConfig config;
    config.workload = name;
    return core::generateSubject(config);
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
      core::tuningMethodByName(args.require("method")),
      args.requireDouble("value"));
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

// ---- job-table commands: flow, scenario, evolve, lint, sta ---------------

void parseInto(const char*, std::string& field, const std::string& value) {
  field = value;
}
void parseInto(const char* flag, double& field, const std::string& value) {
  field = server::parseFlagNumber<double>(flag, value);
}
void parseInto(const char* flag, std::uint64_t& field,
               const std::string& value) {
  field = server::parseFlagNumber<std::uint64_t>(flag, value);
}
void parseInto(const char*, bool& field, const std::string&) { field = true; }
void parseInto(const char* flag, std::vector<double>& field,
               const std::string& value) {
  field.clear();
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) {
      field.push_back(server::parseFlagNumber<double>(flag, token));
    }
  }
}
void parseInto(const char*, server::FileArg& field, const std::string& value) {
  field.path = value;
  field.text = readFile(value);
}

/// The job a command line describes, through its kind's field list (so
/// `sctune <kind>` and `sctune client <kind>` cannot disagree): each
/// field's flag overrides the job default, file flags are read here, and a
/// required flag that is missing is an error.
template <class Kind>
typename Kind::Job jobFromArgs(const Args& args) {
  typename Kind::Job job;
  Kind::fields(job, [&](const char* flag, auto& field,
                        server::Need need = server::Need::kOptional) {
    if (const auto value = args.get(flag)) {
      parseInto(flag, field, *value);
    } else if (need == server::Need::kRequired) {
      throw std::runtime_error(std::string("missing required flag --") + flag);
    }
  });
  return job;
}

/// Calls f(std::type_identity<Kind>{}) for the job kind named `name`;
/// false when no kind has that name.
template <class F>
bool withKind(const std::string& name, F&& f) {
  return server::anyKind([&]<class Kind>(std::type_identity<Kind> kind) {
    if (name != Kind::kName) return false;
    f(kind);
    return true;
  });
}

/// Flags that take no value: the job table's bool fields plus the CLI's
/// own switches.
std::vector<std::string> booleanFlags() {
  std::vector<std::string> names = {"no-cache", "no-mem-cache", "cache-stats",
                                    "obs-off", "json"};
  server::anyKind([&]<class Kind>(std::type_identity<Kind>) {
    typename Kind::Job job;
    Kind::fields(job, [&](const char* flag, auto& field, server::Need = {}) {
      if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
        names.emplace_back(flag);
      }
    });
    return false;
  });
  return names;
}

/// The positional operand's flag for the job kind named `name` (lint's
/// artifact), or nullptr when it takes none.
const char* operandFlag(const std::string& name) {
  const char* flag = nullptr;
  withKind(name, [&]<class Kind>(std::type_identity<Kind>) {
    if constexpr (requires { Kind::kOperand; }) flag = Kind::kOperand;
  });
  return flag;
}

/// Prints one job result identically for `sctune <kind>` and `sctune client
/// <kind>`. With --report/--out the summary goes to stdout and the body to
/// the file; otherwise the body alone goes to stdout (a clean document for
/// pipes) and the summary to stderr.
void renderResult(const std::string& summary, const std::string& body,
                  const Args& args) {
  std::optional<std::string> out = args.get("report");
  if (!out) out = args.get("out");
  if (body.empty() || out) {
    if (!summary.empty()) std::printf("%s\n", summary.c_str());
    if (!body.empty()) writeFile(*out, body);
    return;
  }
  if (!summary.empty()) std::fprintf(stderr, "%s\n", summary.c_str());
  std::fputs(body.c_str(), stdout);
}

/// The cache tiers of a local run: the --cache-dir (or SCT_CACHE_DIR) store
/// unless --no-cache, fronted by a --mem-cache-mb memory tier unless
/// --no-mem-cache. They never change results.
struct LocalCache {
  std::unique_ptr<artifact::ArtifactStore> store;
  std::unique_ptr<artifact::MemoryArtifactCache> mem;

  explicit LocalCache(const Args& args) {
    if (args.has("no-cache")) return;
    std::optional<std::string> dir = args.get("cache-dir");
    if (!dir) dir = env::get("SCT_CACHE_DIR");
    if (!dir) return;
    try {
      store = std::make_unique<artifact::ArtifactStore>(*dir);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "sct: artifact cache disabled: %s\n", error.what());
      return;
    }
    const std::uint64_t memBytes =
        args.has("no-mem-cache") ? 0 : args.getUint("mem-cache-mb", 64) << 20;
    if (memBytes > 0) {
      mem = std::make_unique<artifact::MemoryArtifactCache>(memBytes);
    }
  }
};

void printCacheStats(const artifact::ArtifactStore* store) {
  if (store == nullptr) {
    std::printf("cache: disabled\n");
    return;
  }
  const artifact::StoreStats& s = store->stats();
  const auto [files, bytes] = store->diskUsage();
  std::printf(
      "cache %s: %zu hits, %zu misses, %zu corrupt, %zu stores; "
      "%.1f KB read, %.1f KB written; %zu entries / %.1f KB on disk\n",
      store->root().c_str(), s.hits.load(), s.misses.load(), s.corrupt.load(),
      s.stores.load(), static_cast<double>(s.bytesRead.load()) / 1024.0,
      static_cast<double>(s.bytesWritten.load()) / 1024.0, files,
      static_cast<double>(bytes) / 1024.0);
}

/// `sctune <kind>`: runs the job in-process through the same Kind::run the
/// daemon serves, so its output is byte-identical to `sctune client <kind>`.
template <class Kind>
int cmdJob(const Args& args) {
  const typename Kind::Job job = jobFromArgs<Kind>(args);
  const LocalCache cache(args);
  const server::JobResult result =
      Kind::run(job, {cache.store.get(), cache.mem.get()});
  renderResult(result.summary, result.body, args);
  if (obs::metricsEnabled()) {
    printStageTable(obs::MetricsRegistry::global().snapshot());
  }
  if (args.has("cache-stats")) printCacheStats(cache.store.get());
  return result.exitCode;
}

// ---- cache maintenance ---------------------------------------------------

std::filesystem::path cacheRoot(const Args& args) {
  if (const auto dir = args.get("cache-dir")) return *dir;
  if (const auto env = env::get("SCT_CACHE_DIR")) return *env;
  throw std::runtime_error("need --cache-dir (or the SCT_CACHE_DIR variable)");
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
    return server::Client::connectTcp(server::parseTcpPort(*port));
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

/// A control frame for `sctune client ping|health|shutdown`; nullopt for
/// any other op.
std::optional<std::pair<server::MessageType, std::vector<std::byte>>>
controlFrame(const std::string& op, const Args& args,
             std::uint64_t deadlineMillis) {
  if (op == "ping") {
    return std::pair(server::MessageType::kPingRequest,
                     server::encodePayload(server::PingRequest{
                         args.get("echo").value_or(""),
                         args.getUint("sleep-ms", 0), deadlineMillis}));
  }
  if (op == "health") {
    return std::pair(server::MessageType::kHealthRequest,
                     std::vector<std::byte>{});
  }
  if (op == "shutdown") {
    return std::pair(server::MessageType::kShutdownRequest,
                     std::vector<std::byte>{});
  }
  return std::nullopt;
}

/// `sctune client <op>`: a job-table op resolves its job exactly like the
/// local command and renders the daemon's answer with the same renderer.
/// Exit codes: the job's own when the daemon answered ok, else 1 error,
/// 4 busy, 5 deadline expired, 6 server shutting down.
int cmdClient(const std::string& op, const Args& args) {
  const std::uint64_t deadlineMillis = args.getUint("deadline-ms", 0);
  auto frame = controlFrame(op, args, deadlineMillis);
  withKind(op, [&]<class Kind>(std::type_identity<Kind>) {
    frame.emplace(Kind::kType,
                  server::encodePayload(server::JobRequest<Kind>{
                      jobFromArgs<Kind>(args), deadlineMillis}));
  });
  if (!frame) {
    throw std::runtime_error(
        "unknown client op '" + op +
        "' (flow|scenario|evolve|lint|sta|ping|health|shutdown)");
  }
  server::Client client = connectClient(args);
  const server::Response response = client.call(frame->first, frame->second);
  renderResult(response.summary, response.body, args);
  switch (response.status) {
    case server::Status::kOk: return response.exitCode;
    case server::Status::kBusy: return 4;
    case server::Status::kTimeout: return 5;
    case server::Status::kShuttingDown: return 6;
    case server::Status::kError:
    default: return 1;
  }
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
      "  sta           --lib lib.lib --netlist mapped.v --period <ns>\n"
      "                [--out report.txt] — full timing report\n"
      "  flow          --period <ns> [--method <m> --value <v>]\n"
      "                [--workload mcu|dsp|noc|big]\n"
      "                [--profile small|full] [--mc N --seed S]\n"
      "                [--lint-mode error|warn|off] [--report report.txt]\n"
      "  scenario      --period <ns> | --periods a,b,c — post-silicon\n"
      "                scenario matrix (tuning/clock/buffers) at each period;\n"
      "                [--scenarios LIST] [--method <m> --value <v>]\n"
      "                [--profile small|full] [--trials N] [--tune-range-min\n"
      "                X --tune-range-max Y --tune-step S --tune-area A]\n"
      "                [--json] [--report report.txt]\n"
      "  evolve        --period <ns> — multi-objective evolutionary window\n"
      "                tuner (NSGA-II over per-cluster sigma thresholds,\n"
      "                seeded with the five paper methods' sweep points);\n"
      "                [--workload mcu|dsp|noc|big] [--population N]\n"
      "                [--generations G] [--objectives sigma,area,power]\n"
      "                [--gene-min X --gene-max Y] [--evo-seed S]\n"
      "                [--profile small|full] [--json] [--report report.txt]\n"
      "  client <op>   --socket PATH | --tcp-port N — run <op> on a sctuned\n"
      "                daemon: flow, scenario, evolve, lint and sta take the\n"
      "                same flags and operand as the local command and print\n"
      "                the same output and exit code; ping ([--sleep-ms N\n"
      "                --echo TEXT]), health, shutdown; all ops accept\n"
      "                --deadline-ms N\n"
      "  cache stats   --cache-dir DIR [--json]\n"
      "  cache gc      --cache-dir DIR [--max-bytes N] [--max-age seconds]\n"
      "                [--json]\n\n"
      "flow, scenario, evolve, lint and sta print the summary line and write\n"
      "the body to --report/--out, or print the body alone to stdout (summary\n"
      "on stderr). flow, scenario and evolve take the cache flags --cache-dir\n"
      "DIR (default: SCT_CACHE_DIR) | --no-cache, --no-mem-cache |\n"
      "--mem-cache-mb N and --cache-stats; warm reruns load every stage\n"
      "artifact and are bit-identical to cold runs.\n"
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
                   "client needs an op (flow|scenario|evolve|lint|sta|ping|"
                   "health|shutdown)\n\n");
      return usage();
    }
    clientOp = argv[2];
    start = 3;
  }
  try {
    const Args args(argc, argv, start, booleanFlags(),
                    operandFlag(command == "client" ? clientOp : command));
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
    else if (command == "cache stats") code = cmdCacheStats(args);
    else if (command == "cache gc") code = cmdCacheGc(args);
    else if (command == "client") code = cmdClient(clientOp, args);
    else if (!withKind(command, [&]<class Kind>(std::type_identity<Kind>) {
               code = cmdJob<Kind>(args);
             })) {
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
