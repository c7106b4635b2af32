#include "core/flow_job.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "artifact/hash.hpp"
#include "core/fmt17.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "tuning/constraints_io.hpp"

namespace sct::core {

tuning::TuningMethod tuningMethodByName(const std::string& name) {
  for (const tuning::MethodName& row : tuning::kMethodNames) {
    if (row.name == name) return row.method;
  }
  throw std::runtime_error("unknown method '" + name + "'");
}

std::optional<tuning::TuningConfig> tuningConfigOf(const FlowJob& job) {
  if (job.method.empty()) return std::nullopt;
  return tuning::TuningConfig::forMethod(tuningMethodByName(job.method),
                                         job.value);
}

FlowConfig makeFlowConfig(const FlowJob& job) {
  FlowConfig config;
  if (job.profile == "small") {
    // Shrunk grid/subject for smoke runs; same shape as the full pipeline.
    config.characterization.slewAxis = {0.002, 0.05, 0.2, 0.6};
    config.characterization.loadFractions = {0.01, 0.1, 0.4, 1.0};
    config.mcLibraryCount = 10;
    config.mcu.registers = 8;
    config.mcu.readPorts = 2;
    config.mcu.bankedRegisters = 1;
    config.mcu.macUnits = 1;
    config.mcu.macWidth = 8;
    config.mcu.timers = 1;
    config.mcu.dmaChannels = 1;
    config.mcu.gpioWidth = 16;
    config.mcu.cacheTagEntries = 16;
    config.mcu.decodeOutputs = 64;
    config.mcu.interruptSources = 8;
    config.dsp.dataWidth = 8;
    config.dsp.taps = 4;
    config.dsp.accWidth = 18;
    config.dsp.channels = 1;
    config.noc.ports = 4;
    config.noc.flitWidth = 8;
    config.noc.vcs = 2;
    config.noc.bufferDepth = 1;
    config.big.primaryInputs = 16;
    config.big.primaryOutputs = 16;
    config.big.scale = 4;  // ~800 gates: the shape, not the size
  } else if (job.profile != "full") {
    throw std::runtime_error("unknown profile '" + job.profile +
                             "' (small/full)");
  }
  if (!job.workload.empty()) config.workload = job.workload;
  if (job.mcCount != 0) config.mcLibraryCount = job.mcCount;
  config.mcSeed = job.mcSeed;
  if (job.lintMode == "error") {
    config.lintMode = LintMode::kError;
  } else if (job.lintMode == "warn") {
    config.lintMode = LintMode::kWarn;
  } else if (job.lintMode == "off") {
    config.lintMode = LintMode::kOff;
  } else {
    throw std::runtime_error("unknown lint mode '" + job.lintMode +
                             "' (error/warn/off)");
  }
  return config;
}

namespace {

/// Path lines per report chunk. Chunk contents depend on this alone; the
/// chunks render on the pool and join in order.
constexpr std::size_t kPathsPerChunk = 512;
/// Reserve per path line beyond its endpoint name: four doubles of at most
/// 24 characters, a count of at most 20 and 42 characters of keywords.
constexpr std::size_t kPathLineReserve = 160;

void appendCount(std::string& out, std::size_t v) {
  char buffer[24];
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof buffer, v);
  out.append(buffer, r.ptr);
}

void appendPathLine(std::string& out, const PathRecord& p) {
  out += "path ";
  out += p.endpoint;
  out += " depth ";
  appendCount(out, p.depth);
  out += " mean ";
  fmt17(out, p.mean);
  out += " sigma ";
  fmt17(out, p.sigma);
  out += " arrival ";
  fmt17(out, p.arrival);
  out += " slack ";
  fmt17(out, p.slack);
  out += '\n';
}

}  // namespace

FlowJobResult runFlowJob(TuningFlow& flow, const FlowJob& job) {
  const std::optional<tuning::TuningConfig> tuningConfig = tuningConfigOf(job);
  const DesignMeasurement m = tuningConfig
                                  ? flow.synthesizeTuned(job.period, *tuningConfig)
                                  : flow.synthesizeBaseline(job.period);

  SCT_TRACE_SPAN("flow.report");
  FlowJobResult result;
  result.success = m.success();

  char summary[256];
  std::snprintf(summary, sizeof summary,
                "flow: %s | wns %+.4f ns | area %.0f um^2 | %zu gates | "
                "design sigma %.4f ns over %zu paths",
                m.success() ? "MET" : "FAILED", m.synthesis.worstSlack,
                m.area(), m.synthesis.design.gateCount(), m.sigma(),
                m.paths.size());
  result.summary = summary;

  const std::size_t chunks =
      (m.paths.size() + kPathsPerChunk - 1) / kPathsPerChunk;
  const std::vector<std::string> pathText = parallel::parallelMap(
      chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * kPathsPerChunk;
        const std::size_t end =
            std::min(begin + kPathsPerChunk, m.paths.size());
        std::size_t bytes = 0;
        for (std::size_t i = begin; i < end; ++i) {
          bytes += m.paths[i].endpoint.size() + kPathLineReserve;
        }
        std::string text;
        text.reserve(bytes);
        for (std::size_t i = begin; i < end; ++i) {
          appendPathLine(text, m.paths[i]);
        }
        return text;
      },
      1);

  std::string& report = result.report;
  report += "flow-report v1\ndesign ";
  report += m.synthesis.design.name();
  report += " period ";
  fmt17(report, job.period);
  report += "\nsynthesis met ";
  report += m.synthesis.timingMet ? '1' : '0';
  report += " legal ";
  report += m.synthesis.legal ? '1' : '0';
  report += " wns ";
  fmt17(report, m.synthesis.worstSlack);
  report += " tns ";
  fmt17(report, m.synthesis.tns);
  report += " area ";
  fmt17(report, m.synthesis.area);
  report += "\ngates ";
  appendCount(report, m.synthesis.design.gateCount());
  report += " buffers ";
  appendCount(report, m.synthesis.buffersInserted);
  report += " resizes ";
  appendCount(report, m.synthesis.resizes);
  report += " decomposed ";
  appendCount(report, m.synthesis.decomposed);
  report += "\ndesign-sigma ";
  fmt17(report, m.sigma());
  report += " paths ";
  appendCount(report, m.paths.size());
  report += "\npower mean ";
  fmt17(report, m.power.meanPower);
  report += " sigma ";
  fmt17(report, m.power.sigmaPower);
  report += " cells ";
  appendCount(report, m.power.cells);
  report += '\n';
  if (m.constraints) {
    artifact::Hasher hasher;
    hasher.str(tuning::writeConstraintsToString(*m.constraints));
    report += "constraints ";
    appendCount(report, m.constraints->size());
    report += " unusable ";
    appendCount(report, m.constraints->unusableCellCount());
    report += " digest ";
    report += hasher.digest().hex();
    report += '\n';
  }
  std::size_t bytes = report.size();
  for (const std::string& text : pathText) bytes += text.size();
  report.reserve(bytes);
  for (const std::string& text : pathText) report += text;
  return result;
}

}  // namespace sct::core
