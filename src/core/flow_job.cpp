#include "core/flow_job.hpp"

#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "artifact/hash.hpp"
#include "core/fmt17.hpp"
#include "tuning/constraints_io.hpp"

namespace sct::core {

tuning::TuningMethod tuningMethodByName(const std::string& name) {
  if (name == "strength-load") return tuning::TuningMethod::kCellStrengthLoadSlope;
  if (name == "strength-slew") return tuning::TuningMethod::kCellStrengthSlewSlope;
  if (name == "cell-load") return tuning::TuningMethod::kCellLoadSlope;
  if (name == "cell-slew") return tuning::TuningMethod::kCellSlewSlope;
  if (name == "sigma-ceiling") return tuning::TuningMethod::kSigmaCeiling;
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

FlowJobResult runFlowJob(TuningFlow& flow, const FlowJob& job) {
  const std::optional<tuning::TuningConfig> tuningConfig = tuningConfigOf(job);
  const DesignMeasurement m = tuningConfig
                                  ? flow.synthesizeTuned(job.period, *tuningConfig)
                                  : flow.synthesizeBaseline(job.period);

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

  std::ostringstream report;
  report << "flow-report v1\n";
  report << "design " << m.synthesis.design.name() << " period "
         << fmt17(job.period) << "\n";
  report << "synthesis met " << m.synthesis.timingMet << " legal "
         << m.synthesis.legal << " wns " << fmt17(m.synthesis.worstSlack)
         << " tns " << fmt17(m.synthesis.tns) << " area "
         << fmt17(m.synthesis.area) << "\n";
  report << "gates " << m.synthesis.design.gateCount() << " buffers "
         << m.synthesis.buffersInserted << " resizes " << m.synthesis.resizes
         << " decomposed " << m.synthesis.decomposed << "\n";
  report << "design-sigma " << fmt17(m.sigma()) << " paths " << m.paths.size()
         << "\n";
  report << "power mean " << fmt17(m.power.meanPower) << " sigma "
         << fmt17(m.power.sigmaPower) << " cells " << m.power.cells << "\n";
  if (tuningConfig) {
    const tuning::LibraryConstraints constraints = flow.tune(*tuningConfig);
    artifact::Hasher hasher;
    hasher.str(tuning::writeConstraintsToString(constraints));
    report << "constraints " << constraints.size() << " unusable "
           << constraints.unusableCellCount() << " digest "
           << hasher.digest().hex() << "\n";
  }
  for (const PathRecord& p : m.paths) {
    report << "path " << p.endpoint << " depth " << p.depth << " mean "
           << fmt17(p.mean) << " sigma " << fmt17(p.sigma) << " arrival "
           << fmt17(p.arrival) << " slack " << fmt17(p.slack) << "\n";
  }
  result.report = report.str();
  return result;
}

}  // namespace sct::core
