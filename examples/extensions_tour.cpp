// Example: the extension layers beyond the paper's core experiments —
// hold-time analysis, transition-power statistics and power-metric tuning,
// clock-tree variation analysis, and the serialization formats (statistical
// library, tuned constraints, synthesis script, structural Verilog).
//
// Build & run:  ./build/examples/extensions_tour

#include <cstdio>

#include "clocktree/clock_tree.hpp"
#include "core/flow.hpp"
#include "netlist/analysis.hpp"
#include "netlist/verilog_io.hpp"
#include "power/power_stats.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"

int main() {
  using namespace sct;

  // Compact flow so the tour runs in seconds.
  core::FlowConfig config;
  config.mcu.registers = 16;
  config.mcu.timers = 2;
  config.mcu.dmaChannels = 1;
  config.mcu.gpioWidth = 32;
  config.mcu.cacheTagEntries = 32;
  core::TuningFlow flow(config);

  const double period = flow.findMinPeriod().value_or(5.0) * 1.05;
  const core::DesignMeasurement design = flow.synthesizeBaseline(period);
  std::printf("design: %zu gates @ %.3f ns (setup wns %+.3f ns)\n",
              design.synthesis.design.gateCount(), period,
              design.synthesis.worstSlack);

  // --- netlist statistics -------------------------------------------------
  const netlist::DesignStats stats =
      netlist::analyzeDesign(design.synthesis.design);
  std::printf("\n[netlist] comb %zu, seq %zu, max fanout %zu, avg fanout "
              "%.2f\n",
              stats.combinational, stats.sequential, stats.maxFanout,
              stats.averageFanout);

  // --- hold analysis -------------------------------------------------------
  sta::ClockSpec clock = flow.config().clock;
  clock.period = period;
  clock.inputDelay = 0.1;  // external hold margin at the inputs
  sta::TimingAnalyzer sta(design.synthesis.design, flow.nominalLibrary(),
                          clock);
  sta.analyze();
  std::printf("\n[hold] worst hold slack %+.4f ns (%s)\n",
              sta.worstHoldSlack(), sta.holdMet() ? "met" : "VIOLATED");

  // --- power ---------------------------------------------------------------
  const power::PowerModel powerModel(flow.characterizer().model());
  const power::DesignPower pwr =
      power::analyzeDesignPower(design.synthesis.design, sta,
                                flow.characterizer(), powerModel, 0.15,
                                flow.powerDraws());
  std::printf("\n[power] dynamic power %.1f uW, sigma %.3f uW over %zu cells "
              "(activity 0.15)\n",
              pwr.meanPower, pwr.sigmaPower, pwr.cells);

  // --- clock tree ----------------------------------------------------------
  const auto tree = clocktree::buildClockTree(
      design.synthesis.design, flow.nominalLibrary(), flow.statLibrary());
  if (tree) {
    std::printf("\n[clock tree] %zu sinks, %zu buffers in %zu levels; "
                "insertion %.3f ns, skew sigma %.4f ns\n",
                tree->sinkCount, tree->bufferCount(), tree->levels.size(),
                tree->insertionDelay(), tree->worstSkewSigma());
  }

  // --- serialization sizes -------------------------------------------------
  const auto constraints = flow.tune(
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02));
  const std::string statText =
      statlib::writeStatLibraryToString(flow.statLibrary());
  const std::string constraintText =
      tuning::writeConstraintsToString(constraints);
  const std::string script = tuning::writeSynthesisScriptToString(
      constraints, flow.nominalLibrary().name());
  const std::string verilog =
      netlist::writeVerilogToString(design.synthesis.design);
  std::printf("\n[artifacts] statistical library %.0f KB | constraints %.0f "
              "KB | synthesis script %.0f KB | gate-level Verilog %.0f KB\n",
              statText.size() / 1024.0, constraintText.size() / 1024.0,
              script.size() / 1024.0, verilog.size() / 1024.0);
  std::printf("\nfirst lines of the synthesis script:\n%.300s...\n",
              script.c_str());
  return 0;
}
