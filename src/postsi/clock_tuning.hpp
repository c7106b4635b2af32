#pragma once
// Post-silicon clock tuning (Li & Schlichtmann / EffiTest direction named in
// ROADMAP): every capture register gets a discrete tunable delay element in
// its clock branch (clocktree::TuningElementSpec). After manufacturing, each
// die programs its elements from measured slack; pre-silicon we compute, per
// register, the *distribution* of assignments across Monte-Carlo die
// instances — sampled by variation::sampleDieDelays, the per-die sampler
// behind Figs. 15/16, into a structure-of-arrays slack matrix.
//
// Model per die (trial) t:
//   slack[p][t]  = required_p - mcDelay_p(t)          (path p, die t)
//   need[r][t]   = max over paths captured at r of max(0, -slack)
//   budget[r][t] = min over paths *launched* from r of slack (clamped >= 0):
//                  delaying r's clock also delays its launch edges, so a
//                  register may only borrow slack its downstream paths have
//   a[r][t]      = min(ceil-to-grid(need), floor-to-grid(min(budget,
//                  rangeMax)))   (discrete element; ceiling covers the
//                  need, the floored cap never over-borrows)
//   slack'[p][t] = slack + a[capture(p)] - a[launch(p)]
// The budget clamp makes the per-trial pass set monotone: tuning never turns
// a passing die into a failing one, so designYieldAfter >= designYieldBefore
// by construction.
//
// Each die is sampled at the typical corner with the shared per-die global
// factor and one local mismatch draw per (die, instance), so a cell on
// several paths shifts all of them together. Every draw is a pure function
// of (mcSeed, die, instance): the result is the same for any thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "charlib/characterizer.hpp"
#include "clocktree/clock_tree.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace sct::postsi {

struct ClockTuningConfig {
  clocktree::TuningElementSpec element{};
  std::size_t trials = 200;  ///< Monte-Carlo die instances (paper: N = 200)
  std::uint64_t mcSeed = 2014;
};

/// Statistical tuning range of one register's delay element.
struct RegisterTuning {
  std::string instance;       ///< register (capture flip-flop) name
  double slackMean = 0.0;     ///< worst capture-path MC slack mean [ns]
  double slackSigma = 0.0;
  double assignMean = 0.0;    ///< effective assignment distribution [ns]
  double assignSigma = 0.0;
  double assignMax = 0.0;     ///< largest assignment any die needed
  double chosen = 0.0;        ///< deterministic setting: snap(assignMean)
  double yieldBefore = 0.0;   ///< fraction of dies meeting this register
  double yieldAfter = 0.0;
};

struct ClockTuningResult {
  std::vector<RegisterTuning> registers;
  std::size_t trials = 0;
  std::size_t elements = 0;      ///< tunable elements attached
  double tuningArea = 0.0;       ///< elements * areaPerElement [um^2]
  double designYieldBefore = 0.0;  ///< per-die AND across every path
  double designYieldAfter = 0.0;
};

/// Computes per-register statistical tuning assignments over the endpoint
/// worst paths of an analyzed design. `paths` must come from the analyzer of
/// `design` (TimingAnalyzer::endpointWorstPaths or TuningFlow::tracePaths).
/// With element.enabled() == false the result still carries the MC design
/// yield (designYieldBefore == designYieldAfter) — the scenario baseline.
[[nodiscard]] ClockTuningResult computeClockTuning(
    const charlib::Characterizer& characterizer,
    const netlist::Design& design, const std::vector<sta::TimingPath>& paths,
    const ClockTuningConfig& config);

}  // namespace sct::postsi
