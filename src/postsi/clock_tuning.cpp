#include "postsi/clock_tuning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/statistics.hpp"
#include "parallel/parallel.hpp"
#include "variation/monte_carlo.hpp"

namespace sct::postsi {
namespace {

constexpr double kSlackEps = 1e-12;

/// Smallest grid setting that covers `want` (ceiling on the step grid,
/// capped at the top usable setting). The element must delay the capture
/// clock by *at least* the measured need — flooring would leave the die
/// failing by less than one step.
double snapUp(const clocktree::TuningElementSpec& spec, double want) {
  const double top = spec.snap(spec.rangeMax);
  if (want <= spec.rangeMin) return spec.rangeMin;
  if (want >= top) return top;
  const double floored = spec.snap(want);
  if (want - floored <= kSlackEps) return floored;
  return std::min(floored + spec.step, top);
}

/// Launching register of a path: steps.front() when it is a sequential
/// element (clk->Q launch); kNoInst for paths launched at primary inputs.
netlist::InstIndex launcherOf(const netlist::Design& design,
                              const sta::TimingPath& path) {
  if (path.steps.empty()) return netlist::kNoInst;
  const netlist::InstIndex head = path.steps.front().instance;
  if (head == netlist::kNoInst) return netlist::kNoInst;
  if (!netlist::isSequential(design.instance(head).op)) return netlist::kNoInst;
  return head;
}

}  // namespace

ClockTuningResult computeClockTuning(
    const charlib::Characterizer& characterizer,
    const netlist::Design& design, const std::vector<sta::TimingPath>& paths,
    const ClockTuningConfig& config) {
  ClockTuningResult out;
  out.trials = config.trials;
  const std::size_t numPaths = paths.size();
  const std::size_t trials = config.trials;
  if (numPaths == 0 || trials == 0) {
    out.designYieldBefore = 1.0;
    out.designYieldAfter = 1.0;
    return out;
  }

  // --- Register table: capture instances in first-appearance order. ---
  constexpr std::size_t kNoReg = std::numeric_limits<std::size_t>::max();
  std::vector<netlist::InstIndex> registers;
  std::vector<std::size_t> captureReg(numPaths, kNoReg);
  std::vector<std::size_t> launchReg(numPaths, kNoReg);
  auto regIndex = [&registers](netlist::InstIndex inst) {
    for (std::size_t r = 0; r < registers.size(); ++r) {
      if (registers[r] == inst) return r;
    }
    registers.push_back(inst);
    return registers.size() - 1;
  };
  for (std::size_t p = 0; p < numPaths; ++p) {
    const netlist::InstIndex cap = paths[p].endpoint.instance;
    if (cap != netlist::kNoInst) captureReg[p] = regIndex(cap);
    const netlist::InstIndex lau = launcherOf(design, paths[p]);
    if (lau != netlist::kNoInst) launchReg[p] = regIndex(lau);
  }
  const std::size_t numRegs = registers.size();

  // --- Batched MC: SoA slack matrix, slack[p * trials + t]. ---
  // Trial t is one die of the per-die sampler (shared global factor, one
  // local draw per instance); its delays become slacks in place.
  variation::PathMcConfig mc;
  mc.trials = trials;
  mc.includeGlobal = true;
  mc.seed = config.mcSeed;
  std::vector<double> slack =
      variation::sampleDieDelays(characterizer, paths, mc);
  const std::size_t passBefore =
      variation::countPassingDies(paths, slack, trials);
  for (std::size_t p = 0; p < numPaths; ++p) {
    for (std::size_t t = 0; t < trials; ++t) {
      double& s = slack[p * trials + t];
      s = paths[p].endpoint.required - s;
    }
  }

  // --- Per-register path index lists (capture and launch sides). ---
  std::vector<std::vector<std::size_t>> capturePaths(numRegs);
  std::vector<std::vector<std::size_t>> launchPaths(numRegs);
  for (std::size_t p = 0; p < numPaths; ++p) {
    if (captureReg[p] != kNoReg) capturePaths[captureReg[p]].push_back(p);
    if (launchReg[p] != kNoReg) launchPaths[launchReg[p]].push_back(p);
  }

  // --- Per-die assignments, a[r * trials + t]. ---
  const clocktree::TuningElementSpec& spec = config.element;
  const bool tuning = spec.enabled() && spec.valid();
  std::vector<double> assign(numRegs * trials, 0.0);
  if (tuning) {
    parallel::parallelFor(trials, [&](std::size_t t) {
      for (std::size_t r = 0; r < numRegs; ++r) {
        double need = 0.0;
        for (const std::size_t p : capturePaths[r]) {
          need = std::max(need, -slack[p * trials + t]);
        }
        double budget = std::numeric_limits<double>::infinity();
        for (const std::size_t p : launchPaths[r]) {
          budget = std::min(budget, slack[p * trials + t]);
        }
        budget = std::max(budget, 0.0);
        // Cover the need from below-capped grid settings: ceil(need) fixes
        // the die, floor(budget) keeps every launched path passing.
        const double desired = need > 0.0 ? snapUp(spec, need) : 0.0;
        const double cap = spec.snap(std::min(budget, spec.rangeMax));
        assign[r * trials + t] = std::min(desired, cap);
      }
    });
  }

  // --- Yields and per-register statistics. ---
  auto tunedSlack = [&](std::size_t p, std::size_t t) {
    double s = slack[p * trials + t];
    if (captureReg[p] != kNoReg) s += assign[captureReg[p] * trials + t];
    if (launchReg[p] != kNoReg) s -= assign[launchReg[p] * trials + t];
    return s;
  };
  std::size_t passAfter = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    bool ok = true;
    for (std::size_t p = 0; p < numPaths && ok; ++p) {
      ok = tunedSlack(p, t) >= -kSlackEps;
    }
    passAfter += ok ? 1u : 0u;
  }
  out.designYieldBefore =
      static_cast<double>(passBefore) / static_cast<double>(trials);
  out.designYieldAfter =
      static_cast<double>(passAfter) / static_cast<double>(trials);

  out.registers.reserve(numRegs);
  for (std::size_t r = 0; r < numRegs; ++r) {
    RegisterTuning reg;
    reg.instance = design.instance(registers[r]).name;
    numeric::RunningStats slackStats;
    numeric::RunningStats assignStats;
    std::size_t okBefore = 0;
    std::size_t okAfter = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      double worst = std::numeric_limits<double>::infinity();
      double worstTuned = std::numeric_limits<double>::infinity();
      for (const std::size_t p : capturePaths[r]) {
        worst = std::min(worst, slack[p * trials + t]);
        worstTuned = std::min(worstTuned, tunedSlack(p, t));
      }
      if (capturePaths[r].empty()) worst = worstTuned = 0.0;
      slackStats.add(worst);
      assignStats.add(assign[r * trials + t]);
      okBefore += worst >= -kSlackEps ? 1u : 0u;
      okAfter += worstTuned >= -kSlackEps ? 1u : 0u;
    }
    reg.slackMean = slackStats.mean();
    reg.slackSigma = slackStats.stddev();
    reg.assignMean = assignStats.mean();
    reg.assignSigma = assignStats.stddev();
    reg.assignMax = assignStats.max();
    reg.chosen = tuning ? spec.snap(assignStats.mean()) : 0.0;
    reg.yieldBefore =
        static_cast<double>(okBefore) / static_cast<double>(trials);
    reg.yieldAfter = static_cast<double>(okAfter) / static_cast<double>(trials);
    out.registers.push_back(std::move(reg));
  }

  out.elements = tuning ? numRegs : 0;
  out.tuningArea =
      static_cast<double>(out.elements) * spec.areaPerElement;
  return out;
}

}  // namespace sct::postsi
