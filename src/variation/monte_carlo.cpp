#include "variation/monte_carlo.hpp"

#include <cassert>
#include <limits>

#include "parallel/parallel.hpp"

namespace sct::variation {
namespace {

constexpr double kSlackEps = 1e-12;
constexpr std::uint32_t kNoSite = std::numeric_limits<std::uint32_t>::max();

/// One path step with everything the delay model needs pre-resolved once
/// per step instead of once per die.
struct ResolvedPathStep {
  const charlib::CellSpec* spec = nullptr;
  double arcFactor = 1.0;  ///< arcDelayFactor of the step's worst (rise) edge
  double inputSlew = 0.0;
  double load = 0.0;
  std::uint32_t site = 0;  ///< the step's instance among the distinct ones
};

}  // namespace

std::vector<double> sampleDieDelays(
    const charlib::Characterizer& characterizer,
    std::span<const sta::TimingPath> paths, const PathMcConfig& config) {
  const charlib::SpecRegistry& specs = characterizer.specs();
  const charlib::DelayModel& model = characterizer.model();

  // Resolve every step once and number the distinct instances (sites) in
  // first-appearance order; each site draws its mismatch once per die.
  std::vector<std::vector<ResolvedPathStep>> resolved(paths.size());
  std::vector<netlist::InstIndex> sites;
  std::vector<const charlib::CellSpec*> siteSpecs;
  std::vector<std::uint32_t> siteOf;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    resolved[p].reserve(paths[p].steps.size());
    for (const sta::PathStep& step : paths[p].steps) {
      assert(step.cell != nullptr && step.arc != nullptr);
      assert(step.instance != netlist::kNoInst && "path step without instance");
      ResolvedPathStep r;
      r.spec = specs.find(step.cell->name());
      assert(r.spec != nullptr && "path cell missing from catalogue");
      // The worst edge used by the setup analysis is the rise edge (its skew
      // factor is the larger one), matching TimingArc::worstDelay.
      r.arcFactor = charlib::arcDelayFactor(step.cell->function(),
                                            step.arc->relatedPin,
                                            step.arc->outputPin,
                                            /*rise=*/true);
      r.inputSlew = step.inputSlew;
      r.load = step.load;
      if (step.instance >= siteOf.size()) {
        siteOf.resize(step.instance + std::size_t{1}, kNoSite);
      }
      if (siteOf[step.instance] == kNoSite) {
        siteOf[step.instance] = static_cast<std::uint32_t>(sites.size());
        sites.push_back(step.instance);
        siteSpecs.push_back(r.spec);
      }
      r.site = siteOf[step.instance];
      resolved[p].push_back(r);
    }
  }

  const std::size_t trials = config.trials;
  std::vector<double> delay(paths.size() * trials, 0.0);
  const numeric::Rng master(config.seed);
  const std::uint64_t globalTag = numeric::Rng::hashTag("global");
  const std::uint64_t localTag = numeric::Rng::hashTag("local");
  parallel::parallelFor(trials, [&](std::size_t t) {
    // Die t's streams depend only on (seed, t, instance). Drawing the global
    // deviate even when disabled keeps local-only and global+local runs
    // sample-aligned.
    const numeric::Rng die = master.child(t);
    numeric::Rng globalRng = die.child(globalTag);
    const double globalDraw = model.drawGlobalFactor(globalRng);
    const double globalFactor = config.includeGlobal ? globalDraw : 1.0;
    std::vector<charlib::LocalDeltas> deltas(sites.size());
    if (config.includeLocal) {
      const numeric::Rng local = die.child(localTag);
      for (std::size_t s = 0; s < sites.size(); ++s) {
        numeric::Rng rng = local.child(sites[s]);
        deltas[s] = model.drawLocal(*siteSpecs[s], rng);
      }
    }
    for (std::size_t p = 0; p < resolved.size(); ++p) {
      double total = 0.0;
      for (const ResolvedPathStep& step : resolved[p]) {
        total += model.delay(*step.spec, step.inputSlew, step.load,
                             deltas[step.site], config.corner.delayFactor,
                             globalFactor) *
                 step.arcFactor;
      }
      delay[p * trials + t] = total;
    }
  });
  return delay;
}

std::size_t countPassingDies(std::span<const sta::TimingPath> paths,
                             const std::vector<double>& delay,
                             std::size_t trials) {
  std::size_t passing = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    bool ok = true;
    for (std::size_t p = 0; p < paths.size() && ok; ++p) {
      ok = paths[p].endpoint.required - delay[p * trials + t] >= -kSlackEps;
    }
    passing += ok ? 1u : 0u;
  }
  return passing;
}

PathMcResult PathMonteCarlo::simulate(const sta::TimingPath& path,
                                      const PathMcConfig& config) const {
  PathMcResult result;
  result.samples = sampleDieDelays(characterizer_, {&path, 1}, config);

  // Fixed-grain chunked reduction: summary is bit-identical for any thread
  // count (see parallelReduce contract).
  const numeric::RunningStats stats =
      parallel::parallelReduce(
          result.samples.size(), numeric::RunningStats{},
          [&](numeric::RunningStats& acc, std::size_t i) {
            acc.add(result.samples[i]);
          },
          [](numeric::RunningStats& acc, const numeric::RunningStats& other) {
            acc.merge(other);
          });
  result.summary = stats.summary();
  return result;
}

}  // namespace sct::variation
