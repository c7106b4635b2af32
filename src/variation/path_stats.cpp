#include "variation/path_stats.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "parallel/parallel.hpp"

namespace sct::variation {

double convolveMean(std::span<const double> means) noexcept {
  double sum = 0.0;
  for (double m : means) sum += m;
  return sum;
}

double convolveSigma(std::span<const double> sigmas, double rho) noexcept {
  // Eq. (9): var = sum sigma_i^2 + rho * sum_{i != j} sigma_i sigma_j.
  // The cross term is computed as (sum sigma)^2 - sum sigma^2.
  double sumSq = 0.0;
  double sum = 0.0;
  for (double s : sigmas) {
    sumSq += s * s;
    sum += s;
  }
  const double cross = sum * sum - sumSq;
  const double var = sumSq + rho * cross;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

numeric::NormalSummary PathStatistics::stepStats(
    const sta::PathStep& step) const {
  assert(step.cell != nullptr && step.arc != nullptr);
  const statlib::StatCell* cell = library_.findCell(step.cell->name());
  if (cell == nullptr) return {};
  const statlib::StatArc* arc =
      cell->findArc(step.arc->relatedPin, step.arc->outputPin);
  if (arc == nullptr) return {};
  return arc->worstDelayStats(step.inputSlew, step.load);
}

PathStats PathStatistics::pathStats(const sta::TimingPath& path) const {
  std::vector<double> means;
  std::vector<double> sigmas;
  means.reserve(path.steps.size());
  sigmas.reserve(path.steps.size());
  for (const sta::PathStep& step : path.steps) {
    const numeric::NormalSummary s = stepStats(step);
    means.push_back(s.mean);
    sigmas.push_back(s.sigma);
  }
  PathStats out;
  out.depth = path.steps.size();
  out.mean = convolveMean(means);
  out.sigma = convolveSigma(sigmas, rho_);
  return out;
}

namespace {

/// Same cell, arc and operating point, bit for bit: stepStats() of the two
/// is the same value.
bool sameStep(const sta::PathStep& a, const sta::PathStep& b) noexcept {
  return a.cell == b.cell && a.arc == b.arc &&
         std::bit_cast<std::uint64_t>(a.inputSlew) ==
             std::bit_cast<std::uint64_t>(b.inputSlew) &&
         std::bit_cast<std::uint64_t>(a.load) ==
             std::bit_cast<std::uint64_t>(b.load);
}

}  // namespace

std::vector<PathStats> PathStatistics::allPathStats(
    std::span<const sta::TimingPath> paths) const {
  // Worst paths share their steps: a step is fixed by its output net's
  // winning predecessor, and each instance lies on tens of endpoint paths.
  // Number the distinct steps (grouped by instance, compared bit for bit),
  // evaluate each once, then convolve every path from the shared values in
  // its own step order.
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<const sta::PathStep*> unique;
  std::vector<std::uint32_t> sameInstance;  ///< per unique step: next one
  std::vector<std::uint32_t> firstOf;       ///< per instance: first one
  std::vector<std::size_t> offset(paths.size() + 1, 0);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    offset[p + 1] = offset[p] + paths[p].steps.size();
  }
  std::vector<std::uint32_t> slot(offset.back());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::uint32_t* out = slot.data() + offset[p];
    for (const sta::PathStep& step : paths[p].steps) {
      std::uint32_t* link = nullptr;
      if (step.instance != netlist::kNoInst) {
        if (step.instance >= firstOf.size()) {
          firstOf.resize(std::size_t{step.instance} + 1, kNone);
        }
        link = &firstOf[step.instance];
        while (*link != kNone && !sameStep(*unique[*link], step)) {
          link = &sameInstance[*link];
        }
        if (*link != kNone) {
          *out++ = *link;
          continue;
        }
      }
      const auto id = static_cast<std::uint32_t>(unique.size());
      if (link != nullptr) *link = id;
      unique.push_back(&step);
      sameInstance.push_back(kNone);
      *out++ = id;
    }
  }
  const std::vector<numeric::NormalSummary> values = parallel::parallelMap(
      unique.size(), [&](std::size_t u) { return stepStats(*unique[u]); });
  return parallel::parallelMap(paths.size(), [&](std::size_t p) {
    const std::size_t depth = paths[p].steps.size();
    std::vector<double> means(depth);
    std::vector<double> sigmas(depth);
    for (std::size_t k = 0; k < depth; ++k) {
      const numeric::NormalSummary& s = values[slot[offset[p] + k]];
      means[k] = s.mean;
      sigmas[k] = s.sigma;
    }
    PathStats out;
    out.depth = depth;
    out.mean = convolveMean(means);
    out.sigma = convolveSigma(sigmas, rho_);
    return out;
  });
}

DesignStats PathStatistics::designStats(
    std::span<const sta::TimingPath> paths) const {
  return foldDesignStats(allPathStats(paths));
}

DesignStats foldDesignStats(std::span<const PathStats> paths) noexcept {
  // Eq. (11): the design distribution aggregates the endpoint paths the
  // same way a path aggregates cells (with rho = 0 across paths).
  DesignStats out;
  out.paths = paths.size();
  double varSum = 0.0;
  for (const PathStats& stats : paths) {
    out.mean += stats.mean;
    varSum += stats.sigma * stats.sigma;
  }
  out.sigma = std::sqrt(varSum);
  return out;
}

}  // namespace sct::variation
