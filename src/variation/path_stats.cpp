#include "variation/path_stats.hpp"

#include <cassert>
#include <cmath>

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

std::vector<PathStats> PathStatistics::allPathStats(
    std::span<const sta::TimingPath> paths) const {
  return parallel::parallelMap(
      paths.size(), [&](std::size_t i) { return pathStats(paths[i]); });
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
