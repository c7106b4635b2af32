#include "numeric/statistics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace sct::numeric {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * (nb / total);
  m2_ += other.m2_ + delta * delta * (na * nb / total);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

NormalSummary summarize(std::span<const double> samples) noexcept {
  RunningStats stats;
  for (double s : samples) stats.add(s);
  return stats.summary();
}

double normalPdf(double x) noexcept {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double normalCdf(double x) noexcept {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

NormalSummary clarkMax(const NormalSummary& x,
                       const NormalSummary& y) noexcept {
  const double varX = x.sigma * x.sigma;
  const double varY = y.sigma * y.sigma;
  const double theta = std::sqrt(varX + varY);
  if (theta < 1e-15) {
    // Both deterministic: plain max.
    return {std::max(x.mean, y.mean), 0.0};
  }
  const double alpha = (x.mean - y.mean) / theta;
  const double cdf = normalCdf(alpha);
  const double pdf = normalPdf(alpha);
  const double mean = x.mean * cdf + y.mean * (1.0 - cdf) + theta * pdf;
  const double second = (x.mean * x.mean + varX) * cdf +
                        (y.mean * y.mean + varY) * (1.0 - cdf) +
                        (x.mean + y.mean) * theta * pdf;
  const double variance = second - mean * mean;
  return {mean, variance > 0.0 ? std::sqrt(variance) : 0.0};
}

double quantile(std::span<const double> samples, double q) {
  assert(!samples.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace sct::numeric
