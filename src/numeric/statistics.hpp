#pragma once
// Sample statistics used throughout the statistical-library flow. The paper
// (section III) argues that the *standard deviation* of the cell-delay
// distribution — not the coefficient of variation — is the right local
// variation metric; both are exposed here so the metric ablation can compare
// them.

#include <algorithm>
#include <cstddef>
#include <span>

namespace sct::numeric {

/// Summary of a (assumed normal) sample distribution.
struct NormalSummary {
  double mean = 0.0;
  double sigma = 0.0;  ///< sample standard deviation (n-1 denominator)

  /// Coefficient of variation sigma/mean (paper eq. (1)); 0 when mean == 0.
  [[nodiscard]] double variability() const noexcept {
    return mean != 0.0 ? sigma / mean : 0.0;
  }
};

/// Numerically stable running mean/variance (Welford). Two accumulators
/// over disjoint sample halves can be combined with merge() (Chan et al.'s
/// parallel update), which is what the chunked parallel reductions use.
class RunningStats {
 public:
  void add(double x) noexcept {
    if (n_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Folds another accumulator in, as if its samples had been add()ed here.
  /// Mean and variance match the single-stream result to floating-point
  /// rounding; count/min/max match exactly.
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance with n-1 denominator; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  [[nodiscard]] NormalSummary summary() const noexcept {
    return {mean(), stddev()};
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Convenience: summary of a whole sample in one call.
[[nodiscard]] NormalSummary summarize(std::span<const double> samples) noexcept;

/// Sample quantile with linear interpolation between order statistics.
/// q must lie in [0, 1]; the input need not be sorted (a copy is sorted).
[[nodiscard]] double quantile(std::span<const double> samples, double q);

/// Standard normal density phi(x).
[[nodiscard]] double normalPdf(double x) noexcept;
/// Standard normal CDF Phi(x).
[[nodiscard]] double normalCdf(double x) noexcept;

/// Clark's moment-matching approximation of max(X, Y) for independent
/// Gaussians X, Y: returns a Gaussian with the exact first two moments of
/// the maximum. The workhorse of block-based statistical STA.
[[nodiscard]] NormalSummary clarkMax(const NormalSummary& x,
                                     const NormalSummary& y) noexcept;

}  // namespace sct::numeric
