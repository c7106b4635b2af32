#pragma once
// Local-variation statistics of timing paths and whole designs
// (paper section V): per-cell (mean, sigma) is bilinearly interpolated from
// the statistical library at the cell's actual operating point, then
// convolved along the path (eqs. (5)-(10)) and across endpoint paths
// (eq. (11)).

#include <span>
#include <vector>

#include "sta/sta.hpp"
#include "statlib/stat_library.hpp"

namespace sct::variation {

/// Distribution parameters of one path.
struct PathStats {
  double mean = 0.0;   ///< eq. (5): sum of cell delay means [ns]
  double sigma = 0.0;  ///< eq. (9)/(10) [ns]
  std::size_t depth = 0;  ///< number of cells on the path
};

/// Distribution parameters of a design (eq. (11)).
struct DesignStats {
  double mean = 0.0;
  double sigma = 0.0;
  std::size_t paths = 0;
};

class PathStatistics {
 public:
  /// rho is the pairwise cell-delay correlation of eq. (9); the paper argues
  /// rho = 0 (eq. (10)) since local mismatch is uncorrelated.
  explicit PathStatistics(const statlib::StatLibrary& library, double rho = 0.0)
      : library_(library), rho_(rho) {}

  [[nodiscard]] double rho() const noexcept { return rho_; }

  /// Per-step (mean, sigma) at the step's (input slew, output load).
  [[nodiscard]] numeric::NormalSummary stepStats(const sta::PathStep& step) const;

  /// Convolution along one traced path.
  [[nodiscard]] PathStats pathStats(const sta::TimingPath& path) const;

  /// pathStats() of every path, out[i] for paths[i], bit for bit. Steps
  /// equal in instance, cell, arc and operating point are evaluated once;
  /// the step values and the paths are computed on the parallel pool
  /// (bit-identical for any thread count).
  [[nodiscard]] std::vector<PathStats> allPathStats(
      std::span<const sta::TimingPath> paths) const;

  /// Eq. (11) over a path population (typically one worst path per unique
  /// endpoint).
  [[nodiscard]] DesignStats designStats(
      std::span<const sta::TimingPath> paths) const;

 private:
  const statlib::StatLibrary& library_;
  double rho_;
};

/// Eq. (11) over already-convolved paths, summed in span order:
/// designStats(paths) is foldDesignStats(allPathStats(paths)), bit for bit,
/// so callers that keep the per-path results convolve each path once.
[[nodiscard]] DesignStats foldDesignStats(
    std::span<const PathStats> paths) noexcept;

/// Convolution helpers shared with tests (pure math, no library access).
[[nodiscard]] double convolveMean(std::span<const double> means) noexcept;
/// Eq. (9) with uniform pairwise correlation rho.
[[nodiscard]] double convolveSigma(std::span<const double> sigmas,
                                   double rho) noexcept;

}  // namespace sct::variation
