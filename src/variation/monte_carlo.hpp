#pragma once
// Per-die Monte Carlo of extracted timing paths (paper section VII.C,
// Figs. 15 and 16, and the post-silicon yields of src/postsi): re-evaluates
// each path cell through the analytic delay model with fresh local mismatch
// draws per die, optionally adding a shared per-die global factor, at any
// process corner. This substitutes the paper's transistor-level Monte Carlo
// on extracted data paths.
//
// sampleDieDelays is the one sampler. Die t draws its global factor from
// Rng(seed).child(t).child("global") and each distinct instance's local
// mismatch once, from Rng(seed).child(t).child("local").child(instance), so
// a cell shared by several paths shifts all of them by the same draw on that
// die. Every draw is a pure function of (seed, die, instance): the delays
// are bit-identical for any thread count.

#include <cstdint>
#include <span>
#include <vector>

#include "charlib/characterizer.hpp"
#include "numeric/statistics.hpp"
#include "sta/sta.hpp"

namespace sct::variation {

struct PathMcConfig {
  std::size_t trials = 200;  ///< dies; the paper uses N = 200
  bool includeLocal = true;
  bool includeGlobal = false;
  charlib::ProcessCorner corner = charlib::ProcessCorner::typical();
  std::uint64_t seed = 1;
};

/// Samples config.trials dies of `paths` (traced by one analyzer, so every
/// step carries its instance) and returns the path-major delay matrix
/// delay[p * config.trials + t] [ns].
[[nodiscard]] std::vector<double> sampleDieDelays(
    const charlib::Characterizer& characterizer,
    std::span<const sta::TimingPath> paths, const PathMcConfig& config);

/// Number of dies on which every path meets its required time, over a
/// matrix from sampleDieDelays with `trials` dies.
[[nodiscard]] std::size_t countPassingDies(
    std::span<const sta::TimingPath> paths, const std::vector<double>& delay,
    std::size_t trials);

/// Result of one Monte-Carlo run: summary plus the raw samples (for
/// histograms).
struct PathMcResult {
  numeric::NormalSummary summary;
  std::vector<double> samples;
};

/// The one-path caller of the sampler (Figs. 15 and 16).
class PathMonteCarlo {
 public:
  explicit PathMonteCarlo(const charlib::Characterizer& characterizer)
      : characterizer_(characterizer) {}

  /// Full Monte-Carlo run on a path.
  [[nodiscard]] PathMcResult simulate(const sta::TimingPath& path,
                                      const PathMcConfig& config) const;

 private:
  const charlib::Characterizer& characterizer_;
};

}  // namespace sct::variation
