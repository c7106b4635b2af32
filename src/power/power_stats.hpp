#pragma once
// Statistical power analysis: per-cell power-sigma LUTs built by Monte
// Carlo through the power model (the power analogue of the Fig. 2
// statistical library), power-based library tuning, and design-level
// dynamic-power statistics of a mapped design.

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "charlib/characterizer.hpp"
#include "core/sync.hpp"
#include "power/power_model.hpp"
#include "sta/sta.hpp"
#include "statlib/stat_library.hpp"
#include "tuning/restriction.hpp"

namespace sct::power {

/// Builds (mean, sigma) transition-energy LUTs for one cell over the same
/// slew/load grid as its delay tables, from `samples` mismatch draws.
[[nodiscard]] statlib::StatLut buildPowerLut(
    const charlib::Characterizer& characterizer, const PowerModel& model,
    const charlib::CellSpec& spec, std::size_t samples, std::uint64_t seed);

/// Power-metric library tuning: confines each cell to the slew/load window
/// where its transition-energy sigma stays below the ceiling [fJ]. Same
/// largest-rectangle mechanics as the delay tuner (section VI applied to a
/// different LUT, as suggested in section III).
[[nodiscard]] tuning::LibraryConstraints tuneLibraryOnPower(
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double energySigmaCeiling, std::size_t samples = 50,
    std::uint64_t seed = 2014);

/// Design-level dynamic-power statistics of a mapped, analyzed design.
struct DesignPower {
  double meanPower = 0.0;   ///< uW, at the given activity
  double sigmaPower = 0.0;  ///< uW, RSS over cell instances (independent
                            ///< local mismatch)
  std::size_t cells = 0;
};

/// The standard-normal mismatch draws of each counted instance position of
/// design power (DESIGN.md §7). Position p's stream is the p-th fork of
/// Rng(seed) with the instance's name hash as tag, so its draws depend only
/// on (seed, p, tag): any design whose p-th counted instance has the same
/// tag reads them instead of drawing again. Entries are appended in
/// position order and never change once inserted; the deque keeps them in
/// place, so readers hold entry pointers outside the lock (designs are
/// measured concurrently by evolve).
class DrawTable {
 public:
  struct Entry {
    std::uint64_t tag = 0;  ///< fork tag of the instance name
    /// zDrive, zIntrinsic of each sample, interleaved (2 * samples values).
    /// zSlew is not kept: transition energy ignores the slew mismatch.
    std::vector<double> z;
  };

  DrawTable(std::size_t samples, std::uint64_t seed)
      : samples_(samples), seed_(seed) {}

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Stored positions.
  [[nodiscard]] std::size_t size() const;

  /// The entries of positions [0, min(n, size())).
  [[nodiscard]] std::vector<const Entry*> prefix(std::size_t n) const;

  /// Stores `entry` at `position` if that is the next position; an
  /// existing entry is never replaced.
  void offer(std::size_t position, Entry entry);

 private:
  std::size_t samples_;
  std::uint64_t seed_;
  mutable sct::Mutex mutex_;
  std::deque<Entry> entries_ SCT_GUARDED_BY(mutex_);
};

/// Mean and sigma of the design's dynamic power at `activity`, from
/// draws.samples() mismatch draws per counted instance (dead, unmapped and
/// out-of-catalogue instances do not count). Reads the draws of `draws`
/// where the position's tag matches, draws the rest and stores those at
/// new positions; the result does not depend on what the table held.
[[nodiscard]] DesignPower analyzeDesignPower(
    const netlist::Design& design, const sta::TimingAnalyzer& sta,
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double activity, DrawTable& draws);

/// The same, reading the draws `draws` holds but storing none: for a
/// caller that will not analyze through the table again. The result equals
/// the storing overload's.
[[nodiscard]] DesignPower analyzeDesignPower(
    const netlist::Design& design, const sta::TimingAnalyzer& sta,
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double activity, const DrawTable& draws);

/// The same through the process's table of (samples, seed), for callers
/// that hold no flow: repeated calls share its draws the way one flow's
/// measurements share the flow's table.
[[nodiscard]] DesignPower analyzeDesignPower(
    const netlist::Design& design, const sta::TimingAnalyzer& sta,
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double activity, std::size_t samples, std::uint64_t seed);

}  // namespace sct::power
