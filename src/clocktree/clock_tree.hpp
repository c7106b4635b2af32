#pragma once
// Clock-tree synthesis and variation analysis — the paper's future-work
// item (section VIII: "The effectiveness of the method on the clock tree in
// particular needs further investigation").
//
// Builds a balanced buffered clock tree over all sequential clock pins of a
// mapped design: sinks are clustered bottom-up under clock buffers until a
// single root remains. Buffer cells are picked from the CLKBUF (fallback
// BUF) family, honouring tuned per-pin slew/load windows when constraints
// are given — so the same library tuning that shapes the data path also
// shapes the clock tree. The analysis reports insertion delay, per-sink
// sigma (local mismatch accumulated along the buffer chain) and skew sigma
// between sink pairs (shared buffers cancel; only the disjoint tree
// portions contribute).

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "statlib/stat_library.hpp"
#include "tuning/restriction.hpp"

namespace sct::clocktree {

struct ClockTreeConfig {
  std::size_t maxFanout = 16;   ///< sinks per buffer
  double rootSlew = 0.02;       ///< transition driven into the root [ns]
  double wireCapPerSink = 0.0015;  ///< lumped wire model [pF per sink]
};

/// Post-silicon tunable delay element attached to a sink buffer (Li &
/// Schlichtmann-style clock tuning): a discrete programmable delay in
/// [rangeMin, rangeMax], settable in multiples of `step` after
/// manufacturing. Per-die assignments are chosen from measured slack, so
/// the statistical tuning-range computation (src/postsi) works on the MC
/// slack distribution of each register endpoint.
struct TuningElementSpec {
  double rangeMin = 0.0;       ///< smallest programmable delay [ns]
  double rangeMax = 0.0;       ///< largest programmable delay [ns]
  double step = 0.0;           ///< tuning resolution [ns]
  double areaPerElement = 2.0; ///< silicon cost of one element [um^2]

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("rangeMin", s.rangeMin);
    v("rangeMax", s.rangeMax);
    v("step", s.step);
    v("areaPerElement", s.areaPerElement);
  }

  /// True when the range is non-inverted and the step positive and no
  /// coarser than the range span (a zero-span range is only valid with a
  /// zero count of usable settings, i.e. effectively no tuning).
  [[nodiscard]] bool valid() const noexcept {
    return rangeMax >= rangeMin && step > 0.0 && step <= (rangeMax - rangeMin);
  }
  [[nodiscard]] bool enabled() const noexcept { return rangeMax > rangeMin; }
  /// Tolerance (in step units) absorbing division wobble when a bound sits
  /// on the grid: (0.3 - 0.0) / 0.05 evaluates to 5.999...97, which would
  /// otherwise truncate away the top setting.
  static constexpr double kGridSlop = 1e-9;
  /// Number of programmable settings on the step grid (including rangeMin).
  [[nodiscard]] std::size_t settingCount() const noexcept {
    if (step <= 0.0 || rangeMax < rangeMin) return 0;
    return static_cast<std::size_t>((rangeMax - rangeMin) / step + kGridSlop) +
           1;
  }
  /// Clamps into the range and rounds down to the step grid — the delay a
  /// real element would realize for a requested value. Grid origin is
  /// rangeMin; flooring keeps the tuned register from borrowing more delay
  /// than the measurement justified.
  [[nodiscard]] double snap(double requested) const noexcept {
    if (step <= 0.0 || rangeMax <= rangeMin) return rangeMin;
    if (requested <= rangeMin) return rangeMin;
    const double span = requested >= rangeMax ? rangeMax - rangeMin
                                              : requested - rangeMin;
    const double steps = static_cast<double>(
        static_cast<long long>(span / step + kGridSlop));
    return rangeMin + steps * step;
  }
};

/// One level of the balanced tree (level 0 drives the flip-flop pins).
struct TreeLevel {
  const liberty::Cell* buffer = nullptr;
  std::size_t bufferCount = 0;
  double loadPerBuffer = 0.0;   ///< pF seen by each buffer
  double inputSlew = 0.0;       ///< transition at the buffer input [ns]
  double delayMean = 0.0;       ///< per-buffer delay at this level [ns]
  double delaySigma = 0.0;      ///< per-buffer local-mismatch sigma [ns]
};

struct ClockTree {
  std::vector<TreeLevel> levels;  ///< levels.front() drives the sinks
  std::size_t sinkCount = 0;

  [[nodiscard]] std::size_t bufferCount() const noexcept;
  [[nodiscard]] double bufferArea() const noexcept;
  /// Mean source-to-sink insertion delay [ns].
  [[nodiscard]] double insertionDelay() const noexcept;
  /// Sigma of one sink's insertion delay (RSS along its buffer chain).
  [[nodiscard]] double insertionSigma() const noexcept;
  /// Skew sigma between two sinks sharing all levels above the leaves
  /// (common buffers cancel; only the two leaf buffers differ).
  [[nodiscard]] double siblingSkewSigma() const noexcept;
  /// Skew sigma between two sinks with fully disjoint buffer chains
  /// (worst pair in the tree).
  [[nodiscard]] double worstSkewSigma() const noexcept;
};

/// Builds and analyzes a clock tree for the design's sequential sinks.
/// Returns nullopt when no usable buffer cell exists (library tuned away)
/// or the design has no sequential cells.
[[nodiscard]] std::optional<ClockTree> buildClockTree(
    const netlist::Design& design, const liberty::Library& library,
    const statlib::StatLibrary& statLibrary,
    const tuning::LibraryConstraints* constraints = nullptr,
    const ClockTreeConfig& config = {});

}  // namespace sct::clocktree
