#pragma once
// Library tuning output: per-output-pin slew/load windows (section VI.C).
// Instead of removing cells, each output pin's LUT is confined to the
// largest low-sigma rectangle; synthesis may only operate the cell inside
// that window. A pin with no acceptable entries makes the cell unusable.

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "statlib/stat_library.hpp"
#include "tuning/methods.hpp"
#include "tuning/rectangle.hpp"

namespace sct::tuning {

/// Allowed operating window of one output pin. Loads/slews are inclusive
/// bounds in library units (ns / pF). minSlew/minLoad are 0 when the window
/// starts at the table origin.
struct PinWindow {
  double minSlew = 0.0;
  double maxSlew = 0.0;
  double minLoad = 0.0;
  double maxLoad = 0.0;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("minSlew", s.minSlew);
    v("maxSlew", s.maxSlew);
    v("minLoad", s.minLoad);
    v("maxLoad", s.maxLoad);
  }

  [[nodiscard]] bool allows(double slew, double load) const noexcept {
    return slew >= minSlew && slew <= maxSlew && load >= minLoad &&
           load <= maxLoad;
  }
};

struct CellConstraint {
  /// Window per output pin; a missing entry means the pin (and with it the
  /// cell) may not be used at all.
  std::map<std::string, PinWindow> pinWindows;
  /// Sigma threshold that produced the windows (diagnostics/reports).
  double sigmaThreshold = 0.0;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("sigmaThreshold", s.sigmaThreshold);
    v("pinWindows", s.pinWindows);
  }

  [[nodiscard]] bool usable() const noexcept { return !pinWindows.empty(); }
};

/// Constraint set over a library. Cells without an entry are unconstrained
/// (full LUT range available).
class LibraryConstraints {
 public:
  void setCell(std::string cellName, CellConstraint constraint) {
    cells_[std::move(cellName)] = std::move(constraint);
  }
  void markUnusable(std::string cellName) {
    cells_[std::move(cellName)] = CellConstraint{};
  }

  [[nodiscard]] bool empty() const noexcept { return cells_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  /// Window for a pin; nullopt when unconstrained. Unusable cells return a
  /// degenerate all-zero window that allows nothing.
  [[nodiscard]] std::optional<PinWindow> window(std::string_view cell,
                                                std::string_view pin) const;

  /// False when the cell was tuned away entirely.
  [[nodiscard]] bool cellUsable(std::string_view cell) const;

  /// True when the operating point is legal for the pin.
  [[nodiscard]] bool allows(std::string_view cell, std::string_view pin,
                            double slew, double load) const;

  [[nodiscard]] std::size_t unusableCellCount() const;

  [[nodiscard]] const std::map<std::string, CellConstraint, std::less<>>&
  cells() const noexcept {
    return cells_;
  }

 private:
  std::map<std::string, CellConstraint, std::less<>> cells_;
};

/// Result of the threshold-extraction stage (section VI.B) for one cluster.
struct ClusterThreshold {
  std::string clusterName;
  double sigmaThreshold = 0.0;
  std::optional<Rect> rectangle;  ///< flat region found in the cluster LUT
};

/// Stage 1: extract a sigma threshold per cluster according to the config.
/// Strength-clustered methods produce one entry per drive strength; cell
/// methods one entry per cell.
[[nodiscard]] std::map<std::string, ClusterThreshold> extractThresholds(
    const statlib::StatLibrary& library, const TuningConfig& config);

/// Stage 2 (and the public entry point): full tuning, i.e. threshold
/// extraction followed by per-pin LUT restriction.
[[nodiscard]] LibraryConstraints tuneLibrary(const statlib::StatLibrary& library,
                                             const TuningConfig& config);

/// Cluster a cell belongs to under a tuning config: "strength_<suffix>" for
/// strength-clustered methods, the cell's own name otherwise. Public so the
/// evolutionary tuner can project paper-method cluster thresholds onto its
/// per-cell genotype.
[[nodiscard]] std::string clusterName(const statlib::StatCell& cell,
                                      const TuningConfig& config);

/// Stage 2 alone, under externally supplied per-cell sigma thresholds keyed
/// by cell name (the evolutionary tuner's genotype -> phenotype mapping).
/// Cells with timing arcs but no entry are marked unusable; tie cells stay
/// unconstrained. Same parallel fan-out and determinism as tuneLibrary.
[[nodiscard]] LibraryConstraints constrainWithThresholds(
    const statlib::StatLibrary& library,
    const std::map<std::string, double>& thresholds);

/// Restriction of a single pin given a sigma threshold: max-equivalent sigma
/// LUT -> binary LUT -> largest rectangle -> window. Returns nullopt when no
/// entry is acceptable.
[[nodiscard]] std::optional<PinWindow> restrictPin(
    const statlib::StatCell& cell, std::string_view outputPin,
    double sigmaThreshold);

}  // namespace sct::tuning
