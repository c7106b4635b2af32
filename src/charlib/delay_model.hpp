#pragma once
// Analytic gate delay model (logical effort + RC) with explicit mismatch
// parameters. This is the SPICE substitute: cheap enough to characterize
// 304 cells x 50 Monte-Carlo library instances in well under a second while
// reproducing the sigma-surface shapes the tuning method keys on (Fig. 4):
//   - sigma grows with output load and input slew,
//   - higher drive strength => lower sigma and flatter gradient,
//   - delay blows up quadratically when a cell is loaded near its limit.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "charlib/process.hpp"
#include "liberty/function.hpp"
#include "numeric/rng.hpp"

namespace sct::charlib {

/// Electrical description of one catalogue cell, derived from its function
/// traits, drive strength and technology constants.
struct CellSpec {
  std::string name;
  liberty::CellFunction function = liberty::CellFunction::kInv;
  double driveStrength = 1.0;
  double driveRes = 0.0;    ///< output resistance [kOhm]
  double inputCap = 0.0;    ///< per-data-input capacitance [pF]
  double intrinsic = 0.0;   ///< parasitic delay [ns]
  double maxLoad = 0.0;     ///< output max_capacitance [pF]
  double area = 0.0;        ///< layout area [um^2]
  double localSigma = 0.0;  ///< Pelgrom mismatch sigma of this cell
  double setupTime = 0.0;   ///< sequential cells only [ns]
  double holdTime = 0.0;    ///< sequential cells only [ns]
};

/// Per-cell-instance local mismatch draws (one physical instance on one die).
struct LocalDeltas {
  double dDrive = 0.0;      ///< relative drive-resistance mismatch
  double dIntrinsic = 0.0;  ///< relative intrinsic-delay mismatch
  double dSlew = 0.0;       ///< relative slew-sensitivity mismatch
};

/// The standard normals behind one LocalDeltas, in drawing order. Scaling
/// them by a cell's sigmas (DelayModel::scaleLocal) gives its mismatch, so a
/// caller can keep the draws and scale them for any cell later.
struct LocalNormals {
  double zDrive = 0.0;
  double zIntrinsic = 0.0;
  double zSlew = 0.0;
};

/// Structure-of-arrays mismatch draws of all Monte-Carlo instances of one
/// cell, the per-instance dimension of the batched characterizer: one
/// delayBatch() call evaluates one LUT entry across every instance.
struct LocalDeltasBatch {
  std::vector<double> dDrive;
  std::vector<double> dIntrinsic;
  std::vector<double> dSlew;

  [[nodiscard]] std::size_t size() const noexcept { return dDrive.size(); }
  void resize(std::size_t n) {
    dDrive.resize(n);
    dIntrinsic.resize(n);
    dSlew.resize(n);
  }
  void set(std::size_t k, const LocalDeltas& d) noexcept {
    dDrive[k] = d.dDrive;
    dIntrinsic[k] = d.dIntrinsic;
    dSlew[k] = d.dSlew;
  }
  [[nodiscard]] LocalDeltas get(std::size_t k) const noexcept {
    return {dDrive[k], dIntrinsic[k], dSlew[k]};
  }
};

class DelayModel {
 public:
  DelayModel(TechnologyParams tech, VariationParams variation)
      : tech_(tech), variation_(variation) {}

  [[nodiscard]] const TechnologyParams& tech() const noexcept { return tech_; }
  [[nodiscard]] const VariationParams& variation() const noexcept {
    return variation_;
  }

  /// Builds the electrical spec for a function at a drive strength. The cell
  /// name seeds a small deterministic "personality" so that cells of equal
  /// strength have similar but not identical surfaces (Fig. 5).
  [[nodiscard]] CellSpec makeSpec(liberty::CellFunction f,
                                  double driveStrength) const;

  /// Propagation delay [ns] at (input slew, output load) for one instance.
  /// cornerFactor comes from ProcessCorner; globalFactor is the per-die
  /// multiplicative shift (1.0 when global variation is off).
  [[nodiscard]] double delay(const CellSpec& spec, double slew, double load,
                             const LocalDeltas& local, double cornerFactor,
                             double globalFactor) const noexcept;

  /// Output transition time [ns] for the same instance and operating point.
  [[nodiscard]] double outputSlew(const CellSpec& spec, double slew,
                                  double load, const LocalDeltas& local,
                                  double cornerFactor,
                                  double globalFactor) const noexcept;

  /// Batched delay(): out[k] = delay(spec, slew, load, local[k], ...) for
  /// every instance k, bit-for-bit. The instance-invariant subterms (RC
  /// product, overload factor, slew coefficient) are hoisted out of the
  /// loop — each is a pure common subexpression of the scalar formula, so
  /// hoisting cannot change any rounded result — leaving a contiguous
  /// branch-free inner loop over the mismatch arrays.
  void delayBatch(const CellSpec& spec, double slew, double load,
                  const LocalDeltasBatch& local, double cornerFactor,
                  double globalFactor, std::span<double> out) const noexcept;

  /// Batched outputSlew(), same contract as delayBatch().
  void outputSlewBatch(const CellSpec& spec, double slew, double load,
                       const LocalDeltasBatch& local, double cornerFactor,
                       double globalFactor,
                       std::span<double> out) const noexcept;

  /// Draws fresh local mismatch for one instance of the cell:
  /// scaleLocal(spec, drawNormals(rng)).
  [[nodiscard]] LocalDeltas drawLocal(const CellSpec& spec,
                                      numeric::Rng& rng) const noexcept;

  /// The standard normals one drawLocal() consumes: zDrive, zIntrinsic,
  /// zSlew, in that order.
  [[nodiscard]] static LocalNormals drawNormals(numeric::Rng& rng) noexcept;

  /// One instance's mismatch from its standard normals: each delta is
  /// 0.0 + (the cell's sigma of that parameter) * z, the operations of
  /// Rng::normal(0.0, sigma).
  [[nodiscard]] LocalDeltas scaleLocal(const CellSpec& spec,
                                       const LocalNormals& z) const noexcept {
    LocalDeltas d;
    d.dDrive = 0.0 + spec.localSigma * z.zDrive;
    d.dIntrinsic =
        0.0 + (spec.localSigma * variation_.intrinsicFraction) * z.zIntrinsic;
    d.dSlew = 0.0 + (spec.localSigma * variation_.slewFraction) * z.zSlew;
    return d;
  }

  /// Draws a per-die global factor (shared across all cells of the die).
  [[nodiscard]] double drawGlobalFactor(numeric::Rng& rng) const noexcept;

 private:
  TechnologyParams tech_;
  VariationParams variation_;
};

/// Arc-level deterministic adjustments applied during characterization:
/// later inputs of a stack are slightly slower, rise/fall are skewed.
struct ArcFlavor {
  double positionFactor = 1.0;  ///< per-input-index delay factor
  double riseFactor = 1.04;
  double fallFactor = 0.96;

  [[nodiscard]] static ArcFlavor forInput(std::size_t inputIndex) noexcept {
    return {1.0 + 0.06 * static_cast<double>(inputIndex), 1.04, 0.96};
  }
};

}  // namespace sct::charlib
