#pragma once
// Process/corner and variation parameters of the synthetic 40nm-class
// technology. Substitutes the foundry transistor models of the paper
// (section I): global variation is a per-die multiplicative shift shared by
// all cells; local variation is a per-cell-instance mismatch whose magnitude
// follows Pelgrom's law (sigma ~ 1/sqrt(W*L), i.e. ~1/sqrt(drive strength))
// as cited in the paper [14].

#include <string>
#include <vector>

namespace sct::charlib {

/// A PVT corner. delayFactor multiplies every nominal delay/transition, so
/// mean and sigma scale together when moving corners — the behaviour the
/// paper validates in Fig. 15.
struct ProcessCorner {
  std::string process = "TT";  ///< TT / SS / FF
  double voltage = 1.1;        ///< V
  double temperature = 25.0;   ///< degC
  double delayFactor = 1.0;    ///< relative to typical

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("process", s.process);
    v("voltage", s.voltage);
    v("temperature", s.temperature);
    v("delayFactor", s.delayFactor);
  }

  [[nodiscard]] static ProcessCorner typical() { return {"TT", 1.1, 25.0, 1.00}; }
  [[nodiscard]] static ProcessCorner slow() { return {"SS", 1.0, 125.0, 1.28}; }
  [[nodiscard]] static ProcessCorner fast() { return {"FF", 1.2, -40.0, 0.79}; }
  [[nodiscard]] static std::vector<ProcessCorner> all() {
    return {fast(), typical(), slow()};
  }
};

/// Electrical constants of the synthetic technology.
/// Units: time ns, capacitance pF, resistance kOhm (so kOhm*pF = ns).
struct TechnologyParams {
  double rUnit = 4.0;      ///< unit-drive output resistance [kOhm]
  double cInUnit = 0.001;  ///< unit-drive, unit-effort input cap [pF]
  double tau = 0.004;      ///< rUnit * cInUnit, intrinsic delay unit [ns]
  double slewSens = 0.20;  ///< delay sensitivity to input slew
  double slewSensLoadBoost = 1.5;  ///< extra slew sensitivity at high load
  double slewSensLoadKnee = 0.02;  ///< [ns] knee of the load-boost term
  double overload = 0.35;  ///< quadratic delay blow-up towards max load
  double transIntrinsic = 0.7;  ///< output slew from intrinsic delay
  double transDrive = 2.2;      ///< output slew from R*C
  double transLeak = 0.10;      ///< output slew leakage from input slew
  double maxLoadPerStrength = 0.06;  ///< pin max_capacitance per strength [pF]
  double areaUnit = 1.2;  ///< layout area of a unit-effort unit-drive cell [um^2]
  /// Deterministic per-cell-type electrical personality spread (cells of the
  /// same drive strength are similar but not identical; Fig. 5).
  double personalitySpread = 0.05;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("rUnit", s.rUnit);
    v("cInUnit", s.cInUnit);
    v("tau", s.tau);
    v("slewSens", s.slewSens);
    v("slewSensLoadBoost", s.slewSensLoadBoost);
    v("slewSensLoadKnee", s.slewSensLoadKnee);
    v("overload", s.overload);
    v("transIntrinsic", s.transIntrinsic);
    v("transDrive", s.transDrive);
    v("transLeak", s.transLeak);
    v("maxLoadPerStrength", s.maxLoadPerStrength);
    v("areaUnit", s.areaUnit);
    v("personalitySpread", s.personalitySpread);
  }
};

/// Variation magnitudes.
struct VariationParams {
  /// Pelgrom coefficient: local mismatch sigma of a cell parameter is
  /// pelgrom / sqrt(driveStrength * unitArea). Calibrated so that the
  /// delay sigma of weak cells at heavy load reaches the 0.01-0.05 ns range
  /// where the paper's Table 2 sigma ceilings (0.04...0.01 ns) separate the
  /// LUT regions.
  double pelgrom = 0.10;
  /// Relative sigma of the intrinsic-delay mismatch vs the drive mismatch.
  double intrinsicFraction = 0.8;
  /// Relative sigma of the slew-sensitivity mismatch vs the drive mismatch.
  double slewFraction = 0.6;
  /// Global (inter-die) multiplicative sigma shared by all cells on a die.
  double globalSigma = 0.034;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("pelgrom", s.pelgrom);
    v("intrinsicFraction", s.intrinsicFraction);
    v("slewFraction", s.slewFraction);
    v("globalSigma", s.globalSigma);
  }
};

}  // namespace sct::charlib
