#pragma once
// The five tuning methods of section VI.A and their constraint parameters
// (Table 2). A method is (clustering scheme) x (threshold-extraction
// parameter); only one parameter is swept at a time, the other two stay at
// their defaults.

#include <span>
#include <string_view>

namespace sct::tuning {

enum class TuningMethod {
  kCellStrengthLoadSlope,  ///< drive-strength clusters, load slope bound swept
  kCellStrengthSlewSlope,  ///< drive-strength clusters, slew slope bound swept
  kCellLoadSlope,          ///< per-cell clusters, load slope bound swept
  kCellSlewSlope,          ///< per-cell clusters, slew slope bound swept
  kSigmaCeiling,           ///< per-cell, sigma ceiling used directly
};

inline constexpr TuningMethod kAllTuningMethods[] = {
    TuningMethod::kCellStrengthLoadSlope, TuningMethod::kCellStrengthSlewSlope,
    TuningMethod::kCellLoadSlope, TuningMethod::kCellSlewSlope,
    TuningMethod::kSigmaCeiling};

/// The `--method` spelling of each method, in kAllTuningMethods order: the
/// one name table of the CLI, the daemon's job requests and evolve's seed
/// origins.
struct MethodName {
  TuningMethod method;
  std::string_view name;
};
inline constexpr MethodName kMethodNames[] = {
    {TuningMethod::kCellStrengthLoadSlope, "strength-load"},
    {TuningMethod::kCellStrengthSlewSlope, "strength-slew"},
    {TuningMethod::kCellLoadSlope, "cell-load"},
    {TuningMethod::kCellSlewSlope, "cell-slew"},
    {TuningMethod::kSigmaCeiling, "sigma-ceiling"}};

[[nodiscard]] std::string_view toString(TuningMethod method) noexcept;

/// Whether the method clusters cells by drive strength (vs. individually).
[[nodiscard]] bool clustersByStrength(TuningMethod method) noexcept;

/// Threshold-extraction parameters. Defaults are the paper's Table 2
/// "Default" column: slope bound 1 (no load restriction), slew slope 0.06,
/// sigma ceiling 100 (no ceiling).
struct TuningConfig {
  TuningMethod method = TuningMethod::kSigmaCeiling;
  double loadSlopeBound = 1.0;
  double slewSlopeBound = 0.06;
  double sigmaCeiling = 100.0;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("method", s.method);
    v("loadSlopeBound", s.loadSlopeBound);
    v("slewSlopeBound", s.slewSlopeBound);
    v("sigmaCeiling", s.sigmaCeiling);
  }

  /// Config for a method with its swept parameter set to `value` and the
  /// other parameters at their defaults (Table 2 protocol).
  [[nodiscard]] static TuningConfig forMethod(TuningMethod method,
                                              double value) noexcept;
};

/// The paper's Table 2 sweep values for a method.
[[nodiscard]] std::span<const double> sweepValues(TuningMethod method) noexcept;

}  // namespace sct::tuning
