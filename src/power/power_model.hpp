#pragma once
// Transition-power extension (paper section III: "the methods which will be
// described can also be adjusted to measure the influence of local
// variation on other properties, such as transition power").
//
// Per-transition switching energy of a cell instance, built on the same
// CellSpec/mismatch machinery as the delay model:
//   E(slew, load) = internal energy (topology)          -- E0 term
//                 + load charging energy (C * V^2)      -- dominant at load
//                 + short-circuit energy (grows with input slew and with
//                   the drive resistance: slow edges through weak stacks
//                   conduct crowbar current longer).
// Mismatch enters through the same per-instance deltas as delay, so weak
// cells have both higher delay sigma and higher power sigma.

#include <algorithm>

#include "charlib/delay_model.hpp"

namespace sct::power {

struct PowerParams {
  double internalEnergy = 0.8;   ///< fJ per unit parasitic at unit drive
  double vdd = 1.1;              ///< V
  double shortCircuit = 12.0;    ///< fJ per (ns slew) x (kOhm drive)
  double internalFraction = 0.9; ///< mismatch coupling of the internal term
};

/// The draw-invariant part of transitionEnergy() at one operating point:
/// energy(local) repeats only the mismatch-dependent operations, so a caller
/// evaluating many draws at one point computes the rest once.
struct EnergyTerms {
  double internal = 0.0;      ///< internal energy before its mismatch factor
  double internalFraction = 0.0;
  double charging = 0.0;
  double shortCircuit = 0.0;  ///< short-circuit energy before its mismatch

  [[nodiscard]] double energy(const charlib::LocalDeltas& local,
                              double globalFactor = 1.0) const noexcept {
    const double energy =
        internal * (1.0 + internalFraction * local.dIntrinsic) + charging +
        shortCircuit * (1.0 + local.dDrive);
    return std::max(0.0, energy) * globalFactor;
  }
};

class PowerModel {
 public:
  PowerModel(const charlib::DelayModel& delayModel, PowerParams params = {})
      : delay_model_(delayModel), params_(params) {}

  [[nodiscard]] const PowerParams& params() const noexcept { return params_; }

  /// Energy of one output transition [fJ] for a given instance mismatch:
  /// terms(spec, slew, load).energy(local, globalFactor).
  [[nodiscard]] double transitionEnergy(const charlib::CellSpec& spec,
                                        double slew, double load,
                                        const charlib::LocalDeltas& local,
                                        double globalFactor = 1.0) const noexcept {
    return terms(spec, slew, load).energy(local, globalFactor);
  }

  /// The mismatch-free factors of transitionEnergy() at (slew, load).
  [[nodiscard]] EnergyTerms terms(const charlib::CellSpec& spec, double slew,
                                  double load) const noexcept;

  /// Average dynamic power [uW] of a cell toggling with the given activity
  /// (transitions per clock) at a clock period [ns].
  [[nodiscard]] double dynamicPower(const charlib::CellSpec& spec, double slew,
                                    double load, double activity,
                                    double periodNs) const noexcept;

 private:
  const charlib::DelayModel& delay_model_;
  PowerParams params_;
};

}  // namespace sct::power
