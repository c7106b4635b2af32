#include "power/power_model.hpp"

#include <cassert>

namespace sct::power {

EnergyTerms PowerModel::terms(const charlib::CellSpec& spec, double slew,
                              double load) const noexcept {
  assert(slew >= 0.0 && load >= 0.0);
  const liberty::FunctionTraits& t = liberty::traits(spec.function);
  EnergyTerms out;
  // Internal (parasitic-capacitance) energy: scales with the topology and
  // the drive strength, inherits the intrinsic-delay mismatch.
  out.internal = params_.internalEnergy * t.parasitic * spec.driveStrength;
  out.internalFraction = params_.internalFraction;
  // Load charging: E = C * Vdd^2 (pF * V^2 = pJ -> x1000 fJ). Pure physics,
  // no mismatch: the load capacitance belongs to the fanout, not this cell.
  out.charging = load * params_.vdd * params_.vdd * 1e3;
  // Short-circuit: crowbar conduction while the input traverses the
  // threshold band; longer for slow edges and weak (high-R) stacks; carries
  // the drive mismatch.
  out.shortCircuit = params_.shortCircuit * slew * spec.driveRes;
  return out;
}

double PowerModel::dynamicPower(const charlib::CellSpec& spec, double slew,
                                double load, double activity,
                                double periodNs) const noexcept {
  assert(periodNs > 0.0);
  // fJ per transition * transitions per ns = uW (fJ/ns = uW).
  const double energy =
      transitionEnergy(spec, slew, load, charlib::LocalDeltas{}, 1.0);
  return energy * activity / periodNs;
}

}  // namespace sct::power
