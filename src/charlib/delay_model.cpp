#include "charlib/delay_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sct::charlib {

CellSpec DelayModel::makeSpec(liberty::CellFunction f,
                              double driveStrength) const {
  assert(driveStrength > 0.0);
  const liberty::FunctionTraits& t = liberty::traits(f);
  CellSpec spec;
  spec.name = liberty::makeCellName(f, driveStrength);
  spec.function = f;
  spec.driveStrength = driveStrength;

  // Deterministic electrical personality of the cell *type* (not instance
  // mismatch): topology-level differences between cells of equal strength.
  numeric::Rng personality(numeric::Rng::hashTag(spec.name));
  const double spread = tech_.personalitySpread;
  const double resJitter = 1.0 + personality.uniform(-spread, spread);
  const double intJitter = 1.0 + personality.uniform(-spread, spread);

  spec.driveRes = tech_.rUnit / driveStrength * resJitter;
  spec.inputCap = tech_.cInUnit * t.logicalEffort * driveStrength;
  spec.intrinsic = tech_.tau * t.parasitic * intJitter;
  spec.maxLoad = tech_.maxLoadPerStrength * driveStrength;
  // Area grows sub-linearly at the low end (shared wells/rails), linearly
  // after; relative footprint follows the function complexity.
  spec.area = tech_.areaUnit * t.unitArea * (0.35 + 0.65 * driveStrength);
  // Pelgrom: mismatch shrinks with the square root of device area.
  spec.localSigma =
      variation_.pelgrom / std::sqrt(driveStrength * t.unitArea);
  if (t.sequential) {
    spec.setupTime = 0.040 + 0.020 / driveStrength;
    spec.holdTime = 0.010;
  }
  return spec;
}

namespace {

/// Shared core of delay(): the slew-sensitivity coefficient including the
/// high-load boost (steeper slew dependence when the output edge is slow).
double slewCoefficient(const TechnologyParams& tech, double rc) noexcept {
  return tech.slewSens *
         (1.0 + tech.slewSensLoadBoost * rc / (rc + tech.slewSensLoadKnee));
}

/// Overload blow-up towards (and beyond) the cell's drive limit.
double overloadFactor(const TechnologyParams& tech, const CellSpec& spec,
                      double load) noexcept {
  const double x = load / spec.maxLoad;
  return 1.0 + tech.overload * x * x;
}

// Per-instance cores shared by the scalar and batched entry points: the
// instance-invariant subterms arrive precomputed, the mismatch-dependent
// arithmetic lives in exactly one expression tree, so both paths round
// identically by construction.

/// delay() with rc = driveRes*load, ov = overloadFactor and
/// cs = slewCoefficient*slew hoisted.
inline double delayCore(double rc, double ov, double cs, double intrinsic,
                        double dDrive, double dIntrinsic, double dSlew,
                        double cornerFactor, double globalFactor) noexcept {
  const double driveTerm = rc * (1.0 + dDrive) * ov;
  const double intrinsicTerm = intrinsic * (1.0 + dIntrinsic);
  // The slew term inherits part of the drive mismatch: a weak transistor
  // both drives the load slower and resolves a slow input edge later. This
  // coupling makes the sigma surface rise along the slew axis fastest where
  // the load is heavy, the structure the slew-slope tuning methods exploit.
  const double slewTerm = cs * (1.0 + 0.7 * dDrive + dSlew);
  const double nominal = intrinsicTerm + driveTerm + slewTerm;
  return std::max(0.0, nominal) * cornerFactor * globalFactor;
}

/// outputSlew() with rl = driveRes*load, ov = overloadFactor,
/// ti = transIntrinsic*intrinsic and tl = transLeak*slew hoisted.
inline double outputSlewCore(double rl, double ov, double ti, double tl,
                             double transDrive, double dDrive,
                             double dIntrinsic, double cornerFactor,
                             double globalFactor) noexcept {
  const double rc = rl * (1.0 + dDrive) * ov;
  const double value = ti * (1.0 + dIntrinsic) + transDrive * rc + tl;
  return std::max(1e-4, value * cornerFactor * globalFactor);
}

}  // namespace

double DelayModel::delay(const CellSpec& spec, double slew, double load,
                         const LocalDeltas& local, double cornerFactor,
                         double globalFactor) const noexcept {
  assert(slew >= 0.0 && load >= 0.0);
  const double rc = spec.driveRes * load;
  return delayCore(rc, overloadFactor(tech_, spec, load),
                   slewCoefficient(tech_, rc) * slew, spec.intrinsic,
                   local.dDrive, local.dIntrinsic, local.dSlew, cornerFactor,
                   globalFactor);
}

double DelayModel::outputSlew(const CellSpec& spec, double slew, double load,
                              const LocalDeltas& local, double cornerFactor,
                              double globalFactor) const noexcept {
  return outputSlewCore(spec.driveRes * load,
                        overloadFactor(tech_, spec, load),
                        tech_.transIntrinsic * spec.intrinsic,
                        tech_.transLeak * slew, tech_.transDrive,
                        local.dDrive, local.dIntrinsic, cornerFactor,
                        globalFactor);
}

void DelayModel::delayBatch(const CellSpec& spec, double slew, double load,
                            const LocalDeltasBatch& local, double cornerFactor,
                            double globalFactor,
                            std::span<double> out) const noexcept {
  assert(slew >= 0.0 && load >= 0.0);
  assert(out.size() == local.size());
  const double rc = spec.driveRes * load;
  const double ov = overloadFactor(tech_, spec, load);
  const double cs = slewCoefficient(tech_, rc) * slew;
  const double intrinsic = spec.intrinsic;
  const double* const dDrive = local.dDrive.data();
  const double* const dIntrinsic = local.dIntrinsic.data();
  const double* const dSlew = local.dSlew.data();
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = delayCore(rc, ov, cs, intrinsic, dDrive[k], dIntrinsic[k],
                       dSlew[k], cornerFactor, globalFactor);
  }
}

void DelayModel::outputSlewBatch(const CellSpec& spec, double slew,
                                 double load, const LocalDeltasBatch& local,
                                 double cornerFactor, double globalFactor,
                                 std::span<double> out) const noexcept {
  assert(out.size() == local.size());
  const double rl = spec.driveRes * load;
  const double ov = overloadFactor(tech_, spec, load);
  const double ti = tech_.transIntrinsic * spec.intrinsic;
  const double tl = tech_.transLeak * slew;
  const double transDrive = tech_.transDrive;
  const double* const dDrive = local.dDrive.data();
  const double* const dIntrinsic = local.dIntrinsic.data();
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = outputSlewCore(rl, ov, ti, tl, transDrive, dDrive[k],
                            dIntrinsic[k], cornerFactor, globalFactor);
  }
}

LocalDeltas DelayModel::drawLocal(const CellSpec& spec,
                                  numeric::Rng& rng) const noexcept {
  return scaleLocal(spec, drawNormals(rng));
}

LocalNormals DelayModel::drawNormals(numeric::Rng& rng) noexcept {
  LocalNormals z;
  z.zDrive = rng.normal();
  z.zIntrinsic = rng.normal();
  z.zSlew = rng.normal();
  return z;
}

double DelayModel::drawGlobalFactor(numeric::Rng& rng) const noexcept {
  return 1.0 + rng.normal(0.0, variation_.globalSigma);
}

}  // namespace sct::charlib
