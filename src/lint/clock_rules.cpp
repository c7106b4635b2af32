// Clock rule pack: sanity of post-silicon tuning-element configuration
// (cst.clock.*) against the clock tree it decorates. An inverted range or a
// non-positive step silently disables tuning; a step coarser than the range
// leaves a single usable setting; and a range narrower than the tree's own
// skew sigma cannot re-center the slack it is meant to absorb.

#include <cmath>
#include <string>

#include "lint/rule.hpp"

namespace sct::lint {
namespace {

using clocktree::TuningElementSpec;

constexpr const char* kSpecPath = "clock/tuning-element";

std::string num(double v) { return std::to_string(v); }

void checkRangeInverted(const LintSubject& subject, const Emitter& emit) {
  const TuningElementSpec& spec = *subject.clockTuning;
  if (!std::isfinite(spec.rangeMin) || !std::isfinite(spec.rangeMax)) {
    emit(kSpecPath, "range bounds must be finite");
    return;
  }
  if (spec.rangeMin > spec.rangeMax) {
    emit(kSpecPath, "range is inverted (" + num(spec.rangeMin) + " > " +
                        num(spec.rangeMax) + ")");
  }
  if (spec.rangeMin < 0.0) {
    emit(kSpecPath, "negative delays are not realizable (rangeMin " +
                        num(spec.rangeMin) + ")");
  }
}

void checkStep(const LintSubject& subject, const Emitter& emit) {
  const TuningElementSpec& spec = *subject.clockTuning;
  if (!std::isfinite(spec.step) || spec.step <= 0.0) {
    emit(kSpecPath,
         "step " + num(spec.step) + " leaves no programmable settings");
  }
}

void checkStepCoarse(const LintSubject& subject, const Emitter& emit) {
  const TuningElementSpec& spec = *subject.clockTuning;
  if (spec.step <= 0.0 || spec.rangeMax < spec.rangeMin) return;  // errors
  if (spec.step > spec.rangeMax - spec.rangeMin) {
    emit(kSpecPath, "step " + num(spec.step) + " exceeds the range span " +
                        num(spec.rangeMax - spec.rangeMin) +
                        "; only rangeMin is programmable");
  }
}

void checkRangeBelowSkew(const LintSubject& subject, const Emitter& emit) {
  if (subject.clockTree == nullptr) return;  // no tree context: skip
  const TuningElementSpec& spec = *subject.clockTuning;
  if (spec.rangeMax < spec.rangeMin) return;  // reported as error already
  const double span = spec.rangeMax - spec.rangeMin;
  const double skew = subject.clockTree->worstSkewSigma();
  if (span < skew) {
    emit(kSpecPath, "range span " + num(span) +
                        " ns is below the tree's worst skew sigma " +
                        num(skew) +
                        " ns; tuning cannot absorb its own clock network "
                        "variation");
  }
}

constexpr RulePack kPack = RulePack::kClock;
constexpr Rule kRows[] = {
    {"cst.clock.range-inverted", kPack, Severity::kError,
     "tuning-element delay range must not be inverted or non-finite",
     checkRangeInverted},
    {"cst.clock.step-nonpositive", kPack, Severity::kError,
     "tuning resolution must be a positive finite step", checkStep},
    {"cst.clock.step-coarse", kPack, Severity::kWarning,
     "tuning step coarser than the range span leaves one setting",
     checkStepCoarse},
    {"cst.clock.range-below-skew", kPack, Severity::kWarning,
     "tuning range narrower than the clock tree's worst skew sigma",
     checkRangeBelowSkew},
};

}  // namespace

constinit const std::span<const Rule> kClockRules{kRows};

}  // namespace sct::lint
