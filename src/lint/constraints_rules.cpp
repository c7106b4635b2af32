// Constraints rule pack: sanity of tuned per-pin slew/load windows (paper
// section VI.C). An inverted window allows nothing and silently makes a cell
// unusable; windows outside a pin's characterized LUT range mean the tuner
// and the library disagree about the tables; and windows that dodge every
// characterized breakpoint make the largest-rectangle result suspect.

#include <cmath>
#include <string>

#include "lint/rule.hpp"

namespace sct::lint {
namespace {

constexpr double kTolerance = 1e-12;

std::string pinPath(const std::string& cell, const std::string& pin) {
  return "constraints/" + cell + "/" + pin;
}

/// Axes of the first arc driving `pin`; nullptr when the cell or pin has no
/// characterized tables to compare against.
const liberty::TimingArc* referenceArc(const liberty::Library* library,
                                       const std::string& cellName,
                                       const std::string& pinName) {
  if (library == nullptr) return nullptr;
  const liberty::Cell* cell = library->findCell(cellName);
  if (cell == nullptr) return nullptr;
  const auto arcs = cell->fanoutArcs(pinName);
  return arcs.empty() ? nullptr : arcs.front();
}

void checkInverted(const LintSubject& subject, const Emitter& emit) {
  for (const auto& [cellName, constraint] : subject.constraints->cells()) {
    for (const auto& [pinName, window] : constraint.pinWindows) {
      if (window.minSlew > window.maxSlew) {
        emit(pinPath(cellName, pinName),
             "slew window is inverted (" + std::to_string(window.minSlew) +
                 " > " + std::to_string(window.maxSlew) + ")");
      }
      if (window.minLoad > window.maxLoad) {
        emit(pinPath(cellName, pinName),
             "load window is inverted (" + std::to_string(window.minLoad) +
                 " > " + std::to_string(window.maxLoad) + ")");
      }
      if (!std::isfinite(window.minSlew) || !std::isfinite(window.maxSlew) ||
          !std::isfinite(window.minLoad) || !std::isfinite(window.maxLoad)) {
        emit(pinPath(cellName, pinName), "window bound is non-finite");
      }
    }
  }
}

void checkAxisRange(const Emitter& emit, const std::string& cell,
                    const std::string& pin, const char* axisName, double lo,
                    double hi, const numeric::Axis& axis) {
  if (axis.empty()) return;
  // A window may start below the first breakpoint (0 means "from the
  // table origin"), but negative bounds or bounds beyond the last
  // breakpoint are outside anything the library characterized.
  if (lo < -kTolerance) {
    emit(pinPath(cell, pin), std::string(axisName) +
                                 " window starts at negative " +
                                 std::to_string(lo));
  }
  if (hi > axis.back() + kTolerance) {
    emit(pinPath(cell, pin),
         std::string(axisName) + " window extends to " + std::to_string(hi) +
             " beyond the characterized range (max " +
             std::to_string(axis.back()) + ")");
  } else if (lo > axis.back() + kTolerance) {
    emit(pinPath(cell, pin),
         std::string(axisName) + " window starts at " + std::to_string(lo) +
             " beyond the characterized range (max " +
             std::to_string(axis.back()) + ")");
  }
}

void checkRange(const LintSubject& subject, const Emitter& emit) {
  for (const auto& [cellName, constraint] : subject.constraints->cells()) {
    for (const auto& [pinName, window] : constraint.pinWindows) {
      const liberty::TimingArc* arc =
          referenceArc(subject.referenceLibrary, cellName, pinName);
      if (arc == nullptr) continue;  // cst.unknown-cell reports these
      checkAxisRange(emit, cellName, pinName, "slew", window.minSlew,
                     window.maxSlew, arc->riseDelay.slewAxis());
      checkAxisRange(emit, cellName, pinName, "load", window.minLoad,
                     window.maxLoad, arc->riseDelay.loadAxis());
    }
  }
}

bool axisHit(double lo, double hi, const numeric::Axis& axis) {
  for (double v : axis) {
    if (v >= lo - kTolerance && v <= hi + kTolerance) return true;
  }
  return false;
}

void checkNoGridPoint(const LintSubject& subject, const Emitter& emit) {
  for (const auto& [cellName, constraint] : subject.constraints->cells()) {
    for (const auto& [pinName, window] : constraint.pinWindows) {
      if (window.minSlew > window.maxSlew || window.minLoad > window.maxLoad) {
        continue;  // cst.window.inverted reports these
      }
      const liberty::TimingArc* arc =
          referenceArc(subject.referenceLibrary, cellName, pinName);
      if (arc == nullptr) continue;
      const bool slewHit = axisHit(window.minSlew, window.maxSlew,
                                   arc->riseDelay.slewAxis());
      const bool loadHit = axisHit(window.minLoad, window.maxLoad,
                                   arc->riseDelay.loadAxis());
      if (slewHit && loadHit) continue;
      emit(pinPath(cellName, pinName),
           std::string("window excludes every characterized ") +
               (slewHit ? "load" : "slew") + " breakpoint");
    }
  }
}

void checkUnknownTarget(const LintSubject& subject, const Emitter& emit) {
  const liberty::Library* library = subject.referenceLibrary;
  if (library == nullptr) return;
  for (const auto& [cellName, constraint] : subject.constraints->cells()) {
    const liberty::Cell* cell = library->findCell(cellName);
    if (cell == nullptr) {
      emit("constraints/" + cellName,
           "constraint references unknown cell (library '" + library->name() +
               "')");
      continue;
    }
    for (const auto& [pinName, window] : constraint.pinWindows) {
      (void)window;
      const liberty::Pin* pin = cell->findPin(pinName);
      if (pin == nullptr) {
        emit(pinPath(cellName, pinName), "constraint references unknown pin");
      } else if (pin->direction != liberty::PinDirection::kOutput) {
        emit(pinPath(cellName, pinName),
             "constrained pin is not an output pin");
      }
    }
  }
}

constexpr RulePack kPack = RulePack::kConstraints;
constexpr Rule kRows[] = {
    {"cst.window.inverted", kPack, Severity::kError,
     "pin windows must not be empty or inverted", checkInverted},
    {"cst.window.out-of-range", kPack, Severity::kError,
     "pin windows must lie inside the characterized LUT range", checkRange},
    {"cst.window.no-grid-point", kPack, Severity::kWarning,
     "pin windows should contain at least one characterized point",
     checkNoGridPoint},
    {"cst.unknown-cell", kPack, Severity::kError,
     "constraints must reference existing library cells and pins",
     checkUnknownTarget},
};

}  // namespace

constinit const std::span<const Rule> kConstraintsRules{kRows};

}  // namespace sct::lint
