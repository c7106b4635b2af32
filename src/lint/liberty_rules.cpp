// Liberty rule pack: structural sanity of characterized libraries. These
// catch the input corruptions that otherwise surface deep inside the flow —
// eqs. (12)-(13) divide by axis deltas (unordered/duplicate breakpoints),
// interpolation assumes finite non-negative entries, and the mapper assumes
// every declared output pin has timing arcs of one consistent shape.

#include <array>
#include <cmath>
#include <string>

#include "lint/rule.hpp"

namespace sct::lint {
namespace {

using liberty::Cell;
using liberty::Lut;
using liberty::TimingArc;

/// The four tables of an arc with their Liberty group names.
struct NamedLut {
  const Lut* lut;
  const char* name;
};

std::array<NamedLut, 4> arcTables(const TimingArc& arc) {
  return {{{&arc.riseDelay, "cell_rise"},
           {&arc.fallDelay, "cell_fall"},
           {&arc.riseTransition, "rise_transition"},
           {&arc.fallTransition, "fall_transition"}}};
}

std::string tablePath(const Cell& cell, const TimingArc& arc,
                      const char* table) {
  return "lib/" + cell.name() + "/" + arc.outputPin + "/" + table;
}

/// First index where the axis is not strictly increasing; npos when ordered.
std::size_t firstDisorder(const numeric::Axis& axis) noexcept {
  for (std::size_t i = 0; i + 1 < axis.size(); ++i) {
    if (!(axis[i] < axis[i + 1])) return i + 1;
  }
  return std::string::npos;
}

void checkAxis(const Emitter& emit, const Cell& cell, const TimingArc& arc,
               const char* table, const char* axisName,
               const numeric::Axis& axis) {
  if (axis.size() < 2) {
    emit(tablePath(cell, arc, table),
         std::string(axisName) + " has " + std::to_string(axis.size()) +
             " breakpoints (need at least 2)");
    return;
  }
  const std::size_t bad = firstDisorder(axis);
  if (bad == std::string::npos) return;
  const bool duplicate = axis[bad] == axis[bad - 1];
  emit(tablePath(cell, arc, table),
       std::string(axisName) + (duplicate ? " has duplicate breakpoint "
                                          : " is not increasing at index ") +
           std::to_string(bad) + " (value " + std::to_string(axis[bad]) + ")");
}

void checkAxisOrder(const LintSubject& subject, const Emitter& emit) {
  for (const Cell* cell : subject.library->cells()) {
    for (const TimingArc& arc : cell->arcs()) {
      for (const NamedLut& table : arcTables(arc)) {
        checkAxis(emit, *cell, arc, table.name, "index_1 (slew)",
                  table.lut->slewAxis());
        checkAxis(emit, *cell, arc, table.name, "index_2 (load)",
                  table.lut->loadAxis());
      }
    }
  }
}

void checkGrid(const Emitter& emit, std::string path, const Lut& lut) {
  for (std::size_t r = 0; r < lut.rows(); ++r) {
    for (std::size_t c = 0; c < lut.cols(); ++c) {
      const double v = lut.at(r, c);
      if (std::isfinite(v) && v >= 0.0) continue;
      emit(std::move(path),
           std::string(std::isfinite(v) ? "negative" : "non-finite") +
               " entry " + std::to_string(v) + " at [" + std::to_string(r) +
               "," + std::to_string(c) + "]");
      return;  // one diagnostic per table keeps corrupt files readable
    }
  }
}

void checkValues(const LintSubject& subject, const Emitter& emit) {
  for (const Cell* cell : subject.library->cells()) {
    for (const TimingArc& arc : cell->arcs()) {
      for (const NamedLut& table : arcTables(arc)) {
        checkGrid(emit, tablePath(*cell, arc, table.name), *table.lut);
      }
    }
    if (!cell->setupLut().empty()) {
      // Setup requirements may legitimately be negative; only reject
      // non-finite entries.
      for (double v : cell->setupLut().values().flat()) {
        if (!std::isfinite(v)) {
          emit("lib/" + cell->name() + "/setup",
               "setup LUT contains a non-finite entry");
          break;
        }
      }
    }
  }
}

void checkDelayMonotone(const Emitter& emit, std::string path,
                        const Lut& lut) {
  // Tolerate bit-level noise; physical delay grows with load.
  constexpr double kTolerance = 1e-12;
  for (std::size_t r = 0; r < lut.rows(); ++r) {
    for (std::size_t c = 0; c + 1 < lut.cols(); ++c) {
      const double here = lut.at(r, c);
      const double next = lut.at(r, c + 1);
      if (!std::isfinite(here) || !std::isfinite(next)) continue;
      if (next + kTolerance >= here) continue;
      emit(std::move(path),
           "delay decreases with load in row " + std::to_string(r) +
               " between columns " + std::to_string(c) + " and " +
               std::to_string(c + 1) + " (" + std::to_string(here) + " -> " +
               std::to_string(next) + ")");
      return;
    }
  }
}

void checkMonotoneLoad(const LintSubject& subject, const Emitter& emit) {
  for (const Cell* cell : subject.library->cells()) {
    for (const TimingArc& arc : cell->arcs()) {
      checkDelayMonotone(emit, tablePath(*cell, arc, "cell_rise"),
                         arc.riseDelay);
      checkDelayMonotone(emit, tablePath(*cell, arc, "cell_fall"),
                         arc.fallDelay);
    }
  }
}

void checkPinRef(const Emitter& emit, const Cell& cell, const TimingArc& arc,
                 const std::string& pinName, liberty::PinDirection direction,
                 const char* role) {
  const liberty::Pin* pin = cell.findPin(pinName);
  if (pin == nullptr) {
    emit("lib/" + cell.name() + "/" + arc.outputPin,
         "timing arc references undeclared " + std::string(role) + " '" +
             pinName + "'");
  } else if (pin->direction != direction) {
    emit("lib/" + cell.name() + "/" + arc.outputPin,
         "timing arc " + std::string(role) + " '" + pinName +
             "' has the wrong direction");
  }
}

void checkMissingArc(const LintSubject& subject, const Emitter& emit) {
  for (const Cell* cell : subject.library->cells()) {
    // Tie cells (no inputs) legitimately have arc-less outputs.
    if (cell->inputPins().empty()) continue;
    for (const liberty::Pin* pin : cell->outputPins()) {
      if (cell->fanoutArcs(pin->name).empty()) {
        emit("lib/" + cell->name() + "/" + pin->name,
             "declared output pin has no timing arc");
      }
    }
    for (const TimingArc& arc : cell->arcs()) {
      checkPinRef(emit, *cell, arc, arc.relatedPin,
                  liberty::PinDirection::kInput, "related_pin");
      checkPinRef(emit, *cell, arc, arc.outputPin,
                  liberty::PinDirection::kOutput, "output pin");
    }
  }
}

void checkLutShape(const LintSubject& subject, const Emitter& emit) {
  for (const Cell* cell : subject.library->cells()) {
    const Lut* reference = nullptr;
    const char* referenceName = nullptr;
    for (const TimingArc& arc : cell->arcs()) {
      for (const NamedLut& table : arcTables(arc)) {
        if (table.lut->empty()) {
          emit(tablePath(*cell, arc, table.name), "LUT is empty");
          continue;
        }
        if (reference == nullptr) {
          reference = table.lut;
          referenceName = table.name;
          continue;
        }
        // Delay and transition tables of one cell are characterized over
        // one template; dimension skew means a merge/slice bug upstream.
        if (table.lut->rows() != reference->rows() ||
            table.lut->cols() != reference->cols()) {
          emit(tablePath(*cell, arc, table.name),
               "LUT is " + std::to_string(table.lut->rows()) + "x" +
                   std::to_string(table.lut->cols()) + " but " +
                   referenceName + " is " + std::to_string(reference->rows()) +
                   "x" + std::to_string(reference->cols()));
        } else if (!table.lut->sameShape(*reference)) {
          emit(tablePath(*cell, arc, table.name),
               "LUT axes differ from the cell's reference table");
        }
      }
    }
  }
}

constexpr RulePack kPack = RulePack::kLiberty;
constexpr Rule kRows[] = {
    {"lib.axis.order", kPack, Severity::kError,
     "LUT axis breakpoints must be strictly increasing (no duplicates)",
     checkAxisOrder},
    {"lib.value.invalid", kPack, Severity::kError,
     "delay/transition LUT entries must be finite and non-negative",
     checkValues},
    {"lib.lut.monotone-load", kPack, Severity::kWarning,
     "delay LUT rows should be non-decreasing along the load axis",
     checkMonotoneLoad},
    {"lib.pin.missing-arc", kPack, Severity::kError,
     "declared pins and timing arcs must reference each other",
     checkMissingArc},
    {"lib.lut.shape", kPack, Severity::kError,
     "all LUTs of a cell must share one table shape", checkLutShape},
};

}  // namespace

constinit const std::span<const Rule> kLibertyRules{kRows};

}  // namespace sct::lint
