// Statlib rule pack: sanity of the merged statistical library (paper
// section IV, Fig. 2). Negative or NaN sigmas poison every downstream
// RSS/convolution; a sample count below 2 means the sigma surfaces are
// meaningless; and grids that drifted from the nominal library indicate the
// merge mixed incompatible instances.

#include <cmath>
#include <string>

#include "lint/rule.hpp"

namespace sct::lint {
namespace {

using statlib::StatArc;
using statlib::StatCell;
using statlib::StatLut;

std::string arcPath(const StatCell& cell, const StatArc& arc,
                    const char* edge) {
  return "stat/" + cell.name() + "/" + arc.relatedPin + "->" + arc.outputPin +
         "/" + edge;
}

/// Applies `fn(cell, arc, edgeName, lut)` to both edges of every arc.
template <class Fn>
void forEachEdge(const statlib::StatLibrary& library, Fn&& fn) {
  for (const StatCell* cell : library.cells()) {
    for (const StatArc& arc : cell->arcs()) {
      fn(*cell, arc, "rise", arc.rise);
      fn(*cell, arc, "fall", arc.fall);
    }
  }
}

void checkSigma(const LintSubject& subject, const Emitter& emit) {
  forEachEdge(*subject.statLibrary, [&](const StatCell& cell,
                                        const StatArc& arc, const char* edge,
                                        const StatLut& lut) {
    for (std::size_t r = 0; r < lut.rows(); ++r) {
      for (std::size_t c = 0; c < lut.cols(); ++c) {
        const double sigma = lut.sigma().at(r, c);
        if (std::isfinite(sigma) && sigma >= 0.0) continue;
        emit(arcPath(cell, arc, edge) + ".sigma",
             std::string(std::isfinite(sigma) ? "negative" : "non-finite") +
                 " sigma " + std::to_string(sigma) + " at [" +
                 std::to_string(r) + "," + std::to_string(c) + "]");
        return;
      }
    }
  });
}

void checkMean(const LintSubject& subject, const Emitter& emit) {
  forEachEdge(*subject.statLibrary, [&](const StatCell& cell,
                                        const StatArc& arc, const char* edge,
                                        const StatLut& lut) {
    for (std::size_t r = 0; r < lut.rows(); ++r) {
      for (std::size_t c = 0; c < lut.cols(); ++c) {
        const double mean = lut.mean().at(r, c);
        if (std::isfinite(mean) && mean >= 0.0) continue;
        emit(arcPath(cell, arc, edge) + ".mean",
             std::string(std::isfinite(mean) ? "negative" : "non-finite") +
                 " mean delay " + std::to_string(mean) + " at [" +
                 std::to_string(r) + "," + std::to_string(c) + "]");
        return;
      }
    }
  });
}

void checkSigmaExceedsMean(const LintSubject& subject, const Emitter& emit) {
  forEachEdge(*subject.statLibrary, [&](const StatCell& cell,
                                        const StatArc& arc, const char* edge,
                                        const StatLut& lut) {
    for (std::size_t r = 0; r < lut.rows(); ++r) {
      for (std::size_t c = 0; c < lut.cols(); ++c) {
        const double mean = lut.mean().at(r, c);
        const double sigma = lut.sigma().at(r, c);
        if (!std::isfinite(mean) || !std::isfinite(sigma)) continue;
        if (mean <= 0.0 || sigma <= mean) continue;
        emit(arcPath(cell, arc, edge),
             "sigma " + std::to_string(sigma) + " exceeds mean " +
                 std::to_string(mean) + " at [" + std::to_string(r) + "," +
                 std::to_string(c) + "]");
        return;
      }
    }
  });
}

void checkSampleCount(const LintSubject& subject, const Emitter& emit) {
  const std::size_t samples = subject.statLibrary->sampleCount();
  if (samples >= 2) return;
  emit("stat/" + subject.statLibrary->name(),
       "statistical tables were merged from " + std::to_string(samples) +
           " library instance(s); sigma needs at least 2");
}

void checkAxes(const Emitter& emit, const StatCell& cell, const StatArc& arc,
               const char* edge, const StatLut& stat,
               const liberty::Lut& nominal) {
  if (stat.slewAxis() == nominal.slewAxis() &&
      stat.loadAxis() == nominal.loadAxis()) {
    return;
  }
  emit(arcPath(cell, arc, edge),
       "statistical grid axes differ from the nominal library table");
}

void checkGridMismatch(const LintSubject& subject, const Emitter& emit) {
  // Cross-check; skipped without a nominal reference library.
  const liberty::Library* nominal = subject.referenceLibrary;
  if (nominal == nullptr) return;
  for (const StatCell* cell : subject.statLibrary->cells()) {
    const liberty::Cell* nominalCell = nominal->findCell(cell->name());
    if (nominalCell == nullptr) {
      emit("stat/" + cell->name(),
           "cell is not present in the nominal library '" + nominal->name() +
               "'");
      continue;
    }
    for (const StatArc& arc : cell->arcs()) {
      const liberty::TimingArc* nominalArc =
          nominalCell->findArc(arc.relatedPin, arc.outputPin);
      if (nominalArc == nullptr) {
        emit(arcPath(*cell, arc, "rise"),
             "arc has no counterpart in the nominal library");
        continue;
      }
      checkAxes(emit, *cell, arc, "rise", arc.rise, nominalArc->riseDelay);
      checkAxes(emit, *cell, arc, "fall", arc.fall, nominalArc->fallDelay);
    }
  }
}

constexpr RulePack kPack = RulePack::kStatLib;
constexpr Rule kRows[] = {
    {"stat.sigma.invalid", kPack, Severity::kError,
     "sigma surfaces must be finite and non-negative", checkSigma},
    {"stat.mean.invalid", kPack, Severity::kError,
     "mean surfaces must be finite and non-negative", checkMean},
    {"stat.sigma.exceeds-mean", kPack, Severity::kWarning,
     "a local-variation sigma above its mean delay is implausible",
     checkSigmaExceedsMean},
    {"stat.samples.insufficient", kPack, Severity::kError,
     "the merged-instance count must support a sigma estimate",
     checkSampleCount},
    {"stat.grid.mismatch", kPack, Severity::kError,
     "statistical grids must match the nominal library's arc tables",
     checkGridMismatch},
};

}  // namespace

constinit const std::span<const Rule> kStatLibRules{kRows};

}  // namespace sct::lint
