// Evo rule pack: sanity of evolutionary-tuner configuration (evo.*) before
// a run burns a generation of fitness evaluations on it. A population below
// two cannot recombine; zero generations plus no seeds is an empty search;
// an empty or unknown objective set makes dominance vacuous; inverted gene
// bounds clamp every mutation to a single point.

#include <cmath>
#include <string>

#include "lint/rule.hpp"

namespace sct::lint {
namespace {

using evo::EvolveParams;

constexpr const char* kSpecPath = "evo/params";

std::string num(double v) { return std::to_string(v); }

void checkPopulation(const LintSubject& subject, const Emitter& emit) {
  const EvolveParams& params = *subject.evolveParams;
  if (params.population < 2) {
    emit(kSpecPath, "population " + std::to_string(params.population) +
                        " cannot run binary tournaments (need >= 2)");
  }
}

void checkGenerations(const LintSubject& subject, const Emitter& emit) {
  if (subject.evolveParams->generations == 0) {
    emit(kSpecPath,
         "generations is 0: the run would only re-evaluate the seeds");
  }
}

void checkObjectives(const LintSubject& subject, const Emitter& emit) {
  std::string error =
      evo::parseObjectives(subject.evolveParams->objectives).error;
  if (!error.empty()) emit(kSpecPath, std::move(error));
}

void checkGeneBounds(const LintSubject& subject, const Emitter& emit) {
  const EvolveParams& params = *subject.evolveParams;
  if (!std::isfinite(params.geneMin) || !std::isfinite(params.geneMax)) {
    emit(kSpecPath, "gene bounds must be finite");
    return;
  }
  if (params.geneMin < 0.0) {
    emit(kSpecPath, "negative sigma thresholds are meaningless (gene-min " +
                        num(params.geneMin) + ")");
  }
  if (params.geneMin >= params.geneMax) {
    emit(kSpecPath, "gene bounds are inverted or collapsed (" +
                        num(params.geneMin) + " >= " + num(params.geneMax) +
                        ")");
  }
}

constexpr RulePack kPack = RulePack::kEvo;
constexpr Rule kRows[] = {
    {"evo.population.too-small", kPack, Severity::kError,
     "population must hold at least two individuals for recombination",
     checkPopulation},
    {"evo.generations.zero", kPack, Severity::kError,
     "at least one variation generation must run after the seeded "
     "generation",
     checkGenerations},
    {"evo.objectives.invalid", kPack, Severity::kError,
     "objective set must be a non-empty subset of sigma,area,power",
     checkObjectives},
    {"evo.gene-bounds.inverted", kPack, Severity::kError,
     "sigma gene bounds must be finite, non-negative and ordered",
     checkGeneBounds},
};

}  // namespace

constinit const std::span<const Rule> kEvoRules{kRows};

}  // namespace sct::lint
