#pragma once
// Multi-objective evolutionary window tuner (DESIGN.md §17). The genotype is
// one sigma-threshold gene per statistical cell; the phenotype is the
// per-pin LUT-window constraint set produced by
// tuning::constrainWithThresholds; fitness is a full constraints ->
// synthesize -> measure evaluation (worst-path sigma, area, mean power).
// The five paper methods' Table 2 sweep points are injected as seed
// individuals, so the reported Pareto front weakly dominates every paper
// point by construction. Every evaluated genotype is memoized through
// core::cachedStage, generation batches fan out on src/parallel with
// counter-based RNG streams, and the report/json bytes depend only on the
// job — never on cache state, thread count, or transport.

#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "evo/params.hpp"

namespace sct::evo {

/// One self-contained evolve request, shared by the CLI `evolve` command and
/// the sctuned daemon (same byte-identity contract as core::FlowJob).
struct EvolveJob {
  /// Flow context: profile/workload/period/mc/lint. The method/value fields
  /// are ignored — the tuner explores the whole method space itself.
  core::FlowJob flow;
  EvolveParams params;
};

/// Measured fitness of one genotype — the cached candidate-stage record.
struct CandidateFitness {
  bool feasible = false;  ///< synthesis met timing and windows
  double sigma = 0.0;     ///< worst endpoint path sigma [ns]
  double area = 0.0;
  double power = 0.0;

  static constexpr const char* kSection = "evo-cand";
  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("feasible", s.feasible);
    v("sigma", s.sigma);
    v("area", s.area);
    v("power", s.power);
  }
};

/// One member of the reported Pareto front.
struct FrontPoint {
  std::string origin;  ///< "seed:<method>@<value>" | "init:<i>" | "gen<g>:<i>"
  bool feasible = false;
  double sigma = 0.0;  ///< worst endpoint path sigma [ns]
  double area = 0.0;   ///< mapped area [um^2]
  double power = 0.0;  ///< mean dynamic power [uW]
  std::vector<double> genes;
};

/// One of the 20 paper-method sweep points evaluated as a seed individual.
struct BaselinePoint {
  std::string origin;  ///< "seed:<method>@<value>"
  bool feasible = false;
  double sigma = 0.0;
  double area = 0.0;
  double power = 0.0;
  /// Weakly dominated-or-matched by some front point over the enabled
  /// objectives — true for every baseline by construction (the seeds live in
  /// the archive the front is drawn from); asserted by the tests.
  bool dominated = false;
};

struct EvolveRunResult {
  bool success = false;  ///< at least one feasible front point
  std::string summary;   ///< one-line human summary
  std::string report;    ///< deterministic "evolve-report v1" text (%.17g)
  std::string json;      ///< same result as one deterministic JSON document
  std::vector<FrontPoint> front;        ///< sorted by (sigma, area, power)
  std::vector<BaselinePoint> baselines; ///< method-major, sweep-value order
  std::uint64_t evaluations = 0;  ///< genotypes submitted over the run
  std::uint64_t unique = 0;       ///< distinct genotypes (archive size)
};

/// Runs the tuner on an already-constructed flow. Candidate fitness goes
/// through core::cachedStage ("evo.stage.candidate") against the flow's
/// cache tiers, keyed by flow.measurementContextDigest(period) + the gene
/// vector, so a warm rerun reports zero candidate misses. Gated by the lint
/// evo pack according to flow.config().lintMode. Throws std::runtime_error
/// on an invalid job (lint errors, missing period, unknown objectives).
[[nodiscard]] EvolveRunResult runEvolveJob(core::TuningFlow& flow,
                                           const EvolveJob& job);

}  // namespace sct::evo
