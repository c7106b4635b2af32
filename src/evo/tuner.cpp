#include "evo/tuner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "artifact/fields.hpp"
#include "artifact/hash.hpp"
#include "core/fmt17.hpp"
#include "core/stage_cache.hpp"
#include "evo/nsga2.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "statlib/stat_library.hpp"
#include "synth/synthesis.hpp"
#include "tuning/methods.hpp"
#include "tuning/restriction.hpp"

namespace sct::evo {
namespace {

constexpr std::uint32_t kEvolveSchema = 1;
constexpr double kInf = std::numeric_limits<double>::infinity();

using core::fmt17;

/// Candidate cache key: measurement context (everything influencing a
/// constraints -> synthesize -> measure run at this period) + the genes.
artifact::Digest candidateKey(const artifact::Digest& context,
                              const std::vector<double>& genes) {
  artifact::Hasher hasher;
  hasher.str("evo-cand-v1");
  hasher.u32(kEvolveSchema);
  hasher.u64(context.hi).u64(context.lo);
  hasher.f64span(genes);
  return hasher.digest();
}

/// Short content digest of a gene vector for the text report (the JSON
/// carries the full vector).
std::string genesDigest(const std::vector<double>& genes) {
  artifact::Hasher hasher;
  hasher.str("evo-genes");
  hasher.f64span(genes);
  return hasher.digest().hex();
}

/// Genotype -> phenotype -> fitness: per-cell thresholds, window
/// restriction, constrained synthesis, statistical measurement. Safe to run
/// concurrently once the flow's nominal/stat/subject artifacts are resolved.
CandidateFitness computeFitness(core::TuningFlow& flow, double period,
                                const std::vector<std::string>& geneCells,
                                const std::vector<double>& genes) {
  std::map<std::string, double> thresholds;
  for (std::size_t i = 0; i < geneCells.size(); ++i) {
    thresholds.emplace(geneCells[i], genes[i]);
  }
  const tuning::LibraryConstraints constraints =
      tuning::constrainWithThresholds(flow.statLibrary(), thresholds);
  const synth::Synthesizer synthesizer(flow.nominalLibrary(), &constraints);
  const core::DesignMeasurement m =
      flow.measure(flow.synthesize(synthesizer, period), period);

  CandidateFitness fitness;
  fitness.feasible = m.success();
  fitness.area = m.area();
  fitness.power = m.power.meanPower;
  for (const core::PathRecord& path : m.paths) {
    fitness.sigma = std::max(fitness.sigma, path.sigma);
  }
  return fitness;
}

/// Objective point in the canonical sigma/area/power order; infeasible
/// candidates sit at +inf on every axis so any feasible point dominates them
/// while two infeasible points never dominate each other.
std::vector<double> objectivePoint(const CandidateFitness& fitness) {
  if (!fitness.feasible) return {kInf, kInf, kInf};
  return {fitness.sigma, fitness.area, fitness.power};
}

struct Candidate {
  std::string origin;
  std::vector<double> genes;
};

struct Evaluated {
  std::string origin;  ///< first submission that produced this genotype
  std::vector<double> genes;
  CandidateFitness fitness;
  std::vector<double> objectives;
};

/// The archive of every evaluated genotype plus the batched, memoized
/// evaluator. The reported front is the nondominated set of the archive, so
/// no evaluated point — seed or offspring — is ever lost to generational
/// replacement.
class Archive {
 public:
  Archive(core::TuningFlow& flow, double period,
          const std::vector<std::string>& geneCells)
      : flow_(flow),
        period_(period),
        geneCells_(geneCells),
        context_(flow.measurementContextDigest(period)) {}

  /// Evaluates a batch of candidates (deduplicated against everything seen
  /// so far; first origin wins) and returns one archive id per candidate.
  /// Fresh genotypes fan out on the thread pool with grain 1; each goes
  /// through cachedStage, so results are bit-identical for any thread count
  /// and a warm rerun is all hits.
  std::vector<std::size_t> evaluate(const std::vector<Candidate>& batch) {
    std::vector<std::size_t> ids(batch.size());
    std::vector<std::size_t> fresh;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto [it, inserted] =
          seen_.try_emplace(batch[i].genes, entries_.size() + fresh.size());
      ids[i] = it->second;
      if (inserted) fresh.push_back(i);
    }
    const std::vector<CandidateFitness> fitnesses = parallel::parallelMap(
        fresh.size(),
        [&](std::size_t k) {
          const Candidate& candidate = batch[fresh[k]];
          return core::cachedStage<CandidateFitness>(
              flow_.cache(), flow_.memCache(), "evo.stage.candidate",
              candidateKey(context_, candidate.genes),
              [&] {
                return computeFitness(flow_, period_, geneCells_,
                                      candidate.genes);
              },
              artifact::encodeRecord<CandidateFitness>,
              artifact::decodeRecord<CandidateFitness>);
        },
        1);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      const Candidate& candidate = batch[fresh[k]];
      Evaluated entry;
      entry.origin = candidate.origin;
      entry.genes = candidate.genes;
      entry.fitness = fitnesses[k];
      entry.objectives = objectivePoint(fitnesses[k]);
      entries_.push_back(std::move(entry));
    }
    obs::MetricsRegistry::global().counter("evo.evaluations").add(fresh.size());
    return ids;
  }

  [[nodiscard]] const std::vector<Evaluated>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t idOf(const std::vector<double>& genes) const {
    return seen_.at(genes);
  }

 private:
  core::TuningFlow& flow_;
  double period_;
  const std::vector<std::string>& geneCells_;
  artifact::Digest context_;
  std::vector<Evaluated> entries_;
  std::map<std::vector<double>, std::size_t> seen_;
};

/// The 20 paper-method individuals: each Table 2 sweep point's cluster
/// thresholds projected onto the per-cell genotype. constrainWithThresholds
/// on such a genotype reproduces tuneLibrary(forMethod(...)) exactly, so a
/// seed's fitness equals the paper sweep's measurement at this period. Genes
/// are injected unclamped — a threshold outside [geneMin, geneMax] still
/// seeds the search (variation clamps only its own children).
std::vector<Candidate> seedCandidates(
    const statlib::StatLibrary& library,
    const std::vector<std::string>& geneCells) {
  std::vector<Candidate> seeds;
  for (const auto& [method, methodName] : tuning::kMethodNames) {
    for (const double value : tuning::sweepValues(method)) {
      const tuning::TuningConfig config =
          tuning::TuningConfig::forMethod(method, value);
      const std::map<std::string, tuning::ClusterThreshold> thresholds =
          tuning::extractThresholds(library, config);
      Candidate seed;
      seed.origin = "seed:" + std::string(methodName) + "@" + fmt17(value);
      seed.genes.reserve(geneCells.size());
      for (const std::string& cellName : geneCells) {
        const statlib::StatCell* cell = library.findCell(cellName);
        seed.genes.push_back(
            thresholds.at(tuning::clusterName(*cell, config)).sigmaThreshold);
      }
      seeds.push_back(std::move(seed));
    }
  }
  return seeds;
}

/// Appends `ids` to `pool` keeping first occurrence of each archive id.
void mergeUnique(std::vector<std::size_t>& pool,
                 const std::vector<std::size_t>& ids) {
  std::set<std::size_t> have(pool.begin(), pool.end());
  for (const std::size_t id : ids) {
    if (have.insert(id).second) pool.push_back(id);
  }
}

/// Crowding distances of a whole population: group by rank, score each rank
/// class independently, scatter back.
std::vector<double> populationCrowding(
    const std::vector<std::vector<double>>& points,
    const std::vector<std::size_t>& ranks,
    const std::vector<std::size_t>& objectives) {
  std::vector<double> crowding(points.size(), 0.0);
  const std::size_t maxRank =
      ranks.empty() ? 0 : *std::max_element(ranks.begin(), ranks.end());
  for (std::size_t rank = 0; rank <= maxRank; ++rank) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] == rank) members.push_back(i);
    }
    if (members.empty()) continue;
    const std::vector<double> distances =
        crowdingDistances(points, members, objectives);
    for (std::size_t m = 0; m < members.size(); ++m) {
      crowding[members[m]] = distances[m];
    }
  }
  return crowding;
}

}  // namespace

EvolveRunResult runEvolveJob(core::TuningFlow& flow, const EvolveJob& job) {
  SCT_TRACE_SPAN("evo.run");
  const EvolveParams& params = job.params;
  core::applyLintMode(flow.config().lintMode, "evolve", [&] {
    return lint::LintEngine::withAllRules().run(
        lint::LintSubject{.evolveParams = &params},
        lint::packBit(lint::RulePack::kEvo));
  });
  const double period = job.flow.period;
  if (!(period > 0.0)) {
    throw std::runtime_error("evolve job needs a positive clock period");
  }
  // Callers that skip the gate still get the rule's verdict on the list.
  ObjectiveSet objectiveSet = parseObjectives(params.objectives);
  if (!objectiveSet.error.empty()) {
    throw std::runtime_error(objectiveSet.error);
  }
  const std::vector<std::size_t> objectives = std::move(objectiveSet.enabled);

  // Resolve the flow's lazy artifacts before any parallel region: candidate
  // evaluations run concurrently and must only ever read them.
  const statlib::StatLibrary& stat = flow.statLibrary();
  (void)flow.nominalLibrary();
  (void)flow.subject();

  // Genotype layout: one gene per statistical cell with timing arcs, in
  // sorted name order. Tie cells carry no windows under any threshold.
  std::vector<std::string> geneCells;
  for (const statlib::StatCell* cell : stat.cells()) {
    if (!cell->arcs().empty()) geneCells.push_back(cell->name());
  }
  std::sort(geneCells.begin(), geneCells.end());

  Archive archive(flow, period, geneCells);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::uint64_t submitted = 0;

  // --- generation 0: paper seeds + random immigrants ----------------------
  const numeric::Rng master(params.seed);
  std::vector<Candidate> initial = seedCandidates(stat, geneCells);
  const std::size_t seedCount = initial.size();
  for (std::size_t i = 0; i < params.population; ++i) {
    numeric::Rng rng = master.child(0).child(i);
    Candidate candidate;
    candidate.origin = "init:" + std::to_string(i);
    candidate.genes.reserve(geneCells.size());
    for (std::size_t g = 0; g < geneCells.size(); ++g) {
      candidate.genes.push_back(rng.uniform(params.geneMin, params.geneMax));
    }
    initial.push_back(std::move(candidate));
  }
  submitted += initial.size();
  std::vector<std::size_t> pool;
  mergeUnique(pool, archive.evaluate(initial));

  const auto pointsOf = [&](const std::vector<std::size_t>& ids) {
    std::vector<std::vector<double>> points;
    points.reserve(ids.size());
    for (const std::size_t id : ids) {
      points.push_back(archive.entries()[id].objectives);
    }
    return points;
  };
  const auto survivors = [&](const std::vector<std::size_t>& ids) {
    const std::size_t count = std::min(params.population, ids.size());
    std::vector<std::size_t> picked;
    picked.reserve(count);
    for (const std::size_t local :
         selectSurvivors(pointsOf(ids), count, objectives)) {
      picked.push_back(ids[local]);
    }
    return picked;
  };

  std::vector<std::size_t> population = survivors(pool);
  registry.counter("evo.generations").inc();

  // --- generations 1..G: tournament -> SBX/mutation -> environmental
  // selection. Offspring i of generation g draws only from the counter-based
  // stream master.child(g).child(i), so the batch is order-independent.
  VariationConfig variation;
  variation.geneMin = params.geneMin;
  variation.geneMax = params.geneMax;
  for (std::size_t gen = 1; gen <= params.generations; ++gen) {
    const std::vector<std::vector<double>> points = pointsOf(population);
    const std::vector<std::size_t> ranks =
        nondominatedRanks(points, objectives);
    const std::vector<double> crowding =
        populationCrowding(points, ranks, objectives);

    std::vector<Candidate> offspring;
    offspring.reserve(params.population);
    for (std::size_t i = 0; i < params.population; ++i) {
      numeric::Rng rng = master.child(gen).child(i);
      const std::size_t a = tournamentPick(ranks, crowding, rng);
      const std::size_t b = tournamentPick(ranks, crowding, rng);
      Candidate child;
      child.origin = "gen" + std::to_string(gen) + ":" + std::to_string(i);
      child.genes = varied(archive.entries()[population[a]].genes,
                           archive.entries()[population[b]].genes, variation,
                           rng);
      offspring.push_back(std::move(child));
    }
    submitted += offspring.size();
    std::vector<std::size_t> merged = population;
    mergeUnique(merged, archive.evaluate(offspring));
    population = survivors(merged);
    registry.counter("evo.generations").inc();
  }
  registry.gauge("evo.archive").set(
      static_cast<double>(archive.entries().size()));

  // --- reported front: nondominated set of the whole archive --------------
  std::vector<std::size_t> allIds(archive.entries().size());
  for (std::size_t i = 0; i < allIds.size(); ++i) allIds[i] = i;
  std::vector<std::size_t> frontIds = paretoFront(pointsOf(allIds), objectives);
  std::sort(frontIds.begin(), frontIds.end(),
            [&](std::size_t a, std::size_t b) {
              const Evaluated& ea = archive.entries()[a];
              const Evaluated& eb = archive.entries()[b];
              if (ea.fitness.sigma != eb.fitness.sigma)
                return ea.fitness.sigma < eb.fitness.sigma;
              if (ea.fitness.area != eb.fitness.area)
                return ea.fitness.area < eb.fitness.area;
              if (ea.fitness.power != eb.fitness.power)
                return ea.fitness.power < eb.fitness.power;
              return ea.genes < eb.genes;
            });

  EvolveRunResult result;
  result.evaluations = submitted;
  result.unique = archive.entries().size();
  for (const std::size_t id : frontIds) {
    const Evaluated& entry = archive.entries()[id];
    FrontPoint point;
    point.origin = entry.origin;
    point.feasible = entry.fitness.feasible;
    point.sigma = entry.fitness.sigma;
    point.area = entry.fitness.area;
    point.power = entry.fitness.power;
    point.genes = entry.genes;
    result.front.push_back(std::move(point));
    result.success = result.success || entry.fitness.feasible;
  }

  // --- baselines: the seeds, each checked against the front ---------------
  const std::vector<Candidate> seeds = seedCandidates(stat, geneCells);
  std::size_t dominatedCount = 0;
  for (const Candidate& seed : seeds) {
    const Evaluated& entry = archive.entries()[archive.idOf(seed.genes)];
    BaselinePoint baseline;
    baseline.origin = seed.origin;
    baseline.feasible = entry.fitness.feasible;
    baseline.sigma = entry.fitness.sigma;
    baseline.area = entry.fitness.area;
    baseline.power = entry.fitness.power;
    for (const std::size_t id : frontIds) {
      const std::vector<double>& f = archive.entries()[id].objectives;
      bool covers = true;
      for (const std::size_t k : objectives) {
        if (f[k] > entry.objectives[k]) {
          covers = false;
          break;
        }
      }
      if (covers) {
        baseline.dominated = true;
        break;
      }
    }
    dominatedCount += baseline.dominated ? 1 : 0;
    result.baselines.push_back(std::move(baseline));
  }

  // --- deterministic text report ------------------------------------------
  std::string objectiveList;
  for (const std::size_t k : objectives) {
    if (!objectiveList.empty()) objectiveList += ",";
    objectiveList += kObjectiveNames[k];
  }
  std::ostringstream report;
  report << "evolve-report v1\n";
  report << "design " << job.flow.workload << " period " << fmt17(period)
         << "\n";
  report << "config population " << params.population << " generations "
         << params.generations << " objectives " << objectiveList << " seed "
         << params.seed << " genes " << geneCells.size() << " gene-min "
         << fmt17(params.geneMin) << " gene-max " << fmt17(params.geneMax)
         << "\n";
  report << "evaluations " << result.evaluations << " unique " << result.unique
         << " seeds " << seedCount << "\n";
  for (const BaselinePoint& baseline : result.baselines) {
    report << "baseline " << baseline.origin << " feasible "
           << baseline.feasible << " sigma " << fmt17(baseline.sigma)
           << " area " << fmt17(baseline.area) << " power "
           << fmt17(baseline.power) << " dominated " << baseline.dominated
           << "\n";
  }
  report << "front " << result.front.size() << "\n";
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    const FrontPoint& point = result.front[i];
    report << "point " << i << " origin " << point.origin << " feasible "
           << point.feasible << " sigma " << fmt17(point.sigma) << " area "
           << fmt17(point.area) << " power " << fmt17(point.power)
           << " genes-digest " << genesDigest(point.genes) << "\n";
  }
  result.report = report.str();

  // --- deterministic JSON rendering ---------------------------------------
  std::ostringstream json;
  json << "{\"version\":" << kEvolveSchema << ",\"workload\":\""
       << job.flow.workload << "\",\"period\":" << fmt17(period)
       << ",\"population\":" << params.population
       << ",\"generations\":" << params.generations << ",\"objectives\":[";
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    if (i != 0) json << ",";
    json << "\"" << kObjectiveNames[objectives[i]] << "\"";
  }
  json << "],\"evaluations\":" << result.evaluations
       << ",\"unique\":" << result.unique << ",\"baselines\":[";
  for (std::size_t i = 0; i < result.baselines.size(); ++i) {
    const BaselinePoint& baseline = result.baselines[i];
    if (i != 0) json << ",";
    json << "{\"origin\":\"" << baseline.origin
         << "\",\"feasible\":" << (baseline.feasible ? "true" : "false")
         << ",\"sigma\":" << fmt17(baseline.sigma)
         << ",\"area\":" << fmt17(baseline.area)
         << ",\"power\":" << fmt17(baseline.power)
         << ",\"dominated\":" << (baseline.dominated ? "true" : "false")
         << "}";
  }
  json << "],\"front\":[";
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    const FrontPoint& point = result.front[i];
    if (i != 0) json << ",";
    json << "{\"origin\":\"" << point.origin
         << "\",\"feasible\":" << (point.feasible ? "true" : "false")
         << ",\"sigma\":" << fmt17(point.sigma)
         << ",\"area\":" << fmt17(point.area)
         << ",\"power\":" << fmt17(point.power) << ",\"genes\":[";
    for (std::size_t g = 0; g < point.genes.size(); ++g) {
      if (g != 0) json << ",";
      json << fmt17(point.genes[g]);
    }
    json << "]}";
  }
  json << "]}\n";
  result.json = json.str();

  // --- one-line human summary ---------------------------------------------
  std::ostringstream summary;
  summary << "evolve " << job.flow.workload << ": front "
          << result.front.size() << " points | dominates " << dominatedCount
          << "/" << result.baselines.size() << " baselines | "
          << result.evaluations << " evals (" << result.unique << " unique)";
  result.summary = summary.str();
  return result;
}

}  // namespace sct::evo
