#include "power/power_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "numeric/statistics.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel.hpp"
#include "tuning/rectangle.hpp"

namespace sct::power {

statlib::StatLut buildPowerLut(const charlib::Characterizer& characterizer,
                               const PowerModel& model,
                               const charlib::CellSpec& spec,
                               std::size_t samples, std::uint64_t seed) {
  const numeric::Axis& slewAxis = characterizer.config().slewAxis;
  const numeric::Axis loadAxis = characterizer.loadAxisFor(spec);
  statlib::StatLut lut(slewAxis, loadAxis);

  // One mismatch draw per sample, applied across the whole grid (one
  // physical instance per "die", exactly like the delay characterization).
  std::vector<numeric::RunningStats> stats(slewAxis.size() * loadAxis.size());
  numeric::Rng master(seed);
  numeric::Rng cellRng = master.fork(numeric::Rng::hashTag(spec.name));
  for (std::size_t k = 0; k < samples; ++k) {
    const charlib::LocalDeltas deltas =
        characterizer.model().drawLocal(spec, cellRng);
    for (std::size_t r = 0; r < slewAxis.size(); ++r) {
      for (std::size_t c = 0; c < loadAxis.size(); ++c) {
        stats[r * loadAxis.size() + c].add(model.transitionEnergy(
            spec, slewAxis[r], loadAxis[c], deltas));
      }
    }
  }
  for (std::size_t r = 0; r < slewAxis.size(); ++r) {
    for (std::size_t c = 0; c < loadAxis.size(); ++c) {
      lut.mean().at(r, c) = stats[r * loadAxis.size() + c].mean();
      lut.sigma().at(r, c) = stats[r * loadAxis.size() + c].stddev();
    }
  }
  return lut;
}

tuning::LibraryConstraints tuneLibraryOnPower(
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double energySigmaCeiling, std::size_t samples, std::uint64_t seed) {
  tuning::LibraryConstraints constraints;
  for (const charlib::CellSpec& spec : characterizer.specs().all()) {
    const liberty::FunctionTraits& traits = liberty::traits(spec.function);
    if (traits.numDataInputs == 0 && !traits.sequential) continue;  // ties
    const statlib::StatLut lut =
        buildPowerLut(characterizer, model, spec, samples, seed);
    const auto rect = tuning::largestRectangle(
        tuning::BinaryLut::thresholdBelow(lut.sigma(), energySigmaCeiling));
    if (!rect) {
      constraints.markUnusable(spec.name);
      continue;
    }
    tuning::PinWindow window;
    window.minSlew = rect->rowLo == 0 ? 0.0 : lut.slewAxis()[rect->rowLo];
    window.maxSlew = lut.slewAxis()[rect->rowHi];
    window.minLoad = rect->colLo == 0 ? 0.0 : lut.loadAxis()[rect->colLo];
    window.maxLoad = lut.loadAxis()[rect->colHi];
    tuning::CellConstraint constraint;
    constraint.sigmaThreshold = energySigmaCeiling;
    const auto outputs = liberty::outputNames(spec.function);
    for (std::size_t o = 0; o < traits.numOutputs; ++o) {
      constraint.pinWindows.emplace(std::string(outputs[o]), window);
    }
    constraints.setCell(spec.name, std::move(constraint));
  }
  return constraints;
}

std::size_t DrawTable::size() const {
  const LockGuard lock(mutex_);
  return entries_.size();
}

std::vector<const DrawTable::Entry*> DrawTable::prefix(std::size_t n) const {
  const LockGuard lock(mutex_);
  std::vector<const Entry*> out(std::min(n, entries_.size()));
  for (std::size_t p = 0; p < out.size(); ++p) out[p] = &entries_[p];
  return out;
}

void DrawTable::offer(std::size_t position, Entry entry) {
  const LockGuard lock(mutex_);
  if (position == entries_.size()) entries_.push_back(std::move(entry));
}

namespace {

/// Both analyzeDesignPower table overloads: reads `draws`, and stores the
/// fresh draws in `store` (the same table) unless it is null.
DesignPower analyzeWithTable(const netlist::Design& design,
                             const sta::TimingAnalyzer& sta,
                             const charlib::Characterizer& characterizer,
                             const PowerModel& model, double activity,
                             const DrawTable& draws, DrawTable* store) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static obs::Counter& reused = registry.counter("power.draws.reused");
  static obs::Counter& drawn = registry.counter("power.draws.drawn");

  // Operating point and stream tag of every bound instance, on the pool:
  // they only read the design and the STA.
  struct Point {
    double slew = 0.0;  ///< worst input slew
    double load = 0.0;  ///< total driven load
    std::uint64_t tag = 0;  ///< fork tag of the instance name
  };
  const std::vector<Point> points =
      parallel::parallelMap(design.instanceCount(), [&](std::size_t i) {
        const netlist::Instance& inst =
            design.instance(static_cast<netlist::InstIndex>(i));
        Point point;
        if (!inst.alive || inst.cell == nullptr) return point;
        point.slew = sta.clock().clockSlew;
        for (netlist::NetIndex in : inst.inputs) {
          point.slew = std::max(point.slew, sta.netSlew(in));
        }
        for (netlist::NetIndex outNet : inst.outputs) {
          point.load += sta.netLoad(outNet);
        }
        point.tag = numeric::Rng::hashTag(inst.name);
        return point;
      });

  // One counted instance: its operating point, its own mismatch stream and,
  // when the table holds this position with the same tag, that stream's
  // draws.
  struct Site {
    const charlib::CellSpec* spec;
    double slew;
    double load;
    std::uint64_t tag;
    numeric::Rng rng;
    const DrawTable::Entry* stored;
  };

  // Serial fork walk in instance order. Rng::fork() advances `master`, so
  // each counted instance's stream depends on how many were forked before
  // it: forking here, in order, keeps every stream independent of the
  // thread count. Skipped instances (dead, unmapped, outside the
  // catalogue) consume no fork. Each bound cell's spec is looked up once.
  const std::vector<const DrawTable::Entry*> known =
      draws.prefix(design.instanceCount());
  std::unordered_map<const liberty::Cell*, const charlib::CellSpec*> specOf;
  numeric::Rng master(draws.seed());
  std::vector<Site> sites;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst =
        design.instance(static_cast<netlist::InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    const auto [entry, inserted] = specOf.try_emplace(inst.cell, nullptr);
    if (inserted) entry->second = characterizer.specs().find(inst.cell->name());
    if (entry->second == nullptr) continue;  // cells outside the catalogue
    const Point& point = points[i];
    const std::size_t position = sites.size();
    const DrawTable::Entry* stored =
        position < known.size() && known[position]->tag == point.tag
            ? known[position]
            : nullptr;
    if (stored != nullptr) ++hits;
    sites.push_back({entry->second, point.slew, point.load, point.tag,
                     master.fork(point.tag), stored});
  }
  reused.add(hits);
  drawn.add(sites.size() - hits);

  // Per-instance energy statistics, independent per instance, so on the
  // pool. A site without stored draws draws them from its stream, keeping
  // them only for `store`; both kinds scale the same standard normals the
  // same way.
  const std::size_t samples = draws.samples();
  const charlib::DelayModel& delayModel = characterizer.model();
  struct Energy {
    double mean;
    double stddev;
    DrawTable::Entry fresh;  ///< the draws of a site without stored ones
  };
  std::vector<Energy> energies =
      parallel::parallelMap(sites.size(), [&](std::size_t i) {
        const Site& site = sites[i];
        Energy out{0.0, 0.0, {}};
        const EnergyTerms terms = model.terms(*site.spec, site.slew, site.load);
        numeric::RunningStats energy;
        const auto add = [&](double zDrive, double zIntrinsic) {
          energy.add(terms.energy(
              delayModel.scaleLocal(*site.spec, {zDrive, zIntrinsic, 0.0})));
        };
        if (site.stored != nullptr) {
          const double* z = site.stored->z.data();
          for (std::size_t k = 0; k < samples; ++k) add(z[2 * k], z[2 * k + 1]);
        } else {
          if (store != nullptr) {
            out.fresh.tag = site.tag;
            out.fresh.z.resize(2 * samples);
          }
          numeric::Rng rng = site.rng;
          for (std::size_t k = 0; k < samples; ++k) {
            const charlib::LocalNormals normals =
                charlib::DelayModel::drawNormals(rng);
            if (store != nullptr) {
              out.fresh.z[2 * k] = normals.zDrive;
              out.fresh.z[2 * k + 1] = normals.zIntrinsic;
            }
            add(normals.zDrive, normals.zIntrinsic);
          }
        }
        out.mean = energy.mean();
        out.stddev = energy.stddev();
        return out;
      });

  // Ordered fold: the same floating-point operations, in instance order.
  // Fresh draws go to the table in position order.
  DesignPower out;
  const double toPower = activity / sta.clock().period;  // fJ -> uW
  double varSum = 0.0;  // (uW)^2
  for (std::size_t p = 0; p < energies.size(); ++p) {
    Energy& energy = energies[p];
    out.meanPower += energy.mean * toPower;
    const double sigmaPower = energy.stddev * toPower;
    varSum += sigmaPower * sigmaPower;
    if (store != nullptr && sites[p].stored == nullptr) {
      store->offer(p, std::move(energy.fresh));
    }
  }
  out.cells = energies.size();
  out.sigmaPower = std::sqrt(varSum);
  return out;
}

}  // namespace

DesignPower analyzeDesignPower(const netlist::Design& design,
                               const sta::TimingAnalyzer& sta,
                               const charlib::Characterizer& characterizer,
                               const PowerModel& model, double activity,
                               DrawTable& draws) {
  return analyzeWithTable(design, sta, characterizer, model, activity, draws,
                          &draws);
}

DesignPower analyzeDesignPower(const netlist::Design& design,
                               const sta::TimingAnalyzer& sta,
                               const charlib::Characterizer& characterizer,
                               const PowerModel& model, double activity,
                               const DrawTable& draws) {
  return analyzeWithTable(design, sta, characterizer, model, activity, draws,
                          nullptr);
}

DesignPower analyzeDesignPower(const netlist::Design& design,
                               const sta::TimingAnalyzer& sta,
                               const charlib::Characterizer& characterizer,
                               const PowerModel& model, double activity,
                               std::size_t samples, std::uint64_t seed) {
  // One table per (samples, seed) for the life of the process; std::map
  // nodes do not move, so a table stays put once made.
  struct Tables {
    sct::Mutex mutex;
    std::map<std::pair<std::size_t, std::uint64_t>, DrawTable> bySeed
        SCT_GUARDED_BY(mutex);
  };
  static Tables tables;
  DrawTable* draws = nullptr;
  {
    const LockGuard lock(tables.mutex);
    draws = &tables.bySeed
                 .try_emplace(std::pair{samples, seed}, samples, seed)
                 .first->second;
  }
  return analyzeDesignPower(design, sta, characterizer, model, activity,
                            *draws);
}

}  // namespace sct::power
