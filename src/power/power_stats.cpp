#include "power/power_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "numeric/statistics.hpp"
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

DesignPower analyzeDesignPower(const netlist::Design& design,
                               const sta::TimingAnalyzer& sta,
                               const charlib::Characterizer& characterizer,
                               const PowerModel& model, double activity,
                               std::size_t samples, std::uint64_t seed) {
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

  // One counted instance: its operating point and its own mismatch stream.
  struct Site {
    const charlib::CellSpec* spec;
    double slew;
    double load;
    numeric::Rng rng;
  };

  // Serial fork walk in instance order. Rng::fork() advances `master`, so
  // each counted instance's stream depends on how many were forked before
  // it: forking here, in order, keeps every stream independent of the
  // thread count. Skipped instances (dead, unmapped, outside the
  // catalogue) consume no fork. Each bound cell's spec is looked up once.
  std::unordered_map<const liberty::Cell*, const charlib::CellSpec*> specOf;
  numeric::Rng master(seed);
  std::vector<Site> sites;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst =
        design.instance(static_cast<netlist::InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    const auto [entry, inserted] = specOf.try_emplace(inst.cell, nullptr);
    if (inserted) entry->second = characterizer.specs().find(inst.cell->name());
    if (entry->second == nullptr) continue;  // cells outside the catalogue
    const Point& point = points[i];
    sites.push_back(
        {entry->second, point.slew, point.load, master.fork(point.tag)});
  }

  // Per-instance energy statistics from fresh mismatch draws: the bulk of
  // the work, independent per instance, so it runs on the pool.
  struct Energy {
    double mean;
    double stddev;
  };
  const std::vector<Energy> energies =
      parallel::parallelMap(sites.size(), [&](std::size_t i) {
        const Site& site = sites[i];
        numeric::Rng rng = site.rng;
        numeric::RunningStats energy;
        for (std::size_t k = 0; k < samples; ++k) {
          energy.add(model.transitionEnergy(
              *site.spec, site.slew, site.load,
              characterizer.model().drawLocal(*site.spec, rng)));
        }
        return Energy{energy.mean(), energy.stddev()};
      });

  // Ordered fold: the same floating-point operations, in instance order.
  DesignPower out;
  const double toPower = activity / sta.clock().period;  // fJ -> uW
  double varSum = 0.0;  // (uW)^2
  for (const Energy& energy : energies) {
    out.meanPower += energy.mean * toPower;
    const double sigmaPower = energy.stddev * toPower;
    varSum += sigmaPower * sigmaPower;
  }
  out.cells = energies.size();
  out.sigmaPower = std::sqrt(varSum);
  return out;
}

}  // namespace sct::power
