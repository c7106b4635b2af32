// Bit-identity of the batched (structure-of-arrays) numeric core against
// the scalar oracles, layer by layer (DESIGN.md §13):
//   - numeric:  applyBatch()/batchedBilinear() vs bilinear() per instance,
//   - charlib:  delayBatch()/outputSlewBatch() vs delay()/outputSlew(),
//               characterizeMonteCarlo() vs per-instance characterizeSample(),
//   - statlib:  merged mean/sigma tables vs a direct per-entry reduction.
// All comparisons are exact (bitwise) double equality — the batched paths
// are reorderings of the same expression trees, never approximations.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "charlib/characterizer.hpp"
#include "charlib/delay_model.hpp"
#include "numeric/grid_batch.hpp"
#include "numeric/interp.hpp"
#include "numeric/statistics.hpp"
#include "statlib/stat_library.hpp"
#include "test_helpers.hpp"

namespace sct {
namespace {

using numeric::Axis;
using numeric::EdgePolicy;
using numeric::Grid2d;
using numeric::GridBatch;

/// Strictly increasing axis of `size` random breakpoints.
Axis randomAxis(std::mt19937_64& rng, std::size_t size) {
  std::uniform_real_distribution<double> step(0.01, 0.5);
  Axis axis(size);
  double x = step(rng);
  for (std::size_t i = 0; i < size; ++i) {
    axis[i] = x;
    x += step(rng);
  }
  return axis;
}

Grid2d randomGrid(std::mt19937_64& rng, std::size_t rows, std::size_t cols) {
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  Grid2d grid(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) grid.at(r, c) = value(rng);
  }
  return grid;
}

// ------------------------------------------------------------ numeric ----

TEST(GridBatch, GatherScatterRoundTrip) {
  std::mt19937_64 rng(7);
  std::vector<Grid2d> grids;
  std::vector<const Grid2d*> ptrs;
  for (std::size_t k = 0; k < 5; ++k) grids.push_back(randomGrid(rng, 3, 4));
  for (const Grid2d& g : grids) ptrs.push_back(&g);

  GridBatch batch(3, 4, 5);
  batch.gather(ptrs);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(batch.at(r, c, k), grids[k].at(r, c));
      }
    }
  }

  std::vector<double> flat(12);
  for (std::size_t k = 0; k < 5; ++k) {
    batch.scatterTo(k, flat);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      EXPECT_EQ(flat[i], grids[k].flat()[i]);
    }
  }
}

TEST(BatchedBilinear, BitIdenticalToScalarRandomized) {
  // Randomized axes (including the size-1 degenerate cases), random grids,
  // queries inside, between and outside the breakpoints, both edge policies.
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> query(-0.3, 3.5);
  const std::size_t kInstances = 9;

  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t rows = 1 + trial % 5;
    const std::size_t cols = 1 + (trial / 5) % 5;
    const Axis slewAxis = randomAxis(rng, rows);
    const Axis loadAxis = randomAxis(rng, cols);

    std::vector<Grid2d> grids;
    std::vector<const Grid2d*> ptrs;
    for (std::size_t k = 0; k < kInstances; ++k) {
      grids.push_back(randomGrid(rng, rows, cols));
    }
    for (const Grid2d& g : grids) ptrs.push_back(&g);
    GridBatch batch(rows, cols, kInstances);
    batch.gather(ptrs);

    for (const EdgePolicy policy :
         {EdgePolicy::kClamp, EdgePolicy::kExtrapolate}) {
      for (std::size_t q = 0; q < 8; ++q) {
        const double slew = query(rng);
        const double load = query(rng);
        std::vector<double> out(kInstances, 0.0);
        numeric::batchedBilinear(slewAxis, loadAxis, batch, slew, load, out,
                                 policy);
        for (std::size_t k = 0; k < kInstances; ++k) {
          const double want = numeric::bilinear(slewAxis, loadAxis, grids[k],
                                                slew, load, policy);
          EXPECT_EQ(out[k], want)
              << "trial " << trial << " instance " << k << " rows " << rows
              << " cols " << cols;
        }
      }
    }
  }
}

TEST(BatchedBilinear, ApplyMatchesBilinearWithHoistedComplements) {
  // The hoisted (1 - weight) complements must leave the scalar apply() path
  // bit-identical to bilinear() — the precondition for batch bit identity.
  std::mt19937_64 rng(99);
  const Axis slewAxis = randomAxis(rng, 6);
  const Axis loadAxis = randomAxis(rng, 4);
  const Grid2d grid = randomGrid(rng, 6, 4);
  std::uniform_real_distribution<double> query(-0.5, 4.0);
  for (std::size_t q = 0; q < 100; ++q) {
    const double slew = query(rng);
    const double load = query(rng);
    const numeric::InterpCoords coords =
        numeric::interpCoords(slewAxis, loadAxis, slew, load);
    EXPECT_EQ(coords.rowWeightC, 1.0 - coords.rowWeight);
    EXPECT_EQ(coords.colWeightC, 1.0 - coords.colWeight);
    EXPECT_EQ(coords.apply(grid),
              numeric::bilinear(slewAxis, loadAxis, grid, slew, load));
  }
}

// ------------------------------------------------------------ charlib ----

TEST(DelayModelBatch, BitIdenticalToScalar) {
  const charlib::DelayModel model{charlib::TechnologyParams{},
                                  charlib::VariationParams{}};
  const charlib::CellSpec spec =
      model.makeSpec(liberty::CellFunction::kNand2, 2.0);

  const std::size_t n = 17;
  charlib::LocalDeltasBatch batch;
  batch.resize(n);
  numeric::Rng rng(42);
  for (std::size_t k = 0; k < n; ++k) {
    batch.set(k, model.drawLocal(spec, rng));
  }

  const double cornerFactor = 1.28;
  const double globalFactor = 0.97;
  std::vector<double> delays(n), slews(n);
  for (const double slew : {0.002, 0.05, 0.31, 0.6}) {
    for (const double load : {0.001, 0.02, spec.maxLoad}) {
      model.delayBatch(spec, slew, load, batch, cornerFactor, globalFactor,
                       delays);
      model.outputSlewBatch(spec, slew, load, batch, cornerFactor,
                            globalFactor, slews);
      for (std::size_t k = 0; k < n; ++k) {
        const charlib::LocalDeltas local = batch.get(k);
        EXPECT_EQ(delays[k], model.delay(spec, slew, load, local, cornerFactor,
                                         globalFactor));
        EXPECT_EQ(slews[k], model.outputSlew(spec, slew, load, local,
                                             cornerFactor, globalFactor));
      }
    }
  }
}

void expectLutEq(const liberty::Lut& got, const liberty::Lut& want,
                 const std::string& where) {
  ASSERT_TRUE(got.sameShape(want)) << where;
  const std::span<const double> g = got.values().flat();
  const std::span<const double> w = want.values().flat();
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(g[i], w[i]) << where << " entry " << i;
  }
}

TEST(BatchedCharacterizer, MonteCarloMatchesScalarOracle) {
  // characterizeMonteCarlo() builds all instances per-entry-across-instances;
  // each produced library must equal the scalar characterizeSample() of the
  // same index byte for byte (names, pins, every LUT entry).
  const charlib::Characterizer chr = test::makeSmallCharacterizer();
  const charlib::ProcessCorner corner = charlib::ProcessCorner::typical();
  const std::uint64_t seed = 2024;
  const std::size_t n = 5;

  const std::vector<liberty::Library> batched =
      chr.characterizeMonteCarlo(corner, n, seed);
  ASSERT_EQ(batched.size(), n);

  for (std::size_t k = 0; k < n; ++k) {
    const liberty::Library want = chr.characterizeSample(corner, seed, k);
    const liberty::Library& got = batched[k];
    EXPECT_EQ(got.name(), want.name());
    ASSERT_EQ(got.size(), want.size());
    const std::vector<const liberty::Cell*> gotCells = got.cells();
    const std::vector<const liberty::Cell*> wantCells = want.cells();
    for (std::size_t i = 0; i < gotCells.size(); ++i) {
      const liberty::Cell& a = *gotCells[i];
      const liberty::Cell& b = *wantCells[i];
      const std::string where = "instance " + std::to_string(k) + " cell " +
                                b.name();
      ASSERT_EQ(a.name(), b.name()) << where;
      EXPECT_EQ(a.function(), b.function()) << where;
      EXPECT_EQ(a.driveStrength(), b.driveStrength()) << where;
      EXPECT_EQ(a.area(), b.area()) << where;
      EXPECT_EQ(a.setupTime(), b.setupTime()) << where;
      EXPECT_EQ(a.holdTime(), b.holdTime()) << where;
      if (!b.setupLut().empty()) {
        expectLutEq(a.setupLut(), b.setupLut(), where + " setup");
      }
      ASSERT_EQ(a.pins().size(), b.pins().size()) << where;
      for (std::size_t p = 0; p < a.pins().size(); ++p) {
        EXPECT_EQ(a.pins()[p].name, b.pins()[p].name) << where;
        EXPECT_EQ(a.pins()[p].capacitance, b.pins()[p].capacitance) << where;
        EXPECT_EQ(a.pins()[p].maxCapacitance, b.pins()[p].maxCapacitance)
            << where;
        EXPECT_EQ(a.pins()[p].isClock, b.pins()[p].isClock) << where;
      }
      ASSERT_EQ(a.arcs().size(), b.arcs().size()) << where;
      for (std::size_t t = 0; t < a.arcs().size(); ++t) {
        const liberty::TimingArc& x = a.arcs()[t];
        const liberty::TimingArc& y = b.arcs()[t];
        ASSERT_EQ(x.relatedPin, y.relatedPin) << where;
        ASSERT_EQ(x.outputPin, y.outputPin) << where;
        const std::string arcWhere =
            where + " arc " + y.relatedPin + "->" + y.outputPin;
        expectLutEq(x.riseDelay, y.riseDelay, arcWhere + " riseDelay");
        expectLutEq(x.fallDelay, y.fallDelay, arcWhere + " fallDelay");
        expectLutEq(x.riseTransition, y.riseTransition,
                    arcWhere + " riseTransition");
        expectLutEq(x.fallTransition, y.fallTransition,
                    arcWhere + " fallTransition");
      }
    }
  }
}

// ------------------------------------------------------------ statlib ----

TEST(BatchedStatMerge, MatchesDirectPerEntryReduction) {
  // The SoA gather in buildStatLibrary() must reduce every LUT entry in
  // instance order 0..N-1, exactly like a direct scalar loop over the
  // per-instance tables.
  const charlib::Characterizer chr = test::makeSmallCharacterizer();
  const std::vector<liberty::Library> libs = chr.characterizeMonteCarlo(
      charlib::ProcessCorner::typical(), 6, /*seed=*/7);
  const statlib::StatLibrary stat = statlib::buildStatLibrary(libs);
  EXPECT_EQ(stat.sampleCount(), libs.size());

  const std::vector<const liberty::Cell*> refCells = libs.front().cells();
  for (const liberty::Cell* refCell : refCells) {
    const statlib::StatCell* statCell = stat.findCell(refCell->name());
    ASSERT_NE(statCell, nullptr) << refCell->name();
    for (const liberty::TimingArc& refArc : refCell->arcs()) {
      const statlib::StatArc* statArc =
          statCell->findArc(refArc.relatedPin, refArc.outputPin);
      ASSERT_NE(statArc, nullptr);
      for (const bool rise : {true, false}) {
        const statlib::StatLut& lut = rise ? statArc->rise : statArc->fall;
        for (std::size_t r = 0; r < refArc.riseDelay.rows(); ++r) {
          for (std::size_t c = 0; c < refArc.riseDelay.cols(); ++c) {
            numeric::RunningStats stats;
            for (const liberty::Library& lib : libs) {
              const liberty::TimingArc* arc =
                  lib.findCell(refCell->name())
                      ->findArc(refArc.relatedPin, refArc.outputPin);
              ASSERT_NE(arc, nullptr);
              stats.add(rise ? arc->riseDelay.at(r, c)
                             : arc->fallDelay.at(r, c));
            }
            EXPECT_EQ(lut.mean().at(r, c), stats.mean());
            EXPECT_EQ(lut.sigma().at(r, c), stats.stddev());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sct
