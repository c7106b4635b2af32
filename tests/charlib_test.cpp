// Unit tests for the characterization substrate: delay model shape
// (Fig. 4's monotonicities), Pelgrom scaling, the 304-cell catalogue census
// (appendix A) and the Monte-Carlo characterizer.

#include <gtest/gtest.h>

#include <cmath>

#include "charlib/catalogue.hpp"
#include "numeric/statistics.hpp"

#include <set>
#include "charlib/characterizer.hpp"
#include "test_helpers.hpp"

namespace sct::charlib {
namespace {

using liberty::CellCategory;
using liberty::CellFunction;

DelayModel makeModel() { return DelayModel(TechnologyParams{}, VariationParams{}); }

// -------------------------------------------------------------- specs ----

TEST(DelayModel, SpecDerivation) {
  const DelayModel model = makeModel();
  const CellSpec inv1 = model.makeSpec(CellFunction::kInv, 1.0);
  EXPECT_EQ(inv1.name, "IV_1");
  EXPECT_GT(inv1.driveRes, 0.0);
  EXPECT_GT(inv1.inputCap, 0.0);
  EXPECT_GT(inv1.intrinsic, 0.0);
  EXPECT_GT(inv1.area, 0.0);
  EXPECT_DOUBLE_EQ(inv1.maxLoad, model.tech().maxLoadPerStrength);
}

TEST(DelayModel, StrengthScalesElectricals) {
  const DelayModel model = makeModel();
  const CellSpec s1 = model.makeSpec(CellFunction::kInv, 1.0);
  const CellSpec s8 = model.makeSpec(CellFunction::kInv, 8.0);
  // Personality jitter is within +-5%, so an 8x strength ratio dominates.
  EXPECT_GT(s1.driveRes, 4.0 * s8.driveRes);
  EXPECT_LT(s1.inputCap, s8.inputCap);
  EXPECT_LT(s1.maxLoad, s8.maxLoad);
  EXPECT_LT(s1.area, s8.area);
}

TEST(DelayModel, PelgromMismatchShrinksWithStrength) {
  const DelayModel model = makeModel();
  const CellSpec s1 = model.makeSpec(CellFunction::kInv, 1.0);
  const CellSpec s4 = model.makeSpec(CellFunction::kInv, 4.0);
  const CellSpec s16 = model.makeSpec(CellFunction::kInv, 16.0);
  EXPECT_NEAR(s1.localSigma / s4.localSigma, 2.0, 1e-9);
  EXPECT_NEAR(s1.localSigma / s16.localSigma, 4.0, 1e-9);
}

TEST(DelayModel, ComplexCellsHaveLowerMismatchThanInverterAtSameStrength) {
  // Bigger unit area (more transistors/width) -> lower Pelgrom sigma.
  const DelayModel model = makeModel();
  const CellSpec inv = model.makeSpec(CellFunction::kInv, 2.0);
  const CellSpec fa = model.makeSpec(CellFunction::kFullAdder, 2.0);
  EXPECT_GT(inv.localSigma, fa.localSigma);
}

TEST(DelayModel, SequentialSpecsHaveSetupHold) {
  const DelayModel model = makeModel();
  const CellSpec ff = model.makeSpec(CellFunction::kDffR, 2.0);
  EXPECT_GT(ff.setupTime, 0.0);
  EXPECT_GT(ff.holdTime, 0.0);
  const CellSpec inv = model.makeSpec(CellFunction::kInv, 2.0);
  EXPECT_EQ(inv.setupTime, 0.0);
}

TEST(DelayModel, PersonalityIsDeterministic) {
  const DelayModel model = makeModel();
  const CellSpec a = model.makeSpec(CellFunction::kNor2, 6.0);
  const CellSpec b = model.makeSpec(CellFunction::kNor2, 6.0);
  EXPECT_DOUBLE_EQ(a.driveRes, b.driveRes);
  EXPECT_DOUBLE_EQ(a.intrinsic, b.intrinsic);
}

TEST(DelayModel, PersonalityDiffersBetweenCellTypes) {
  const DelayModel model = makeModel();
  const CellSpec nor = model.makeSpec(CellFunction::kNor2, 6.0);
  const CellSpec nor3 = model.makeSpec(CellFunction::kNor3, 6.0);
  EXPECT_NE(nor.driveRes, nor3.driveRes);
}

// -------------------------------------------------------------- delay ----

TEST(DelayModel, DelayMonotoneInLoad) {
  const DelayModel model = makeModel();
  const CellSpec spec = model.makeSpec(CellFunction::kInv, 1.0);
  double prev = -1.0;
  for (double load = 0.0; load <= spec.maxLoad; load += spec.maxLoad / 16) {
    const double d = model.delay(spec, 0.05, load, {}, 1.0, 1.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(DelayModel, DelayMonotoneInSlew) {
  const DelayModel model = makeModel();
  const CellSpec spec = model.makeSpec(CellFunction::kNand2, 2.0);
  double prev = -1.0;
  for (double slew = 0.0; slew <= 0.6; slew += 0.05) {
    const double d = model.delay(spec, slew, 0.01, {}, 1.0, 1.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(DelayModel, BiggerDriveIsFasterAtSameLoad) {
  const DelayModel model = makeModel();
  const CellSpec s1 = model.makeSpec(CellFunction::kInv, 1.0);
  const CellSpec s8 = model.makeSpec(CellFunction::kInv, 8.0);
  const double load = 0.02;
  EXPECT_GT(model.delay(s1, 0.05, load, {}, 1.0, 1.0),
            model.delay(s8, 0.05, load, {}, 1.0, 1.0));
}

TEST(DelayModel, CornerAndGlobalFactorsScaleMultiplicatively) {
  const DelayModel model = makeModel();
  const CellSpec spec = model.makeSpec(CellFunction::kXor2, 2.0);
  const double base = model.delay(spec, 0.1, 0.02, {}, 1.0, 1.0);
  EXPECT_NEAR(model.delay(spec, 0.1, 0.02, {}, 1.28, 1.0), base * 1.28, 1e-12);
  EXPECT_NEAR(model.delay(spec, 0.1, 0.02, {}, 1.0, 1.05), base * 1.05, 1e-12);
  EXPECT_NEAR(model.delay(spec, 0.1, 0.02, {}, 1.28, 1.05),
              base * 1.28 * 1.05, 1e-12);
}

TEST(DelayModel, MismatchDeltasMoveDelay) {
  const DelayModel model = makeModel();
  const CellSpec spec = model.makeSpec(CellFunction::kInv, 1.0);
  LocalDeltas slow{0.1, 0.1, 0.1};
  LocalDeltas fast{-0.1, -0.1, -0.1};
  const double nominal = model.delay(spec, 0.1, 0.02, {}, 1.0, 1.0);
  EXPECT_GT(model.delay(spec, 0.1, 0.02, slow, 1.0, 1.0), nominal);
  EXPECT_LT(model.delay(spec, 0.1, 0.02, fast, 1.0, 1.0), nominal);
}

TEST(DelayModel, OutputSlewMonotoneInLoad) {
  const DelayModel model = makeModel();
  const CellSpec spec = model.makeSpec(CellFunction::kInv, 2.0);
  double prev = 0.0;
  for (double load = 0.001; load <= spec.maxLoad; load += spec.maxLoad / 8) {
    const double s = model.outputSlew(spec, 0.05, load, {}, 1.0, 1.0);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(DelayModel, DrawLocalScalesWithSpecSigma) {
  const DelayModel model = makeModel();
  const CellSpec weak = model.makeSpec(CellFunction::kInv, 0.5);
  const CellSpec strong = model.makeSpec(CellFunction::kInv, 32.0);
  numeric::Rng rng(5);
  numeric::RunningStats weakStats;
  numeric::RunningStats strongStats;
  for (int i = 0; i < 4000; ++i) {
    weakStats.add(model.drawLocal(weak, rng).dDrive);
    strongStats.add(model.drawLocal(strong, rng).dDrive);
  }
  EXPECT_NEAR(weakStats.stddev(), weak.localSigma, 0.1 * weak.localSigma);
  EXPECT_NEAR(strongStats.stddev(), strong.localSigma,
              0.1 * strong.localSigma);
}

TEST(DelayModel, ScaledNormalsEqualNormalDeviatesOfTheCellSigmas) {
  // Kept draws scaled later give the bits of Rng::normal(0, sigma) on the
  // same stream, in the order zDrive, zIntrinsic, zSlew.
  const DelayModel model = makeModel();
  const CellSpec spec = model.makeSpec(CellFunction::kNand2, 1.0);
  const VariationParams& v = model.variation();
  numeric::Rng direct(9);
  numeric::Rng split(9);
  for (int i = 0; i < 50; ++i) {
    const double dDrive = direct.normal(0.0, spec.localSigma);
    const double dIntrinsic =
        direct.normal(0.0, spec.localSigma * v.intrinsicFraction);
    const double dSlew = direct.normal(0.0, spec.localSigma * v.slewFraction);
    const LocalDeltas d =
        model.scaleLocal(spec, DelayModel::drawNormals(split));
    EXPECT_EQ(d.dDrive, dDrive);
    EXPECT_EQ(d.dIntrinsic, dIntrinsic);
    EXPECT_EQ(d.dSlew, dSlew);
  }
}

// ---------------------------------------------------------- catalogue ----

TEST(Catalogue, CensusMatchesAppendixA) {
  const auto census = catalogueCensus();
  EXPECT_EQ(census.at(CellCategory::kInverter), 19u);
  EXPECT_EQ(census.at(CellCategory::kOr), 36u);
  EXPECT_EQ(census.at(CellCategory::kNand), 46u);
  EXPECT_EQ(census.at(CellCategory::kNor), 43u);
  EXPECT_EQ(census.at(CellCategory::kXnor), 29u);
  EXPECT_EQ(census.at(CellCategory::kAdder), 34u);
  EXPECT_EQ(census.at(CellCategory::kMultiplexer), 27u);
  EXPECT_EQ(census.at(CellCategory::kFlipFlop), 51u);
  EXPECT_EQ(census.at(CellCategory::kLatch), 12u);
  EXPECT_EQ(census.at(CellCategory::kOther), 7u);
}

TEST(Catalogue, TotalIs304) {
  std::size_t total = 0;
  for (const auto& [category, count] : catalogueCensus()) total += count;
  EXPECT_EQ(total, 304u);
}

TEST(Catalogue, SpecsHaveUniqueNames) {
  const DelayModel model = makeModel();
  const auto specs = buildSpecs(model);
  ASSERT_EQ(specs.size(), 304u);
  std::set<std::string> names;
  for (const CellSpec& spec : specs) names.insert(spec.name);
  EXPECT_EQ(names.size(), 304u);
}

TEST(Catalogue, RegistryFindsEveryCell) {
  const DelayModel model = makeModel();
  const SpecRegistry registry(model);
  EXPECT_NE(registry.find("IV_0P5"), nullptr);
  EXPECT_NE(registry.find("NR2B_3"), nullptr);
  EXPECT_NE(registry.find("FA1_28"), nullptr);
  EXPECT_NE(registry.find("FD1RS_16"), nullptr);
  EXPECT_EQ(registry.find("NOPE_1"), nullptr);
}

TEST(Catalogue, EveryCellNameRoundTripsThroughNaming) {
  // Name -> (prefix, strength) -> name must be the identity for all 304.
  const DelayModel model = makeModel();
  for (const CellSpec& spec : buildSpecs(model)) {
    const std::size_t underscore = spec.name.rfind('_');
    ASSERT_NE(underscore, std::string::npos) << spec.name;
    const double strength =
        liberty::parseStrengthSuffix(spec.name.substr(underscore + 1));
    EXPECT_DOUBLE_EQ(strength, spec.driveStrength) << spec.name;
    EXPECT_EQ(liberty::makeCellName(spec.function, strength), spec.name);
  }
}

TEST(Catalogue, DriveStrengthSixClusterExists) {
  // Fig. 5 inspects the drive-strength-6 cluster; it must be well populated.
  const DelayModel model = makeModel();
  std::size_t count = 0;
  for (const CellSpec& spec : buildSpecs(model)) {
    if (spec.driveStrength == 6.0) ++count;
  }
  EXPECT_GE(count, 15u);
}

// -------------------------------------------------------- characterizer ----

class CharacterizerTest : public ::testing::Test {
 protected:
  CharacterizerTest() : chr_(test::makeSmallCharacterizer()) {}
  Characterizer chr_;
};

TEST_F(CharacterizerTest, NominalLibraryHas304Cells) {
  const liberty::Library lib = chr_.characterizeNominal(ProcessCorner::typical());
  EXPECT_EQ(lib.size(), 304u);
  EXPECT_EQ(lib.name(), "TT1P1V25C");
}

TEST_F(CharacterizerTest, LoadAxisScalesWithStrength) {
  const liberty::Library lib = chr_.characterizeNominal(ProcessCorner::typical());
  const liberty::Cell* small = lib.findCell("IV_1");
  const liberty::Cell* large = lib.findCell("IV_32");
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  // Fig. 4: same slew range, load range grows with drive strength.
  EXPECT_EQ(small->arcs()[0].riseDelay.slewAxis(),
            large->arcs()[0].riseDelay.slewAxis());
  EXPECT_LT(small->arcs()[0].riseDelay.loadAxis().back(),
            large->arcs()[0].riseDelay.loadAxis().back());
}

TEST_F(CharacterizerTest, TablesMonotoneInLoadAndSlew) {
  const liberty::Library lib = chr_.characterizeNominal(ProcessCorner::typical());
  for (const char* name : {"IV_1", "ND2_2", "MU2_4", "FA1_1"}) {
    const liberty::Cell* cell = lib.findCell(name);
    ASSERT_NE(cell, nullptr) << name;
    const liberty::Lut& lut = cell->arcs()[0].riseDelay;
    for (std::size_t r = 0; r < lut.rows(); ++r) {
      for (std::size_t c = 1; c < lut.cols(); ++c) {
        EXPECT_GT(lut.at(r, c), lut.at(r, c - 1)) << name;
      }
    }
    for (std::size_t c = 0; c < lut.cols(); ++c) {
      for (std::size_t r = 1; r < lut.rows(); ++r) {
        EXPECT_GT(lut.at(r, c), lut.at(r - 1, c)) << name;
      }
    }
  }
}

TEST_F(CharacterizerTest, CornersScaleDelays) {
  const liberty::Library tt = chr_.characterizeNominal(ProcessCorner::typical());
  const liberty::Library ss = chr_.characterizeNominal(ProcessCorner::slow());
  const liberty::Library ff = chr_.characterizeNominal(ProcessCorner::fast());
  const liberty::Lut& ttLut = tt.findCell("IV_1")->arcs()[0].riseDelay;
  const liberty::Lut& ssLut = ss.findCell("IV_1")->arcs()[0].riseDelay;
  const liberty::Lut& ffLut = ff.findCell("IV_1")->arcs()[0].riseDelay;
  for (std::size_t r = 0; r < ttLut.rows(); ++r) {
    for (std::size_t c = 0; c < ttLut.cols(); ++c) {
      EXPECT_NEAR(ssLut.at(r, c), ttLut.at(r, c) * 1.28, 1e-9);
      EXPECT_NEAR(ffLut.at(r, c), ttLut.at(r, c) * 0.79, 1e-9);
    }
  }
}

TEST_F(CharacterizerTest, SequentialCellsHaveClockArcAndSetup) {
  const liberty::Library lib = chr_.characterizeNominal(ProcessCorner::typical());
  const liberty::Cell* ff = lib.findCell("FD1_2");
  ASSERT_NE(ff, nullptr);
  EXPECT_NE(ff->findArc("CP", "Q"), nullptr);
  EXPECT_GT(ff->setupTime(), 0.0);
  EXPECT_NE(ff->findPin("D"), nullptr);
  EXPECT_TRUE(ff->findPin("CP")->isClock);
  const liberty::Cell* ffe = lib.findCell("FD1E_2");
  ASSERT_NE(ffe, nullptr);
  EXPECT_NE(ffe->findPin("E"), nullptr);
}

TEST_F(CharacterizerTest, AddersHaveBothOutputs) {
  const liberty::Library lib = chr_.characterizeNominal(ProcessCorner::typical());
  const liberty::Cell* fa = lib.findCell("FA1_2");
  ASSERT_NE(fa, nullptr);
  EXPECT_EQ(fa->fanoutArcs("S").size(), 3u);
  EXPECT_EQ(fa->fanoutArcs("CO").size(), 3u);
  // The carry output is the optimized path in real adder cells.
  EXPECT_LT(fa->findArc("A", "CO")->riseDelay.at(0, 0),
            fa->findArc("A", "S")->riseDelay.at(0, 0));
}

TEST_F(CharacterizerTest, MonteCarloIsSeedDeterministic) {
  const liberty::Library a = chr_.characterizeSample(ProcessCorner::typical(), 7, 3);
  const liberty::Library b = chr_.characterizeSample(ProcessCorner::typical(), 7, 3);
  const liberty::Lut& la = a.findCell("IV_1")->arcs()[0].riseDelay;
  const liberty::Lut& lb = b.findCell("IV_1")->arcs()[0].riseDelay;
  EXPECT_EQ(la, lb);
}

TEST_F(CharacterizerTest, MonteCarloSamplesDiffer) {
  const liberty::Library a = chr_.characterizeSample(ProcessCorner::typical(), 7, 0);
  const liberty::Library b = chr_.characterizeSample(ProcessCorner::typical(), 7, 1);
  const liberty::Lut& la = a.findCell("IV_1")->arcs()[0].riseDelay;
  const liberty::Lut& lb = b.findCell("IV_1")->arcs()[0].riseDelay;
  EXPECT_NE(la.at(0, 0), lb.at(0, 0));
}

TEST_F(CharacterizerTest, MismatchIsConsistentWithinOneSample) {
  // Within one library instance a cell has one mismatch draw: the ratio of
  // sampled to nominal must be consistent across the drive-dominated region
  // of the same table.
  const liberty::Library nominal = chr_.characterizeNominal(ProcessCorner::typical());
  const liberty::Library sample = chr_.characterizeSample(ProcessCorner::typical(), 11, 0);
  const liberty::Lut& n = nominal.findCell("IV_1")->arcs()[0].riseDelay;
  const liberty::Lut& s = sample.findCell("IV_1")->arcs()[0].riseDelay;
  // Two high-load entries (drive term dominates) shift by a similar ratio.
  const double r1 = s.at(0, 3) / n.at(0, 3);
  const double r2 = s.at(1, 3) / n.at(1, 3);
  EXPECT_NEAR(r1, r2, 0.02);
}

TEST_F(CharacterizerTest, ArcDelayFactorMatchesCharacterizedTables) {
  const liberty::Library lib = chr_.characterizeNominal(ProcessCorner::typical());
  const liberty::Cell* nd3 = lib.findCell("ND3_2");
  ASSERT_NE(nd3, nullptr);
  // Input C (index 2) is slower than input A by the position factor ratio.
  const double a0 = nd3->findArc("A", "Z")->riseDelay.at(2, 2);
  const double c0 = nd3->findArc("C", "Z")->riseDelay.at(2, 2);
  const double expectedRatio =
      arcDelayFactor(liberty::CellFunction::kNand3, "C", "Z", true) /
      arcDelayFactor(liberty::CellFunction::kNand3, "A", "Z", true);
  EXPECT_NEAR(c0 / a0, expectedRatio, 1e-9);
  EXPECT_GT(expectedRatio, 1.0);
}

TEST_F(CharacterizerTest, MonteCarloBatchProducesNLibraries) {
  const auto libs = chr_.characterizeMonteCarlo(ProcessCorner::typical(), 5, 3);
  EXPECT_EQ(libs.size(), 5u);
  EXPECT_EQ(libs[0].name(), "TT1P1V25C_mc0");
  EXPECT_EQ(libs[4].name(), "TT1P1V25C_mc4");
}

}  // namespace
}  // namespace sct::charlib
