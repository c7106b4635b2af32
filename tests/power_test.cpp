// Tests for the transition-power extension (section III's "other
// properties" hook): energy model shape, power-sigma LUTs, power-metric
// library tuning and design-level power statistics.

#include <gtest/gtest.h>

#include "netlist/mcu.hpp"
#include "power/power_stats.hpp"
#include "synth/synthesis.hpp"
#include "test_helpers.hpp"

namespace sct::power {
namespace {

class PowerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    chr_ = new charlib::Characterizer(test::makeSmallCharacterizer());
    model_ = new PowerModel(chr_->model());
    lib_ = new liberty::Library(
        chr_->characterizeNominal(charlib::ProcessCorner::typical()));
  }
  static void TearDownTestSuite() {
    delete lib_;
    delete model_;
    delete chr_;
    lib_ = nullptr;
    model_ = nullptr;
    chr_ = nullptr;
  }
  static charlib::Characterizer* chr_;
  static PowerModel* model_;
  static liberty::Library* lib_;
};

charlib::Characterizer* PowerTest::chr_ = nullptr;
PowerModel* PowerTest::model_ = nullptr;
liberty::Library* PowerTest::lib_ = nullptr;

TEST_F(PowerTest, EnergyMonotoneInLoad) {
  const charlib::CellSpec spec =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 1.0);
  double prev = -1.0;
  for (double load = 0.0; load <= spec.maxLoad; load += spec.maxLoad / 8) {
    const double e = model_->transitionEnergy(spec, 0.05, load, {});
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST_F(PowerTest, EnergyMonotoneInSlew) {
  const charlib::CellSpec spec =
      chr_->model().makeSpec(liberty::CellFunction::kNand2, 1.0);
  double prev = -1.0;
  for (double slew = 0.0; slew <= 0.6; slew += 0.1) {
    const double e = model_->transitionEnergy(spec, slew, 0.01, {});
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST_F(PowerTest, LoadChargingDominatedByPhysics) {
  // The charging term is C*V^2 regardless of the cell: two cells driving
  // the same extra load differ by the same energy delta.
  const charlib::CellSpec weak =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 1.0);
  const charlib::CellSpec strong =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 8.0);
  const double dWeak = model_->transitionEnergy(weak, 0.05, 0.02, {}) -
                       model_->transitionEnergy(weak, 0.05, 0.01, {});
  const double dStrong = model_->transitionEnergy(strong, 0.05, 0.02, {}) -
                         model_->transitionEnergy(strong, 0.05, 0.01, {});
  EXPECT_NEAR(dWeak, dStrong, 1e-12);
  // C*V^2: 0.01 pF * 1.21 V^2 = 12.1 fJ.
  EXPECT_NEAR(dWeak, 0.01 * 1.1 * 1.1 * 1e3, 1e-9);
}

TEST_F(PowerTest, ShortCircuitWorseForWeakCells) {
  const charlib::CellSpec weak =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 1.0);
  const charlib::CellSpec strong =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 8.0);
  const double slewCostWeak = model_->transitionEnergy(weak, 0.6, 0.01, {}) -
                              model_->transitionEnergy(weak, 0.0, 0.01, {});
  const double slewCostStrong =
      model_->transitionEnergy(strong, 0.6, 0.01, {}) -
      model_->transitionEnergy(strong, 0.0, 0.01, {});
  EXPECT_GT(slewCostWeak, slewCostStrong);
}

TEST_F(PowerTest, MismatchMovesEnergy) {
  const charlib::CellSpec spec =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 1.0);
  const double nominal = model_->transitionEnergy(spec, 0.2, 0.01, {});
  charlib::LocalDeltas slow{0.2, 0.2, 0.0};
  EXPECT_GT(model_->transitionEnergy(spec, 0.2, 0.01, slow), nominal);
}

TEST_F(PowerTest, DynamicPowerScalesWithActivityAndFrequency) {
  const charlib::CellSpec spec =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 2.0);
  const double base = model_->dynamicPower(spec, 0.05, 0.01, 0.1, 5.0);
  EXPECT_NEAR(model_->dynamicPower(spec, 0.05, 0.01, 0.2, 5.0), 2.0 * base,
              1e-12);
  EXPECT_NEAR(model_->dynamicPower(spec, 0.05, 0.01, 0.1, 2.5), 2.0 * base,
              1e-12);
}

TEST_F(PowerTest, PowerLutShapeMatchesDelayLut) {
  const charlib::CellSpec spec =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 1.0);
  const statlib::StatLut lut = buildPowerLut(*chr_, *model_, spec, 30, 11);
  EXPECT_EQ(lut.rows(), chr_->config().slewAxis.size());
  EXPECT_EQ(lut.cols(), chr_->config().loadFractions.size());
  // Sigma grows along slew (short-circuit mismatch) for fixed load.
  for (std::size_t c = 0; c < lut.cols(); ++c) {
    EXPECT_GT(lut.sigma().at(lut.rows() - 1, c), lut.sigma().at(0, c));
  }
}

TEST_F(PowerTest, PowerSigmaFollowsPelgrom) {
  const charlib::CellSpec weak =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 1.0);
  const charlib::CellSpec strong =
      chr_->model().makeSpec(liberty::CellFunction::kInv, 16.0);
  const statlib::StatLut weakLut = buildPowerLut(*chr_, *model_, weak, 40, 3);
  const statlib::StatLut strongLut =
      buildPowerLut(*chr_, *model_, strong, 40, 3);
  // At the same table index, the weak cell's short-circuit sigma relative
  // to its mean is larger.
  const double weakRel = weakLut.sigma().at(3, 1) / weakLut.mean().at(3, 1);
  const double strongRel =
      strongLut.sigma().at(3, 1) / strongLut.mean().at(3, 1);
  EXPECT_GT(weakRel, strongRel);
}

TEST_F(PowerTest, PowerLutDeterministicPerSeed) {
  const charlib::CellSpec spec =
      chr_->model().makeSpec(liberty::CellFunction::kXor2, 2.0);
  const statlib::StatLut a = buildPowerLut(*chr_, *model_, spec, 20, 5);
  const statlib::StatLut b = buildPowerLut(*chr_, *model_, spec, 20, 5);
  EXPECT_EQ(a.sigma(), b.sigma());
  EXPECT_EQ(a.mean(), b.mean());
}

TEST_F(PowerTest, PowerTuningProducesWindows) {
  const tuning::LibraryConstraints constraints =
      tuneLibraryOnPower(*chr_, *model_, /*energySigmaCeiling=*/1.0, 25, 7);
  EXPECT_GT(constraints.size(), 250u);
  // Tight ceiling restricts more than a loose one.
  const tuning::LibraryConstraints loose =
      tuneLibraryOnPower(*chr_, *model_, 5.0, 25, 7);
  const auto wTight = constraints.window("IV_1", "Z");
  const auto wLoose = loose.window("IV_1", "Z");
  ASSERT_TRUE(wTight.has_value());
  ASSERT_TRUE(wLoose.has_value());
  EXPECT_LE(wTight->maxSlew, wLoose->maxSlew);
}

TEST_F(PowerTest, DesignPowerAnalysis) {
  const synth::Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const synth::SynthesisResult result =
      synth.run(netlist::generateAccumulator(16), clock);
  ASSERT_TRUE(result.success());
  sta::TimingAnalyzer sta(result.design, *lib_, clock);
  ASSERT_TRUE(sta.analyze());
  DrawTable draws(30, 7);
  const DesignPower power =
      analyzeDesignPower(result.design, sta, *chr_, *model_, 0.15, draws);
  EXPECT_GT(power.meanPower, 0.0);
  EXPECT_GT(power.sigmaPower, 0.0);
  EXPECT_LT(power.sigmaPower, power.meanPower);  // many independent cells
  EXPECT_EQ(power.cells, result.design.gateCount());
}

TEST_F(PowerTest, DesignPowerDeterministic) {
  const synth::Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const synth::SynthesisResult result =
      synth.run(netlist::generateAccumulator(8), clock);
  sta::TimingAnalyzer sta(result.design, *lib_, clock);
  ASSERT_TRUE(sta.analyze());
  // A cold table, then the table the first call filled.
  DrawTable draws(20, 7);
  const DesignPower a =
      analyzeDesignPower(result.design, sta, *chr_, *model_, 0.15, draws);
  const DesignPower b =
      analyzeDesignPower(result.design, sta, *chr_, *model_, 0.15, draws);
  EXPECT_EQ(a.meanPower, b.meanPower);
  EXPECT_EQ(a.sigmaPower, b.sigmaPower);
}

}  // namespace
}  // namespace sct::power
