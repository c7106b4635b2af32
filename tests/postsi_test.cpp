// Post-silicon subsystem tests (DESIGN.md §15): tunable-element snapping,
// statistical clock tuning (monotone-yield guarantee and strict recovery at
// a tight period), sampling-based buffer insertion, and the scenario matrix
// — baseline byte-identity with the flow report and cold/warm cache
// byte-identity of the rendered report.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "charlib/characterizer.hpp"
#include "clocktree/clock_tree.hpp"
#include "core/flow_job.hpp"
#include "netlist/builder.hpp"
#include "postsi/buffer_sampling.hpp"
#include "postsi/clock_tuning.hpp"
#include "postsi/scenario.hpp"
#include "statlib/stat_library.hpp"
#include "sta/sta.hpp"
#include "synth/synthesis.hpp"
#include "test_helpers.hpp"

namespace sct::postsi {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------- element snapping ----

TEST(TuningElement, SettingCountAndSnap) {
  const clocktree::TuningElementSpec spec{0.0, 0.3, 0.05, 2.0};
  EXPECT_TRUE(spec.valid());
  EXPECT_TRUE(spec.enabled());
  EXPECT_EQ(spec.settingCount(), 7u);  // 0.00 .. 0.30 inclusive
  EXPECT_DOUBLE_EQ(spec.snap(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(spec.snap(0.07), 0.05);
  EXPECT_DOUBLE_EQ(spec.snap(9.0), 0.30000000000000004);  // 6 * 0.05
}

TEST(TuningElement, DisabledAndInvalidSpecs) {
  const clocktree::TuningElementSpec disabled{0.0, 0.0, 0.05, 2.0};
  EXPECT_FALSE(disabled.enabled());
  const clocktree::TuningElementSpec inverted{0.3, 0.0, 0.05, 2.0};
  EXPECT_FALSE(inverted.valid());
  EXPECT_EQ(inverted.settingCount(), 0u);
  const clocktree::TuningElementSpec coarse{0.0, 0.1, 0.5, 2.0};
  EXPECT_FALSE(coarse.valid());
}

TEST(Scenario, PaperPeriodsScaleTheBase) {
  const std::vector<double> periods = paperPeriods(2.41);
  ASSERT_EQ(periods.size(), 4u);
  EXPECT_DOUBLE_EQ(periods[0], 2.41);
  EXPECT_NEAR(periods[1], 2.5, 1e-12);
  EXPECT_NEAR(periods[2], 4.0, 1e-12);
  EXPECT_NEAR(periods[3], 10.0, 1e-12);
}

// ------------------------------------------------------- clock tuning ----

class PostSiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    chr_ = new charlib::Characterizer(test::makeSmallCharacterizer());
    lib_ = new liberty::Library(
        chr_->characterizeNominal(charlib::ProcessCorner::typical()));
    const auto mcLibs =
        chr_->characterizeMonteCarlo(charlib::ProcessCorner::typical(), 20, 5);
    stat_ = new statlib::StatLibrary(statlib::buildStatLibrary(mcLibs));
  }
  static void TearDownTestSuite() {
    delete stat_;
    delete lib_;
    delete chr_;
    stat_ = nullptr;
    lib_ = nullptr;
    chr_ = nullptr;
  }

  /// Synthesizes `design` at a relaxed period and keeps the result alive for
  /// the lifetime of the suite (paths reference instances by index).
  static const netlist::Design& mapped(netlist::Design design) {
    const synth::Synthesizer synth(*lib_);
    sta::ClockSpec clock;
    clock.period = 8.0;
    auto result = synth.run(std::move(design), clock);
    EXPECT_TRUE(result.success());
    static std::vector<std::unique_ptr<synth::SynthesisResult>> keepAlive;
    keepAlive.push_back(
        std::make_unique<synth::SynthesisResult>(std::move(result)));
    return keepAlive.back()->design;
  }

  /// MC design yield of `design` at `period` with tuning disabled.
  static double yieldAt(const netlist::Design& design, double period) {
    return tuneAt(design, period, clocktree::TuningElementSpec{})
        .designYieldBefore;
  }

  static ClockTuningResult tuneAt(const netlist::Design& design, double period,
                                  const clocktree::TuningElementSpec& element) {
    sta::ClockSpec clock;
    clock.period = period;
    sta::TimingAnalyzer sta(design, *lib_, clock);
    EXPECT_TRUE(sta.analyze());
    ClockTuningConfig config;
    config.element = element;
    config.trials = 64;
    config.mcSeed = 2014;
    return computeClockTuning(*chr_, design, sta.endpointWorstPaths(), config);
  }

  /// Bisects for a clock period where the untuned MC yield is strictly
  /// between 0 and 1 — i.e. inside the spread of per-die critical delays.
  static double marginalPeriod(const netlist::Design& design) {
    double lo = 0.05;
    double hi = 20.0;
    EXPECT_EQ(yieldAt(design, lo), 0.0);
    EXPECT_EQ(yieldAt(design, hi), 1.0);
    for (int iter = 0; iter < 80; ++iter) {
      const double mid = 0.5 * (lo + hi);
      const double y = yieldAt(design, mid);
      if (y <= 0.0) {
        lo = mid;
      } else if (y >= 1.0) {
        hi = mid;
      } else {
        return mid;
      }
    }
    ADD_FAILURE() << "no marginal period found in [" << lo << ", " << hi
                  << "]";
    return hi;
  }

  static charlib::Characterizer* chr_;
  static liberty::Library* lib_;
  static statlib::StatLibrary* stat_;
};

charlib::Characterizer* PostSiTest::chr_ = nullptr;
liberty::Library* PostSiTest::lib_ = nullptr;
statlib::StatLibrary* PostSiTest::stat_ = nullptr;

TEST_F(PostSiTest, DisabledElementReportsPlainYield) {
  const netlist::Design& design = mapped(test::makeInvChain(8));
  const ClockTuningResult result =
      tuneAt(design, 8.0, clocktree::TuningElementSpec{});
  EXPECT_EQ(result.elements, 0u);
  EXPECT_DOUBLE_EQ(result.tuningArea, 0.0);
  EXPECT_EQ(result.designYieldBefore, result.designYieldAfter);
  EXPECT_EQ(result.designYieldBefore, 1.0);  // relaxed period, every die met
  // Every assignment is zero when the element is disabled.
  for (const RegisterTuning& reg : result.registers) {
    EXPECT_DOUBLE_EQ(reg.assignMax, 0.0);
    EXPECT_DOUBLE_EQ(reg.chosen, 0.0);
  }
}

TEST_F(PostSiTest, TuningRecoversMarginalDies) {
  // At a period inside the per-die delay spread some dies fail on the
  // register-to-register chain while the shallow FF->output path keeps a
  // large launch budget — the element must recover them.
  const netlist::Design& design = mapped(test::makeInvChain(10));
  const double period = marginalPeriod(design);
  const clocktree::TuningElementSpec element{0.0, 4.0, 0.05, 2.0};
  const ClockTuningResult result = tuneAt(design, period, element);
  EXPECT_GT(result.designYieldBefore, 0.0);
  EXPECT_LT(result.designYieldBefore, 1.0);
  EXPECT_GT(result.designYieldAfter, result.designYieldBefore);
  EXPECT_GT(result.elements, 0u);
  EXPECT_DOUBLE_EQ(result.tuningArea,
                   static_cast<double>(result.elements) * 2.0);
  // Some die needed a nonzero assignment on the capture register.
  double maxAssign = 0.0;
  for (const RegisterTuning& reg : result.registers) {
    maxAssign = std::max(maxAssign, reg.assignMax);
    EXPECT_GE(reg.yieldAfter, reg.yieldBefore);
  }
  EXPECT_GT(maxAssign, 0.0);
}

TEST_F(PostSiTest, TuningYieldIsMonotoneAcrossPeriods) {
  const netlist::Design& design = mapped(test::makeInvChain(6));
  const clocktree::TuningElementSpec element{0.0, 0.3, 0.05, 2.0};
  for (const double period : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const ClockTuningResult result = tuneAt(design, period, element);
    EXPECT_GE(result.designYieldAfter, result.designYieldBefore)
        << "period " << period;
  }
}

TEST_F(PostSiTest, ClockTuningIsDeterministic) {
  const netlist::Design& design = mapped(test::makeInvChain(8));
  const clocktree::TuningElementSpec element{0.0, 0.3, 0.05, 2.0};
  const ClockTuningResult a = tuneAt(design, 2.0, element);
  const ClockTuningResult b = tuneAt(design, 2.0, element);
  EXPECT_EQ(a.designYieldBefore, b.designYieldBefore);
  EXPECT_EQ(a.designYieldAfter, b.designYieldAfter);
  ASSERT_EQ(a.registers.size(), b.registers.size());
  for (std::size_t i = 0; i < a.registers.size(); ++i) {
    EXPECT_EQ(a.registers[i].instance, b.registers[i].instance);
    EXPECT_EQ(a.registers[i].slackMean, b.registers[i].slackMean);
    EXPECT_EQ(a.registers[i].assignMean, b.registers[i].assignMean);
    EXPECT_EQ(a.registers[i].chosen, b.registers[i].chosen);
  }
}

TEST_F(PostSiTest, DuplicatePathHasIdenticalSlackOnEveryDie) {
  // Both copies of a path hold the same instances, so the per-die sampler
  // gives them the same slack on every die, and the duplicated list tunes
  // exactly like the single path. Copies with their own mismatch draws
  // would lower the capture register's worst slack on some dies.
  const netlist::Design& design = mapped(test::makeInvChain(10));
  sta::ClockSpec clock;
  clock.period = marginalPeriod(design);
  sta::TimingAnalyzer sta(design, *lib_, clock);
  ASSERT_TRUE(sta.analyze());
  const std::vector<sta::TimingPath> paths = sta.endpointWorstPaths();
  const sta::TimingPath* longest = &paths.front();
  for (const sta::TimingPath& p : paths) {
    if (p.depth() > longest->depth()) longest = &p;
  }
  ClockTuningConfig config;
  config.element = clocktree::TuningElementSpec{0.0, 4.0, 0.05, 2.0};
  config.trials = 64;
  const ClockTuningResult once =
      computeClockTuning(*chr_, design, {*longest}, config);
  const ClockTuningResult twice =
      computeClockTuning(*chr_, design, {*longest, *longest}, config);
  EXPECT_EQ(once.designYieldBefore, twice.designYieldBefore);
  EXPECT_EQ(once.designYieldAfter, twice.designYieldAfter);
  ASSERT_EQ(once.registers.size(), twice.registers.size());
  for (std::size_t r = 0; r < once.registers.size(); ++r) {
    const RegisterTuning& a = once.registers[r];
    const RegisterTuning& b = twice.registers[r];
    EXPECT_EQ(a.instance, b.instance);
    EXPECT_EQ(a.slackMean, b.slackMean);
    EXPECT_EQ(a.slackSigma, b.slackSigma);
    EXPECT_EQ(a.assignMean, b.assignMean);
    EXPECT_EQ(a.assignSigma, b.assignSigma);
    EXPECT_EQ(a.yieldBefore, b.yieldBefore);
    EXPECT_EQ(a.yieldAfter, b.yieldAfter);
  }
  // The capture register sees a spread of slacks, so a second draw would
  // have shown.
  const std::string capture = design.instance(longest->endpoint.instance).name;
  bool seen = false;
  for (const RegisterTuning& reg : once.registers) {
    if (reg.instance != capture) continue;
    seen = true;
    EXPECT_GT(reg.slackSigma, 0.0);
  }
  EXPECT_TRUE(seen);
}

// --------------------------------------------------- buffer insertion ----

/// FF -> stem inverter fanning out to a deep chain and a short branch; the
/// stem net has two sinks, so the sampling pass has a candidate site.
netlist::Design makeFanoutDesign() {
  netlist::Design design("fanout");
  netlist::NetlistBuilder b(design);
  const netlist::NetIndex in = b.inputPort("din");
  const netlist::NetIndex q = b.dff(in, netlist::PrimOp::kDff);
  const netlist::NetIndex stem = b.inv(q);
  netlist::NetIndex deep = stem;
  for (int i = 0; i < 8; ++i) deep = b.inv(deep);
  const netlist::NetIndex shallow = b.inv(stem);
  b.outputPort("a", b.dff(deep, netlist::PrimOp::kDff));
  b.outputPort("b", b.dff(shallow, netlist::PrimOp::kDff));
  return design;
}

TEST_F(PostSiTest, BufferSamplingEvaluatesAndNeverHurtsYield) {
  const netlist::Design& design = mapped(makeFanoutDesign());
  sta::ClockSpec clock;
  clock.period = 4.0;
  BufferSamplingOptions options;
  options.trials = 32;
  const BufferSamplingResult result = sampleBufferInsertion(
      design, *lib_, *stat_, *chr_, clock, nullptr, options);
  EXPECT_GE(result.evaluated, 1u);
  EXPECT_GE(result.yieldAfter, result.yieldBefore);
  EXPECT_EQ(result.design.instanceCount(),
            design.instanceCount() + result.inserted);
}

TEST_F(PostSiTest, BufferSamplingIsDeterministicAndNonMutating) {
  const netlist::Design& design = mapped(makeFanoutDesign());
  const std::size_t instancesBefore = design.instanceCount();
  const std::size_t netsBefore = design.netCount();
  sta::ClockSpec clock;
  clock.period = 4.0;
  BufferSamplingOptions options;
  options.trials = 32;
  const BufferSamplingResult a = sampleBufferInsertion(
      design, *lib_, *stat_, *chr_, clock, nullptr, options);
  const BufferSamplingResult b = sampleBufferInsertion(
      design, *lib_, *stat_, *chr_, clock, nullptr, options);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.inserted, b.inserted);
  EXPECT_EQ(a.yieldBefore, b.yieldBefore);
  EXPECT_EQ(a.yieldAfter, b.yieldAfter);
  EXPECT_EQ(a.worstPathSigmaAfter, b.worstPathSigmaAfter);
  EXPECT_EQ(a.design.instanceCount(), b.design.instanceCount());
  // The input design is never mutated by the sampling pass.
  EXPECT_EQ(design.instanceCount(), instancesBefore);
  EXPECT_EQ(design.netCount(), netsBefore);
}

// ----------------------------------------------------- scenario matrix ----

core::FlowJob smallJob() {
  core::FlowJob job;
  job.profile = "small";
  job.mcCount = 4;
  job.lintMode = "off";
  return job;
}

ScenarioJob smallScenarioJob(std::vector<double> periods,
                             const std::string& scenarios) {
  ScenarioJob job;
  job.flow = smallJob();
  job.periods = std::move(periods);
  job.scenarios = scenarios;
  job.mcTrials = 16;
  return job;
}

TEST(Scenario, BaselineCellMatchesFlowReportByteForByte) {
  core::TuningFlow flow(core::makeFlowConfig(smallJob()));
  const ScenarioJob job = smallScenarioJob({8.0}, "tuning");
  const ScenarioRunResult result = runScenarioJob(flow, job);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.cells[0].scenario, "tuning");

  // The baseline cell carries a plain flow's numbers, bit for bit.
  core::TuningFlow plain(core::makeFlowConfig(smallJob()));
  const core::DesignMeasurement expected = plain.synthesizeBaseline(8.0);
  const ScenarioCell& cell = result.cells[0];
  EXPECT_EQ(cell.wns, expected.synthesis.worstSlack);
  EXPECT_EQ(cell.area, expected.area());
  EXPECT_EQ(cell.designSigma, expected.sigma());
  EXPECT_EQ(cell.powerMean, expected.power.meanPower);
  EXPECT_EQ(cell.powerSigma, expected.power.sigmaPower);
}

TEST(Scenario, MatrixOrderAndCumulativeScenarios) {
  core::TuningFlow flow(core::makeFlowConfig(smallJob()));
  const ScenarioJob job =
      smallScenarioJob({6.0, 8.0}, "tuning,clock,buffers");
  const ScenarioRunResult result = runScenarioJob(flow, job);
  ASSERT_EQ(result.cells.size(), 6u);  // scenario-major, period-minor
  EXPECT_EQ(result.cells[0].scenario, "tuning");
  EXPECT_EQ(result.cells[1].scenario, "tuning");
  EXPECT_EQ(result.cells[2].scenario, "clock");
  EXPECT_EQ(result.cells[4].scenario, "buffers");
  EXPECT_DOUBLE_EQ(result.cells[0].period, 6.0);
  EXPECT_DOUBLE_EQ(result.cells[1].period, 8.0);
  // Clock tuning never loses yield against the untuned baseline cell at the
  // same period (the budget clamp makes the pass set monotone).
  EXPECT_GE(result.cells[2].yield, result.cells[0].yield);
  EXPECT_GE(result.cells[3].yield, result.cells[1].yield);
  // Tuning elements cost area on top of the mapped design.
  EXPECT_GT(result.cells[2].elements, 0u);
  EXPECT_GT(result.cells[2].tuningArea, 0.0);
  EXPECT_NE(result.report.find("scenario-report v1"), std::string::npos);
  EXPECT_NE(result.json.find("\"scenario\":\"buffers\""), std::string::npos);
}

TEST(Scenario, RejectsBadJobs) {
  core::TuningFlow flow(core::makeFlowConfig(smallJob()));
  ScenarioJob noPeriods = smallScenarioJob({}, "tuning");
  EXPECT_THROW((void)runScenarioJob(flow, noPeriods), std::runtime_error);
  ScenarioJob badName = smallScenarioJob({8.0}, "tuning,warp");
  EXPECT_THROW((void)runScenarioJob(flow, badName), std::runtime_error);
}

/// A clock-scenario job whose tuning element has an inverted range.
ScenarioJob invertedRangeJob(const std::string& lintMode) {
  ScenarioJob job = smallScenarioJob({8.0}, "clock");
  job.flow.lintMode = lintMode;
  job.element.rangeMin = 0.3;
  job.element.rangeMax = 0.1;
  return job;
}

TEST(Scenario, ErrorModeRejectsInvertedTuningRange) {
  const ScenarioJob job = invertedRangeJob("error");
  core::TuningFlow flow(core::makeFlowConfig(job.flow));
  try {
    (void)runScenarioJob(flow, job);
    FAIL() << "the clock-pack gate should have thrown";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("lint gate failed at stage 'clock'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("cst.clock.range-inverted"), std::string::npos)
        << message;
  }
}

TEST(Scenario, WarnModeRunsWithInvertedTuningRange) {
  const ScenarioJob job = invertedRangeJob("warn");
  core::TuningFlow flow(core::makeFlowConfig(job.flow));
  const ScenarioRunResult result = runScenarioJob(flow, job);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].scenario, "clock");
  EXPECT_EQ(result.cells[0].elements, 0u);  // an inverted range tunes nothing
}

TEST(Scenario, ColdAndWarmRunsAreByteIdentical) {
  const fs::path dir = fs::temp_directory_path() / "sct_scenario_cache_test";
  fs::remove_all(dir);

  core::FlowConfig config = core::makeFlowConfig(smallJob());
  config.cacheDir = dir.string();
  const ScenarioJob job = smallScenarioJob({7.0}, "tuning,clock");

  core::TuningFlow cold(config);
  ASSERT_NE(cold.cache(), nullptr);
  const ScenarioRunResult coldRun = runScenarioJob(cold, job);
  EXPECT_TRUE(coldRun.success);

  // A fresh flow over the same cache directory decodes every scenario cell
  // (and every flow stage below it) from the store: zero misses, and the
  // rendered bytes — report, JSON, summary — are identical.
  core::TuningFlow warm(config);
  const ScenarioRunResult warmRun = runScenarioJob(warm, job);
  EXPECT_EQ(warm.cache()->stats().misses, 0u);
  EXPECT_EQ(warm.cache()->stats().stores, 0u);
  EXPECT_EQ(warmRun.report, coldRun.report);
  EXPECT_EQ(warmRun.json, coldRun.json);
  EXPECT_EQ(warmRun.summary, coldRun.summary);

  // Another workload over the same store computes its own cells instead of
  // being served the MCU's.
  ScenarioJob dspJob = job;
  dspJob.flow.workload = "dsp";
  core::FlowConfig dspConfig = core::makeFlowConfig(dspJob.flow);
  core::TuningFlow uncached(dspConfig);
  dspConfig.cacheDir = dir.string();
  core::TuningFlow shared(dspConfig);
  EXPECT_EQ(runScenarioJob(shared, dspJob).report,
            runScenarioJob(uncached, dspJob).report);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace sct::postsi
