// Integration tests of the end-to-end tuning flow (paper sections II-VII)
// on a scaled-down microcontroller: baseline vs tuned synthesis, sigma
// reduction, sweep bookkeeping and measurement consistency.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace sct::core {
namespace {

/// Small-but-real flow config: the small profile (reduced MCU and
/// characterization grid) so the whole integration suite stays fast.
FlowConfig smallConfig() {
  FlowJob job;
  job.profile = "small";
  job.mcCount = 25;
  return makeFlowConfig(job);
}

class FlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { flow_ = new TuningFlow(smallConfig()); }
  static void TearDownTestSuite() {
    delete flow_;
    flow_ = nullptr;
  }
  static TuningFlow* flow_;
};

TuningFlow* FlowTest::flow_ = nullptr;

TEST_F(FlowTest, ArtifactsAreLazyAndStable) {
  const liberty::Library& lib1 = flow_->nominalLibrary();
  const liberty::Library& lib2 = flow_->nominalLibrary();
  EXPECT_EQ(&lib1, &lib2);
  EXPECT_EQ(lib1.size(), 304u);
  const statlib::StatLibrary& stat = flow_->statLibrary();
  EXPECT_EQ(stat.size(), 304u);
  EXPECT_EQ(stat.sampleCount(), 25u);
  const netlist::Design& subject = flow_->subject();
  EXPECT_GT(subject.gateCount(), 1000u);
  EXPECT_EQ(subject.validate(), "");
}

TEST_F(FlowTest, BaselineMeasurementIsConsistent) {
  const DesignMeasurement baseline = flow_->synthesizeBaseline(8.0);
  ASSERT_TRUE(baseline.success());
  EXPECT_GT(baseline.area(), 0.0);
  EXPECT_GT(baseline.sigma(), 0.0);
  EXPECT_EQ(baseline.clockPeriod, 8.0);
  EXPECT_FALSE(baseline.paths.empty());
  EXPECT_EQ(baseline.design.paths, baseline.paths.size());

  // Eq. (11) consistency between the records and the aggregate.
  double varSum = 0.0;
  for (const PathRecord& record : baseline.paths) {
    varSum += record.sigma * record.sigma;
    EXPECT_GE(record.depth, 0u);
    EXPECT_GE(record.mean, 0.0);
  }
  EXPECT_NEAR(baseline.design.sigma, std::sqrt(varSum),
              1e-9 * baseline.design.sigma);
}

TEST_F(FlowTest, PathPopulationShape) {
  const DesignMeasurement baseline = flow_->synthesizeBaseline(8.0);
  std::size_t deepest = 0;
  std::size_t shortCount = 0;
  for (const PathRecord& record : baseline.paths) {
    deepest = std::max(deepest, record.depth);
    if (record.depth <= 4) ++shortCount;
  }
  // Even the reduced MCU keeps deep arithmetic paths and a large short-path
  // population (the paper's "about one third" observation).
  EXPECT_GT(deepest, 20u);
  EXPECT_GT(shortCount, baseline.paths.size() / 5);
}

TEST_F(FlowTest, SigmaCeilingTuningReducesSigma) {
  const DesignMeasurement baseline = flow_->synthesizeBaseline(8.0);
  const DesignMeasurement tuned = flow_->synthesizeTuned(
      8.0,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.01));
  ASSERT_TRUE(baseline.success());
  ASSERT_TRUE(tuned.success());
  EXPECT_LT(tuned.sigma(), baseline.sigma());
}

TEST_F(FlowTest, TuneProducesConstraints) {
  const tuning::LibraryConstraints constraints = flow_->tune(
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02));
  EXPECT_GT(constraints.size(), 250u);
}

TEST_F(FlowTest, TracePathsMatchesMeasurementPaths) {
  const DesignMeasurement baseline = flow_->synthesizeBaseline(8.0);
  const auto paths = flow_->tracePaths(baseline.synthesis, 8.0);
  EXPECT_EQ(paths.size(), baseline.paths.size());
}

TEST_F(FlowTest, SweepMethodComputesRelativeMetrics) {
  const DesignMeasurement baseline = flow_->synthesizeBaseline(8.0);
  const auto points = flow_->sweepMethod(tuning::TuningMethod::kSigmaCeiling,
                                         8.0, baseline);
  ASSERT_EQ(points.size(), 4u);  // Table 2 ceiling sweep
  for (const auto& point : points) {
    EXPECT_EQ(point.method, tuning::TuningMethod::kSigmaCeiling);
    if (point.measurement.success()) {
      const double expected =
          100.0 * (baseline.sigma() - point.measurement.sigma()) /
          baseline.sigma();
      EXPECT_NEAR(point.sigmaReductionPct, expected, 1e-9);
    }
  }
  // The strictest ceiling must restrict at least as much as the loosest.
  EXPECT_GE(points.back().sigmaReductionPct, points.front().sigmaReductionPct);
}

TEST_F(FlowTest, BestUnderAreaCapRespectsCap) {
  std::vector<TuningFlow::SweepPoint> points(3);
  points[0].sigmaReductionPct = 50.0;
  points[0].areaIncreasePct = 20.0;  // above cap
  points[0].measurement.synthesis.timingMet = true;
  points[0].measurement.synthesis.legal = true;
  points[1].sigmaReductionPct = 30.0;
  points[1].areaIncreasePct = 5.0;
  points[1].measurement.synthesis.timingMet = true;
  points[1].measurement.synthesis.legal = true;
  points[2].sigmaReductionPct = 40.0;
  points[2].areaIncreasePct = 8.0;
  points[2].measurement.synthesis.timingMet = false;  // failed run
  points[2].measurement.synthesis.legal = true;

  const auto* best = TuningFlow::bestUnderAreaCap(points, 10.0);
  ASSERT_NE(best, nullptr);
  EXPECT_DOUBLE_EQ(best->sigmaReductionPct, 30.0);
  EXPECT_EQ(TuningFlow::bestUnderAreaCap(points, 1.0), nullptr);
}

TEST_F(FlowTest, MeasurementIsDeterministic) {
  const DesignMeasurement a = flow_->synthesizeBaseline(6.0);
  const DesignMeasurement b = flow_->synthesizeBaseline(6.0);
  EXPECT_EQ(a.sigma(), b.sigma());
  EXPECT_EQ(a.area(), b.area());
  EXPECT_EQ(a.paths.size(), b.paths.size());
}

TEST(FlowJobThreads, ReportsByteIdenticalAcrossThreadCounts) {
  // The measure step runs path statistics and design power on the pool;
  // the rendered report must not depend on the pool size.
  FlowJob baseline;
  baseline.profile = "small";
  baseline.mcCount = 4;
  baseline.lintMode = "off";
  baseline.period = 8.0;
  FlowJob tuned = baseline;
  tuned.method = "sigma-ceiling";
  tuned.value = 0.02;
  // Another period: the flow's mapping of the subject is reused.
  FlowJob tighter = baseline;
  tighter.period = 6.0;

  const std::size_t previous = parallel::threadCount();
  std::vector<std::string> reports[2];
  for (int side = 0; side < 2; ++side) {
    parallel::setThreadCount(side == 0 ? 0 : 4);
    // A fresh flow per side so nothing is served from the memory tier.
    TuningFlow flow(makeFlowConfig(baseline));
    for (const FlowJob& job : {baseline, tuned, tighter}) {
      const FlowJobResult result = runFlowJob(flow, job);
      EXPECT_TRUE(result.success);
      reports[side].push_back(result.report);
    }
  }
  parallel::setThreadCount(previous);
  ASSERT_EQ(reports[0].size(), 3u);
  EXPECT_FALSE(reports[0][0].empty());
  EXPECT_EQ(reports[0][0], reports[1][0]);
  EXPECT_EQ(reports[0][1], reports[1][1]);
  EXPECT_EQ(reports[0][2], reports[1][2]);
  EXPECT_NE(reports[0][0], reports[0][1]);
  EXPECT_NE(reports[0][0], reports[0][2]);
}

// ---- per-flow mapping memo and the synthesis -> measure hand-over ---------

/// Every reported number of a measurement, %a-exact, in one string.
std::string fingerprint(const DesignMeasurement& m) {
  std::string out;
  char line[512];
  const synth::SynthesisResult& r = m.synthesis;
  std::snprintf(line, sizeof line,
                "met %d legal %d wns %a tns %a area %a gates %zu buffers %zu "
                "resizes %zu decomposed %zu patterns %zu sigma %a mean %a "
                "power %a %a %zu\n",
                r.timingMet, r.legal, r.worstSlack, r.tns, r.area,
                r.design.gateCount(), r.buffersInserted, r.resizes,
                r.decomposed, r.patternRewrites, m.design.sigma,
                m.design.mean, m.power.meanPower, m.power.sigmaPower,
                m.power.cells);
  out += line;
  for (const PathRecord& p : m.paths) {
    std::snprintf(line, sizeof line, "%s %zu %a %a %a %a\n",
                  p.endpoint.c_str(), p.depth, p.mean, p.sigma, p.arrival,
                  p.slack);
    out += line;
  }
  return out;
}

std::uint64_t counterValue(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Turns metrics on for one test and restores the previous setting.
struct ScopedMetrics {
  bool previous = obs::metricsEnabled();
  ScopedMetrics() { obs::setMetricsEnabled(true); }
  ~ScopedMetrics() { obs::setMetricsEnabled(previous); }
};

FlowConfig memoConfig() {
  FlowJob job;
  job.profile = "small";
  job.mcCount = 4;
  job.lintMode = "off";
  return makeFlowConfig(job);
}

/// Constraints under which no MUX2 cell is usable: mapping must decompose
/// every mux of the subject.
tuning::LibraryConstraints withoutMux2(const liberty::Library& library) {
  tuning::LibraryConstraints constraints;
  for (const liberty::Cell* cell : library.cells()) {
    if (cell->function() == liberty::CellFunction::kMux2) {
      constraints.markUnusable(cell->name());
    }
  }
  return constraints;
}

/// The MUX2-free job on `flow`, through the flow's synthesize().
DesignMeasurement measureWithoutMux2(TuningFlow& flow, double period) {
  const tuning::LibraryConstraints constraints =
      withoutMux2(flow.nominalLibrary());
  const synth::Synthesizer synthesizer(flow.nominalLibrary(), &constraints);
  return flow.measure(flow.synthesize(synthesizer, period), period);
}

TEST(FlowMapMemo, OneMappingPerUsableOpSetAndReportsMatchFreshFlows) {
  FlowJob baseline;
  baseline.profile = "small";
  baseline.mcCount = 4;
  baseline.lintMode = "off";
  baseline.period = 8.0;
  const ScopedMetrics metrics;

  // Baseline, a job with the MUX2 family emptied (a second usable-op set,
  // with real decompositions), then the baseline again, on one flow.
  TuningFlow shared(memoConfig());
  (void)shared.subject();
  const std::uint64_t probes = counterValue("flow.stage.map.probes");
  const std::uint64_t misses = counterValue("flow.stage.map.misses");
  const std::string first = runFlowJob(shared, baseline).report;
  const DesignMeasurement noMux = measureWithoutMux2(shared, 8.0);
  const std::string again = runFlowJob(shared, baseline).report;
  EXPECT_EQ(counterValue("flow.stage.map.probes") - probes, 3u);
  EXPECT_EQ(counterValue("flow.stage.map.misses") - misses, 2u);
  ASSERT_TRUE(noMux.synthesis.legal);
  EXPECT_GT(noMux.synthesis.decomposed, 0u);

  TuningFlow freshBaseline(memoConfig());
  EXPECT_EQ(first, runFlowJob(freshBaseline, baseline).report);
  EXPECT_EQ(again, first);
  TuningFlow freshNoMux(memoConfig());
  const std::string expected =
      fingerprint(measureWithoutMux2(freshNoMux, 8.0));
  EXPECT_EQ(fingerprint(noMux), expected);
  EXPECT_NE(fingerprint(noMux), fingerprint(freshBaseline.synthesizeBaseline(
                                    8.0)));
}

TEST(FlowPrefixMemo, OnePrefixPerConfigAndReportsMatchFreshFlows) {
  // The baseline and one tuned config, each at three periods, on one flow:
  // the first period of each config records its sizing prefix, the other
  // two replay it, and every report equals a fresh flow's.
  FlowJob baseline;
  baseline.profile = "small";
  baseline.mcCount = 4;
  baseline.lintMode = "off";
  FlowJob tuned = baseline;
  tuned.method = "sigma-ceiling";
  tuned.value = 0.02;
  std::vector<FlowJob> jobs;
  for (const double period : {6.0, 8.0, 10.0}) {
    for (FlowJob job : {baseline, tuned}) {
      job.period = period;
      jobs.push_back(job);
    }
  }
  const ScopedMetrics metrics;
  TuningFlow shared(memoConfig());
  const std::uint64_t probes = counterValue("flow.stage.prefix.probes");
  const std::uint64_t hits = counterValue("flow.stage.prefix.hits");
  const std::uint64_t misses = counterValue("flow.stage.prefix.misses");
  std::vector<std::string> reports;
  for (const FlowJob& job : jobs) {
    reports.push_back(runFlowJob(shared, job).report);
  }
  EXPECT_EQ(counterValue("flow.stage.prefix.probes") - probes, 6u);
  EXPECT_EQ(counterValue("flow.stage.prefix.hits") - hits, 4u);
  EXPECT_EQ(counterValue("flow.stage.prefix.misses") - misses, 2u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    TuningFlow fresh(memoConfig());
    const FlowJobResult expected = runFlowJob(fresh, jobs[i]);
    EXPECT_TRUE(expected.success) << "job " << i;
    EXPECT_EQ(reports[i], expected.report) << "job " << i;
  }
  EXPECT_NE(reports[0], reports[2]);  // the period reaches the report
}

TEST(FlowPrefixMemo, ConcurrentJobsOfOneConfigMatchFreshFlows) {
  // Two threads run one config at two periods on one flow: either may
  // record the prefix, and both reports equal fresh flows'.
  FlowJob first;
  first.profile = "small";
  first.mcCount = 4;
  first.lintMode = "off";
  first.method = "sigma-ceiling";
  first.value = 0.02;
  first.period = 6.0;
  FlowJob second = first;
  second.period = 10.0;
  TuningFlow shared(memoConfig());
  (void)shared.nominalLibrary();
  (void)shared.statLibrary();
  (void)shared.subject();
  std::string firstReport;
  std::string secondReport;
  std::thread other([&] { secondReport = runFlowJob(shared, second).report; });
  firstReport = runFlowJob(shared, first).report;
  other.join();
  // A third period replays whichever prefix was kept.
  FlowJob third = first;
  third.period = 8.0;
  const std::string thirdReport = runFlowJob(shared, third).report;
  const std::pair<const FlowJob*, const std::string*> runs[] = {
      {&first, &firstReport}, {&second, &secondReport}, {&third, &thirdReport}};
  for (const auto& [job, report] : runs) {
    TuningFlow fresh(memoConfig());
    EXPECT_EQ(*report, runFlowJob(fresh, *job).report)
        << "period " << job->period;
  }
}

TEST(FlowPowerDraws, JobsOnOneFlowMatchFreshFlows) {
  // From its second measurement on, the flow keeps every counted
  // position's power mismatch draws; later jobs read them instead of
  // drawing again and report the same bytes.
  FlowJob baseline;
  baseline.profile = "small";
  baseline.mcCount = 4;
  baseline.lintMode = "off";
  baseline.period = 8.0;
  FlowJob tuned = baseline;
  tuned.method = "sigma-ceiling";
  tuned.value = 0.02;
  FlowJob tighter = tuned;
  tighter.period = 6.0;
  tighter.method = "cell-load";
  tighter.value = 0.01;
  const ScopedMetrics metrics;

  TuningFlow shared(memoConfig());
  std::vector<std::string> reports;
  std::uint64_t reused = 0;
  for (const FlowJob& job : {baseline, tuned, tighter}) {
    const std::uint64_t before = counterValue("power.draws.reused");
    reports.push_back(runFlowJob(shared, job).report);
    reused += counterValue("power.draws.reused") - before;
    // The first measurement stores nothing: a one-job flow never reads it.
    if (reports.size() == 1) EXPECT_EQ(shared.powerDraws().size(), 0u);
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(shared.powerDraws().size(), 0u);
  const FlowJob jobs[] = {baseline, tuned, tighter};
  for (std::size_t i = 0; i < 3; ++i) {
    TuningFlow fresh(memoConfig());
    const FlowJobResult expected = runFlowJob(fresh, jobs[i]);
    EXPECT_TRUE(expected.success);
    EXPECT_EQ(reports[i], expected.report) << "job " << i;
  }
  EXPECT_NE(reports[0], reports[1]);
  EXPECT_NE(reports[1], reports[2]);
}

TEST(FlowHandOver, MeasureAdoptsSynthesisTimingInsteadOfAnalyzing) {
  const ScopedMetrics metrics;
  TuningFlow flow(memoConfig());
  const synth::Synthesizer synthesizer(flow.nominalLibrary());
  synth::SynthesisResult result = flow.synthesize(synthesizer, 8.0);
  ASSERT_TRUE(result.timing);
  // A copy carries no timing state; the original's follows its design
  // through two moves.
  synth::SynthesisResult copy = result;
  EXPECT_FALSE(copy.timing);
  synth::SynthesisResult moved = std::move(result);
  std::uint64_t analyses = counterValue("sta.analyze.calls");
  const DesignMeasurement adopted = flow.measure(std::move(moved), 8.0);
  EXPECT_EQ(counterValue("sta.analyze.calls") - analyses, 0u);

  synth::SynthesisResult other = copy;
  analyses = counterValue("sta.analyze.calls");
  const DesignMeasurement analyzed = flow.measure(std::move(copy), 8.0);
  EXPECT_EQ(counterValue("sta.analyze.calls") - analyses, 1u);
  EXPECT_EQ(fingerprint(adopted), fingerprint(analyzed));
  EXPECT_FALSE(adopted.paths.empty());

  // Timing at another period is not the state of this measurement.
  synth::SynthesisResult atEight = flow.synthesize(synthesizer, 8.0);
  analyses = counterValue("sta.analyze.calls");
  const DesignMeasurement atSix = flow.measure(std::move(atEight), 6.0);
  EXPECT_EQ(counterValue("sta.analyze.calls") - analyses, 1u);
  EXPECT_EQ(fingerprint(atSix), fingerprint(flow.measure(std::move(other),
                                                         6.0)));
}

TEST(FlowHandOver, OneAnalysisPerUncachedFlowJob) {
  FlowJob job;
  job.profile = "small";
  job.mcCount = 4;
  job.lintMode = "off";
  job.period = 8.0;
  job.method = "sigma-ceiling";
  job.value = 0.02;
  const ScopedMetrics metrics;
  TuningFlow flow(makeFlowConfig(job));
  const std::uint64_t analyses = counterValue("sta.analyze.calls");
  EXPECT_TRUE(runFlowJob(flow, job).success);
  // Synthesis' first refresh; measure() adopts its final state.
  EXPECT_EQ(counterValue("sta.analyze.calls") - analyses, 1u);
}

// ---- shared environment parsing (env.hpp) --------------------------------

TEST(EnvParse, ParseSizeAcceptsPlainDecimal) {
  EXPECT_EQ(env::parseSize("test", "0", 9), 0u);
  EXPECT_EQ(env::parseSize("test", "12", 9), 12u);
  EXPECT_EQ(env::parseSize("test", "4096", 9, 4096), 4096u);
}

TEST(EnvParse, ParseSizeWarnsAndFallsBackOnGarbage) {
  EXPECT_EQ(env::parseSize("test", "", 9), 9u);
  EXPECT_EQ(env::parseSize("test", "12cores", 9), 9u);
  EXPECT_EQ(env::parseSize("test", "+4", 9), 9u);
  EXPECT_EQ(env::parseSize("test", " 8", 9), 9u);
  EXPECT_EQ(env::parseSize("test", "4.5", 9), 9u);
  EXPECT_EQ(env::parseSize("test", "0x10", 9), 9u);
  EXPECT_EQ(env::parseSize("test", "-1", 9), 9u);
}

TEST(EnvParse, ParseSizeRejectsOverMaxAndOverflow) {
  EXPECT_EQ(env::parseSize("test", "4097", 9, 4096), 9u);
  EXPECT_EQ(env::parseSize("test", "99999999999999999999999999", 9), 9u);
}

TEST(EnvParse, ParseFlagRecognizesCommonSpellings) {
  for (const char* on : {"1", "true", "on", "yes"}) {
    EXPECT_TRUE(env::parseFlag("test", on, false)) << on;
  }
  for (const char* off : {"0", "false", "off", "no"}) {
    EXPECT_FALSE(env::parseFlag("test", off, true)) << off;
  }
}

TEST(EnvParse, ParseFlagWarnsAndFallsBackOnGarbage) {
  EXPECT_TRUE(env::parseFlag("test", "maybe", true));
  EXPECT_FALSE(env::parseFlag("test", "maybe", false));
  EXPECT_TRUE(env::parseFlag("test", "", true));
}

}  // namespace
}  // namespace sct::core
