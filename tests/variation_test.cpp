// Unit tests for the variation analysis: path convolution (eqs. (5)-(11))
// and the Monte-Carlo path simulator used for the corner and global/local
// studies (Figs. 15-16).

#include <gtest/gtest.h>

#include <cmath>

#include "charlib/characterizer.hpp"
#include "netlist/builder.hpp"
#include "statlib/stat_library.hpp"
#include "sta/sta.hpp"
#include "synth/synthesis.hpp"
#include "test_helpers.hpp"
#include "variation/monte_carlo.hpp"
#include "variation/path_stats.hpp"

namespace sct::variation {
namespace {

// ---------------------------------------------------------- convolution ----

TEST(Convolve, MeanIsSum) {
  const std::vector<double> means = {0.1, 0.2, 0.3};
  EXPECT_NEAR(convolveMean(means), 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(convolveMean({}), 0.0);
}

TEST(Convolve, SigmaRssAtRhoZero) {
  // Eq. (10): sqrt(3^2 + 4^2) = 5.
  const std::vector<double> sigmas = {3.0, 4.0};
  EXPECT_NEAR(convolveSigma(sigmas, 0.0), 5.0, 1e-12);
}

TEST(Convolve, SigmaFullCorrelationIsLinearSum) {
  // rho = 1: sigma adds linearly.
  const std::vector<double> sigmas = {1.0, 2.0, 3.0};
  EXPECT_NEAR(convolveSigma(sigmas, 1.0), 6.0, 1e-12);
}

TEST(Convolve, SigmaIntermediateRhoMatchesEq9) {
  const std::vector<double> sigmas = {1.0, 2.0};
  const double rho = 0.3;
  // var = 1 + 4 + 0.3 * 2 * (1*2) = 6.2
  EXPECT_NEAR(convolveSigma(sigmas, rho), std::sqrt(6.2), 1e-12);
}

TEST(Convolve, SigmaMonotoneInRho) {
  const std::vector<double> sigmas = {0.5, 0.7, 0.9};
  double prev = 0.0;
  for (double rho : {0.0, 0.1, 0.3, 0.7, 1.0}) {
    const double s = convolveSigma(sigmas, rho);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(Convolve, SingleCellPathKeepsItsSigma) {
  EXPECT_NEAR(convolveSigma(std::vector<double>{0.42}, 0.0), 0.42, 1e-12);
  EXPECT_NEAR(convolveSigma(std::vector<double>{0.42}, 0.5), 0.42, 1e-12);
}

TEST(Convolve, DeeperIdenticalPathsGrowAsSqrtN) {
  // Eq. (10) discussion: n identical cells => sigma scales with sqrt(n).
  const std::vector<double> four(4, 0.1);
  const std::vector<double> sixteen(16, 0.1);
  EXPECT_NEAR(convolveSigma(four, 0.0), 0.2, 1e-12);
  EXPECT_NEAR(convolveSigma(sixteen, 0.0), 0.4, 1e-12);
}

// ------------------------------------------------- path/design statistics ----

class PathStatsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    chr_ = new charlib::Characterizer(test::makeSmallCharacterizer());
    lib_ = new liberty::Library(
        chr_->characterizeNominal(charlib::ProcessCorner::typical()));
    const auto mcLibs =
        chr_->characterizeMonteCarlo(charlib::ProcessCorner::typical(), 30, 3);
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

  /// Synthesizes an inverter chain and returns its endpoint worst paths.
  static std::vector<sta::TimingPath> chainPaths(std::size_t depth,
                                                 double period = 8.0) {
    const synth::Synthesizer synth(*lib_);
    sta::ClockSpec clock;
    clock.period = period;
    auto result = synth.run(test::makeInvChain(depth), clock);
    EXPECT_TRUE(result.success());
    static std::vector<synth::SynthesisResult> keepAlive;
    keepAlive.push_back(std::move(result));
    sta::TimingAnalyzer sta(keepAlive.back().design, *lib_, clock);
    EXPECT_TRUE(sta.analyze());
    return sta.endpointWorstPaths();
  }

  static charlib::Characterizer* chr_;
  static liberty::Library* lib_;
  static statlib::StatLibrary* stat_;
};

charlib::Characterizer* PathStatsTest::chr_ = nullptr;
liberty::Library* PathStatsTest::lib_ = nullptr;
statlib::StatLibrary* PathStatsTest::stat_ = nullptr;

TEST_F(PathStatsTest, PathStatsMatchManualConvolution) {
  const auto paths = chainPaths(4);
  const PathStatistics stats(*stat_);
  for (const sta::TimingPath& path : paths) {
    if (path.steps.empty()) continue;
    std::vector<double> means;
    std::vector<double> sigmas;
    for (const sta::PathStep& step : path.steps) {
      const auto s = stats.stepStats(step);
      means.push_back(s.mean);
      sigmas.push_back(s.sigma);
    }
    const PathStats ps = stats.pathStats(path);
    EXPECT_NEAR(ps.mean, convolveMean(means), 1e-12);
    EXPECT_NEAR(ps.sigma, convolveSigma(sigmas, 0.0), 1e-12);
    EXPECT_EQ(ps.depth, path.steps.size());
  }
}

TEST_F(PathStatsTest, StepMeanTracksStaDelay) {
  // The statistical mean of a step should be close to the STA delay (the
  // stat library mean estimates the nominal table).
  const auto paths = chainPaths(6);
  const PathStatistics stats(*stat_);
  for (const sta::TimingPath& path : paths) {
    for (const sta::PathStep& step : path.steps) {
      const auto s = stats.stepStats(step);
      EXPECT_NEAR(s.mean, step.delay, 0.25 * step.delay + 1e-3);
    }
  }
}

TEST_F(PathStatsTest, DeeperChainsHaveLargerSigma) {
  const PathStatistics stats(*stat_);
  auto worstSigma = [&](std::size_t depth) {
    double best = 0.0;
    for (const auto& path : chainPaths(depth)) {
      best = std::max(best, stats.pathStats(path).sigma);
    }
    return best;
  };
  const double s2 = worstSigma(2);
  const double s8 = worstSigma(8);
  const double s32 = worstSigma(32);
  EXPECT_LT(s2, s8);
  EXPECT_LT(s8, s32);
  // Same cells: sigma should grow roughly as sqrt(depth), i.e. much slower
  // than linearly (factor < 4 from depth 2 to 32 once the FF is excluded).
  EXPECT_LT(s32 / s2, 6.0);
}

TEST_F(PathStatsTest, DesignStatsAggregatePerEq11) {
  const auto paths = chainPaths(5);
  const PathStatistics stats(*stat_);
  const DesignStats design = stats.designStats(paths);
  double meanSum = 0.0;
  double varSum = 0.0;
  for (const auto& path : paths) {
    const PathStats ps = stats.pathStats(path);
    meanSum += ps.mean;
    varSum += ps.sigma * ps.sigma;
  }
  EXPECT_NEAR(design.mean, meanSum, 1e-12);
  EXPECT_NEAR(design.sigma, std::sqrt(varSum), 1e-12);
  EXPECT_EQ(design.paths, paths.size());
}

TEST_F(PathStatsTest, RhoRaisesPathSigma) {
  const auto paths = chainPaths(8);
  const PathStatistics independent(*stat_, 0.0);
  const PathStatistics correlated(*stat_, 0.3);
  for (const auto& path : paths) {
    if (path.steps.size() < 2) continue;
    EXPECT_GT(correlated.pathStats(path).sigma,
              independent.pathStats(path).sigma);
  }
}

// ------------------------------------------------------------ Monte Carlo ----

class PathMcTest : public PathStatsTest {
 protected:
  /// Deepest endpoint path (the front() may be a degenerate PI->FF path).
  static const sta::TimingPath& longestOf(
      const std::vector<sta::TimingPath>& paths) {
    const sta::TimingPath* best = &paths.front();
    for (const auto& p : paths) {
      if (p.depth() > best->depth()) best = &p;
    }
    return *best;
  }
};

TEST_F(PathMcTest, DeterministicPerSeed) {
  const auto paths = chainPaths(6);
  const PathMonteCarlo mc(*chr_);
  PathMcConfig config;
  config.trials = 50;
  config.seed = 17;
  const auto a = mc.simulate(longestOf(paths), config);
  const auto b = mc.simulate(longestOf(paths), config);
  EXPECT_EQ(a.samples, b.samples);
}

TEST_F(PathMcTest, NoVariationGivesZeroSigma) {
  const auto paths = chainPaths(6);
  const PathMonteCarlo mc(*chr_);
  PathMcConfig config;
  config.trials = 20;
  config.includeLocal = false;
  config.includeGlobal = false;
  const auto r = mc.simulate(longestOf(paths), config);
  EXPECT_NEAR(r.summary.sigma, 0.0, 1e-12);
  EXPECT_GT(r.summary.mean, 0.0);
}

TEST_F(PathMcTest, McMeanTracksStatisticalMean) {
  const auto paths = chainPaths(10);
  const sta::TimingPath* longest = &paths.front();
  for (const auto& p : paths) {
    if (p.depth() > longest->depth()) longest = &p;
  }
  const PathStatistics stats(*stat_);
  const PathStats predicted = stats.pathStats(*longest);
  const PathMonteCarlo mc(*chr_);
  PathMcConfig config;
  config.trials = 400;
  const auto r = mc.simulate(*longest, config);
  EXPECT_NEAR(r.summary.mean, predicted.mean, 0.05 * predicted.mean);
}

TEST_F(PathMcTest, McSigmaTracksConvolutionPrediction) {
  // The statistical-library + RSS prediction and a direct Monte Carlo of
  // the same path must agree within sampling error (paper validates this
  // within a factor; our model is exact up to estimator noise).
  const auto paths = chainPaths(12);
  const sta::TimingPath* longest = &paths.front();
  for (const auto& p : paths) {
    if (p.depth() > longest->depth()) longest = &p;
  }
  const PathStatistics stats(*stat_);
  const PathStats predicted = stats.pathStats(*longest);
  const PathMonteCarlo mc(*chr_);
  PathMcConfig config;
  config.trials = 2000;
  config.seed = 5;
  const auto r = mc.simulate(*longest, config);
  EXPECT_NEAR(r.summary.sigma, predicted.sigma, 0.35 * predicted.sigma);
}

TEST_F(PathMcTest, CornersScaleMeanAndSigmaTogether) {
  // Fig. 15: moving corners scales mean and sigma by the same factor.
  const auto paths = chainPaths(8);
  const PathMonteCarlo mc(*chr_);
  PathMcConfig config;
  config.trials = 500;
  config.seed = 11;
  config.corner = charlib::ProcessCorner::typical();
  const auto tt = mc.simulate(longestOf(paths), config);
  config.corner = charlib::ProcessCorner::slow();
  const auto ss = mc.simulate(longestOf(paths), config);
  config.corner = charlib::ProcessCorner::fast();
  const auto ff = mc.simulate(longestOf(paths), config);
  EXPECT_NEAR(ss.summary.mean / tt.summary.mean, 1.28, 1e-6);
  EXPECT_NEAR(ff.summary.mean / tt.summary.mean, 0.79, 1e-6);
  EXPECT_NEAR(ss.summary.sigma / tt.summary.sigma, 1.28, 0.05);
  EXPECT_NEAR(ff.summary.sigma / tt.summary.sigma, 0.79, 0.05);
}

TEST_F(PathMcTest, GlobalVariationDominatesDeepPaths) {
  // Fig. 16: the local share of total variation decays with path depth.
  const PathMonteCarlo mc(*chr_);
  auto localShare = [&](std::size_t depth) {
    const auto paths = chainPaths(depth);
    const sta::TimingPath* longest = &paths.front();
    for (const auto& p : paths) {
      if (p.depth() > longest->depth()) longest = &p;
    }
    PathMcConfig localOnly;
    localOnly.trials = 3200;
    localOnly.seed = 23;
    PathMcConfig both = localOnly;
    both.includeGlobal = true;
    const double sigmaLocal = mc.simulate(*longest, localOnly).summary.sigma;
    const double sigmaBoth = mc.simulate(*longest, both).summary.sigma;
    return sigmaLocal / sigmaBoth;
  };
  const double shallow = localShare(3);
  const double deep = localShare(40);
  EXPECT_GT(shallow, deep);
  EXPECT_GT(shallow, 0.4);
  EXPECT_LT(deep, 0.5);
}

TEST_F(PathMcTest, GlobalPlusLocalExceedsLocalOnly) {
  const auto paths = chainPaths(10);
  const PathMonteCarlo mc(*chr_);
  PathMcConfig localOnly;
  localOnly.trials = 600;
  PathMcConfig both = localOnly;
  both.includeGlobal = true;
  const auto l = mc.simulate(longestOf(paths), localOnly);
  const auto b = mc.simulate(longestOf(paths), both);
  EXPECT_GT(b.summary.sigma, l.summary.sigma);
  // Means agree (global factor has mean 1).
  EXPECT_NEAR(b.summary.mean, l.summary.mean, 0.05 * l.summary.mean);
}

TEST_F(PathMcTest, SharedInstancesDrawOncePerDie) {
  // Each instance draws its mismatch once per die, so a prefix and a suffix
  // that together hold a path's steps split every die's delay of the whole
  // path; draws keyed by path would give the three paths unrelated delays.
  const auto paths = chainPaths(8);
  const sta::TimingPath& whole = longestOf(paths);
  ASSERT_GE(whole.depth(), 4u);
  sta::TimingPath head = whole;
  head.steps.resize(whole.depth() / 2);
  sta::TimingPath tail = whole;
  tail.steps.erase(tail.steps.begin(),
                   tail.steps.begin() +
                       static_cast<std::ptrdiff_t>(head.depth()));
  PathMcConfig config;
  config.trials = 64;
  config.includeGlobal = true;
  config.seed = 3;
  const std::vector<sta::TimingPath> split{whole, head, tail};
  const std::vector<double> delay = sampleDieDelays(*chr_, split, config);
  ASSERT_EQ(delay.size(), 3 * config.trials);
  const std::size_t n = config.trials;
  for (std::size_t t = 0; t < n; ++t) {
    EXPECT_NEAR(delay[t], delay[n + t] + delay[2 * n + t], 1e-9 * delay[t])
        << "die " << t;
  }
  // simulate is the one-path caller of the same sampler.
  const std::vector<double> wholeRow(
      delay.begin(), delay.begin() + static_cast<std::ptrdiff_t>(n));
  EXPECT_EQ(PathMonteCarlo(*chr_).simulate(whole, config).samples, wholeRow);
}

}  // namespace
}  // namespace sct::variation
