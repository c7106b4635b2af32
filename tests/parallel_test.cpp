// Tests for the parallel execution layer: primitive correctness (coverage,
// ordering, exceptions, nesting) and the determinism contract — serial and
// multi-threaded runs of the Monte-Carlo characterization, stat-library
// merge, library tuning, path Monte Carlo, design power, design path
// statistics, synthesis, endpoint path tracing and the flow report must
// agree bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "charlib/characterizer.hpp"
#include "clocktree/clock_tree.hpp"
#include "core/flow_job.hpp"
#include "netlist/builder.hpp"
#include "netlist/random.hpp"
#include "netlist/verilog_io.hpp"
#include "numeric/rng.hpp"
#include "numeric/statistics.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel.hpp"
#include "postsi/buffer_sampling.hpp"
#include "postsi/clock_tuning.hpp"
#include "power/power_stats.hpp"
#include "statlib/stat_library.hpp"
#include "sta/sta.hpp"
#include "synth/synthesis.hpp"
#include "test_helpers.hpp"
#include "tuning/restriction.hpp"
#include "variation/monte_carlo.hpp"
#include "variation/path_stats.hpp"

namespace sct {
namespace {

/// Restores the previous thread count when a test scope ends so suites do
/// not leak pool configuration into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : previous_(parallel::threadCount()) {
    parallel::setThreadCount(n);
  }
  ~ScopedThreads() { parallel::setThreadCount(previous_); }

 private:
  std::size_t previous_;
};

// ------------------------------------------------------------ primitives ----

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    const ScopedThreads scope(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel::parallelFor(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  const ScopedThreads scope(4);
  bool touched = false;
  parallel::parallelFor(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, PropagatesExceptions) {
  const ScopedThreads scope(4);
  EXPECT_THROW(
      parallel::parallelFor(
          100,
          [](std::size_t i) {
            if (i == 57) throw std::runtime_error("boom");
          },
          /*grain=*/1),
      std::runtime_error);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  const ScopedThreads scope(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  parallel::parallelFor(
      64,
      [&](std::size_t outer) {
        parallel::parallelFor(16, [&](std::size_t inner) {
          hits[outer * 16 + inner].fetch_add(1);
        });
      },
      /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, PreservesElementOrder) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
    const ScopedThreads scope(threads);
    const std::vector<std::size_t> out = parallel::parallelMap(
        500, [](std::size_t i) { return i * i; }, /*grain=*/3);
    ASSERT_EQ(out.size(), 500u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  std::vector<double> xs(10000);
  numeric::Rng rng(3);
  for (double& x : xs) x = rng.normal(1.0, 0.25);

  auto reduce = [&] {
    return parallel::parallelReduce(
        xs.size(), numeric::RunningStats{},
        [&](numeric::RunningStats& acc, std::size_t i) { acc.add(xs[i]); },
        [](numeric::RunningStats& acc, const numeric::RunningStats& other) {
          acc.merge(other);
        });
  };
  const ScopedThreads serial(0);
  const numeric::RunningStats a = reduce();
  {
    const ScopedThreads threaded(8);
    const numeric::RunningStats b = reduce();
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());  // exact: identical combination order
    EXPECT_EQ(a.stddev(), b.stddev());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }
}

TEST(ThreadSpec, ParsesEnvironmentValues) {
  EXPECT_EQ(parallel::parseThreadSpec("", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("auto", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("serial", 6), 0u);
  EXPECT_EQ(parallel::parseThreadSpec("0", 6), 0u);
  EXPECT_EQ(parallel::parseThreadSpec("12", 6), 12u);
  EXPECT_EQ(parallel::parseThreadSpec("not-a-number", 6), 6u);
}

TEST(ThreadSpec, RejectsGarbageAndOverflow) {
  // Garbage of every shape falls back instead of silently mis-parsing.
  EXPECT_EQ(parallel::parseThreadSpec("-4", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("+4", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("4.5", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec(" 8", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("8 ", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("0x10", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("12cores", 6), 6u);
  // Counts beyond any sane pool size — including values that would overflow
  // the accumulating u64 — are treated as invalid, not as huge requests.
  EXPECT_EQ(parallel::parseThreadSpec("4096", 6), parallel::kMaxThreadSpec);
  EXPECT_EQ(parallel::parseThreadSpec("4097", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("99999999999999999999999999", 6), 6u);
  EXPECT_EQ(parallel::parseThreadSpec("18446744073709551616", 6), 6u);
}

// ----------------------------------------------------------- determinism ----

/// Shared fixtures characterized once per thread-count under test.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static charlib::Characterizer characterizer() {
    return test::makeSmallCharacterizer();
  }

  static bool lutsEqual(const liberty::Lut& a, const liberty::Lut& b) {
    if (!a.sameShape(b)) return false;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        if (a.at(r, c) != b.at(r, c)) return false;
      }
    }
    return true;
  }
};

TEST_F(ParallelDeterminismTest, MonteCarloLibrariesBitIdentical) {
  const charlib::Characterizer chr = characterizer();
  const auto run = [&] {
    return chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 12,
                                      7);
  };
  std::vector<liberty::Library> serial;
  {
    const ScopedThreads scope(1);
    serial = run();
  }
  const ScopedThreads scope(8);
  const std::vector<liberty::Library> threaded = run();
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k].name(), threaded[k].name());
    const auto cellsA = serial[k].cells();
    const auto cellsB = threaded[k].cells();
    ASSERT_EQ(cellsA.size(), cellsB.size());
    for (std::size_t i = 0; i < cellsA.size(); ++i) {
      ASSERT_EQ(cellsA[i]->arcs().size(), cellsB[i]->arcs().size());
      for (std::size_t a = 0; a < cellsA[i]->arcs().size(); ++a) {
        EXPECT_TRUE(lutsEqual(cellsA[i]->arcs()[a].riseDelay,
                              cellsB[i]->arcs()[a].riseDelay));
        EXPECT_TRUE(lutsEqual(cellsA[i]->arcs()[a].fallDelay,
                              cellsB[i]->arcs()[a].fallDelay));
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, StatLibraryBitIdentical) {
  const charlib::Characterizer chr = characterizer();
  const auto build = [&] {
    const auto libs =
        chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 10, 11);
    return statlib::buildStatLibrary(libs);
  };
  const ScopedThreads serialScope(1);
  const statlib::StatLibrary serial = build();
  parallel::setThreadCount(8);
  const statlib::StatLibrary threaded = build();

  const auto cellsA = serial.cells();
  const auto cellsB = threaded.cells();
  ASSERT_EQ(cellsA.size(), cellsB.size());
  for (std::size_t i = 0; i < cellsA.size(); ++i) {
    EXPECT_EQ(cellsA[i]->name(), cellsB[i]->name());
    ASSERT_EQ(cellsA[i]->arcs().size(), cellsB[i]->arcs().size());
    for (std::size_t a = 0; a < cellsA[i]->arcs().size(); ++a) {
      const statlib::StatArc& arcA = cellsA[i]->arcs()[a];
      const statlib::StatArc& arcB = cellsB[i]->arcs()[a];
      for (std::size_t r = 0; r < arcA.rise.rows(); ++r) {
        for (std::size_t c = 0; c < arcA.rise.cols(); ++c) {
          EXPECT_EQ(arcA.rise.mean().at(r, c), arcB.rise.mean().at(r, c));
          EXPECT_EQ(arcA.rise.sigma().at(r, c), arcB.rise.sigma().at(r, c));
          EXPECT_EQ(arcA.fall.mean().at(r, c), arcB.fall.mean().at(r, c));
          EXPECT_EQ(arcA.fall.sigma().at(r, c), arcB.fall.sigma().at(r, c));
        }
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, TuningWindowsBitIdentical) {
  const charlib::Characterizer chr = characterizer();
  const auto libs =
      chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 10, 13);
  const statlib::StatLibrary stat = statlib::buildStatLibrary(libs);

  for (const tuning::TuningMethod method :
       {tuning::TuningMethod::kSigmaCeiling,
        tuning::TuningMethod::kCellStrengthLoadSlope,
        tuning::TuningMethod::kCellSlewSlope}) {
    const tuning::TuningConfig config =
        tuning::TuningConfig::forMethod(method, 0.02);
    const ScopedThreads serialScope(1);
    const tuning::LibraryConstraints serial =
        tuning::tuneLibrary(stat, config);
    parallel::setThreadCount(8);
    const tuning::LibraryConstraints threaded =
        tuning::tuneLibrary(stat, config);

    ASSERT_EQ(serial.size(), threaded.size());
    auto itA = serial.cells().begin();
    auto itB = threaded.cells().begin();
    for (; itA != serial.cells().end(); ++itA, ++itB) {
      EXPECT_EQ(itA->first, itB->first);
      EXPECT_EQ(itA->second.sigmaThreshold, itB->second.sigmaThreshold);
      ASSERT_EQ(itA->second.pinWindows.size(), itB->second.pinWindows.size());
      auto winA = itA->second.pinWindows.begin();
      auto winB = itB->second.pinWindows.begin();
      for (; winA != itA->second.pinWindows.end(); ++winA, ++winB) {
        EXPECT_EQ(winA->first, winB->first);
        EXPECT_EQ(winA->second.minSlew, winB->second.minSlew);
        EXPECT_EQ(winA->second.maxSlew, winB->second.maxSlew);
        EXPECT_EQ(winA->second.minLoad, winB->second.minLoad);
        EXPECT_EQ(winA->second.maxLoad, winB->second.maxLoad);
      }
    }
  }
}

/// `width` independent FF -> INV x depth -> FF chains: enough instances and
/// endpoints that the per-instance and per-path maps span several chunks.
netlist::Design makeParallelChains(std::size_t width, std::size_t depth) {
  netlist::Design design("chains");
  netlist::NetlistBuilder b(design);
  for (std::size_t w = 0; w < width; ++w) {
    const netlist::NetIndex in = b.inputPort("din" + std::to_string(w));
    netlist::NetIndex node = b.dff(in, netlist::PrimOp::kDff);
    for (std::size_t i = 0; i < depth; ++i) node = b.inv(node);
    b.outputPort("dout" + std::to_string(w),
                 b.dff(node, netlist::PrimOp::kDff));
  }
  return design;
}

/// The serial analyzeDesignPower loop the pooled version replaced: forks
/// each counted instance's stream and draws its samples in one pass. Kept
/// as the oracle for the fork order.
power::DesignPower serialDesignPowerOracle(
    const netlist::Design& design, const sta::TimingAnalyzer& sta,
    const charlib::Characterizer& characterizer,
    const power::PowerModel& model, double activity, std::size_t samples,
    std::uint64_t seed) {
  power::DesignPower out;
  const double period = sta.clock().period;
  numeric::Rng master(seed);
  double varSum = 0.0;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst =
        design.instance(static_cast<netlist::InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    const charlib::CellSpec* spec =
        characterizer.specs().find(inst.cell->name());
    if (spec == nullptr) continue;
    double slew = sta.clock().clockSlew;
    for (netlist::NetIndex in : inst.inputs) {
      slew = std::max(slew, sta.netSlew(in));
    }
    double load = 0.0;
    for (netlist::NetIndex outNet : inst.outputs) {
      load += sta.netLoad(outNet);
    }
    numeric::Rng instRng = master.fork(numeric::Rng::hashTag(inst.name));
    numeric::RunningStats energy;
    for (std::size_t k = 0; k < samples; ++k) {
      energy.add(model.transitionEnergy(
          *spec, slew, load, characterizer.model().drawLocal(*spec, instRng)));
    }
    const double toPower = activity / period;
    out.meanPower += energy.mean() * toPower;
    const double sigmaPower = energy.stddev() * toPower;
    varSum += sigmaPower * sigmaPower;
    ++out.cells;
  }
  out.sigmaPower = std::sqrt(varSum);
  return out;
}

/// A mapped, analyzed multi-chunk design for the measurement kernels,
/// built once on first use.
struct MeasuredChains {
  charlib::Characterizer chr = test::makeSmallCharacterizer();
  liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  statlib::StatLibrary stat = statlib::buildStatLibrary(
      chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 6, 17));
  sta::ClockSpec clock = [] {
    sta::ClockSpec c;
    c.period = 8.0;
    return c;
  }();
  synth::SynthesisResult result =
      synth::Synthesizer(lib).run(makeParallelChains(48, 6), clock);
  /// A second, differently shaped design.
  synth::SynthesisResult other =
      synth::Synthesizer(lib).run(makeParallelChains(20, 9), clock);
  /// A bound cell the characterizer's catalogue does not know.
  liberty::Cell outside = test::makeSimpleCell(
      "OUTSIDE_1", liberty::CellFunction::kInv, 1.0, 1.0, 0.001, 0.010, 0.1,
      4.0);
};

const MeasuredChains& measuredChains() {
  static const MeasuredChains chains;
  return chains;
}

power::DesignPower designPower(const MeasuredChains& m,
                               const netlist::Design& design) {
  sta::TimingAnalyzer sta(design, m.lib, m.clock);
  EXPECT_TRUE(sta.analyze());
  const power::PowerModel model(m.chr.model());
  power::DrawTable draws(50, 7);
  return power::analyzeDesignPower(design, sta, m.chr, model, 0.2, draws);
}

TEST_F(ParallelDeterminismTest, DesignPowerBitIdentical) {
  const MeasuredChains& m = measuredChains();
  ASSERT_TRUE(m.result.success());
  const netlist::Design& design = m.result.design;
  ASSERT_GT(design.gateCount(), 4 * parallel::defaultGrain(design.gateCount()));
  power::DesignPower serial;
  {
    const ScopedThreads scope(0);
    serial = designPower(m, design);
  }
  const ScopedThreads scope(8);
  const power::DesignPower threaded = designPower(m, design);
  EXPECT_GT(serial.cells, 0u);
  EXPECT_EQ(serial.cells, threaded.cells);
  EXPECT_EQ(serial.meanPower, threaded.meanPower);
  EXPECT_EQ(serial.sigmaPower, threaded.sigmaPower);
}

/// The chains with dead instances and cells outside the catalogue early in
/// the instance order: every later counted position shifts, so a table
/// filled from the intact chains holds other tags there. `uncatalogued`
/// receives the number of instances moved outside the catalogue.
netlist::Design withEarlyGaps(const MeasuredChains& m,
                              std::size_t& uncatalogued) {
  netlist::Design design = m.result.design;
  std::size_t dead = 0;
  uncatalogued = 0;
  for (std::size_t i = 0; i < design.instanceCount() && i < 24; ++i) {
    netlist::Instance& inst =
        design.instance(static_cast<netlist::InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    if (i % 3 == 0) {
      inst.alive = false;
      ++dead;
    } else if (i % 3 == 1) {
      inst.cell = &m.outside;
      ++uncatalogued;
    }
  }
  EXPECT_GT(dead, 0u);
  EXPECT_GT(uncatalogued, 0u);
  return design;
}

/// The chains plus `count` inverters appended at the end of the instance
/// order, each driving a fresh net from the first inverter's input.
netlist::Design withAppendedInverters(const MeasuredChains& m,
                                      std::size_t count) {
  netlist::Design design = m.result.design;
  const netlist::Instance* inverter = nullptr;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst =
        design.instance(static_cast<netlist::InstIndex>(i));
    if (inst.alive && inst.cell != nullptr && inst.op == netlist::PrimOp::kInv) {
      inverter = &inst;
      break;
    }
  }
  EXPECT_NE(inverter, nullptr);
  const netlist::NetIndex input = inverter->inputs.front();
  const liberty::Cell* cell = inverter->cell;
  for (std::size_t k = 0; k < count; ++k) {
    const netlist::NetIndex out =
        design.addNet("appended_net" + std::to_string(k));
    design.bindCell(design.addInstance("appended_inv" + std::to_string(k),
                                       netlist::PrimOp::kInv, {input}, {out}),
                    cell);
  }
  return design;
}

/// Power of `design` (analyzed by `sta`) through `draws` equals the serial
/// oracle at the table's samples and seed, bit for bit.
void expectOraclePower(const MeasuredChains& m, const netlist::Design& design,
                       const sta::TimingAnalyzer& sta,
                       power::DrawTable& draws) {
  const power::PowerModel model(m.chr.model());
  const power::DesignPower expected = serialDesignPowerOracle(
      design, sta, m.chr, model, 0.2, draws.samples(), draws.seed());
  const power::DesignPower pooled =
      power::analyzeDesignPower(design, sta, m.chr, model, 0.2, draws);
  EXPECT_GT(expected.cells, 0u);
  EXPECT_EQ(pooled.cells, expected.cells);
  EXPECT_EQ(pooled.meanPower, expected.meanPower);
  EXPECT_EQ(pooled.sigmaPower, expected.sigmaPower);
}

TEST_F(ParallelDeterminismTest, DesignPowerMatchesSerialOracle) {
  // Dead instances and cells outside the catalogue early in the instance
  // order: if either consumed a fork, every later stream would shift.
  const MeasuredChains& m = measuredChains();
  std::size_t uncatalogued = 0;
  const netlist::Design design = withEarlyGaps(m, uncatalogued);
  sta::TimingAnalyzer sta(m.result.design, m.lib, m.clock);
  ASSERT_TRUE(sta.analyze());
  const power::PowerModel model(m.chr.model());
  EXPECT_EQ(serialDesignPowerOracle(design, sta, m.chr, model, 0.2, 50, 7)
                .cells,
            design.gateCount() - uncatalogued);
  for (std::size_t threads : {0, 1, 4, 8}) {
    const ScopedThreads scope(threads);
    power::DrawTable cold(50, 7);
    expectOraclePower(m, design, sta, cold);
    EXPECT_EQ(cold.size(), design.gateCount() - uncatalogued);
  }
}

struct DrawCounts {
  std::uint64_t reused = 0;
  std::uint64_t drawn = 0;
};

/// Turns metrics on for one test and restores the previous setting.
struct ScopedMetrics {
  bool previous = obs::metricsEnabled();
  ScopedMetrics() { obs::setMetricsEnabled(true); }
  ~ScopedMetrics() { obs::setMetricsEnabled(previous); }
};

DrawCounts drawCounts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  return {registry.counter("power.draws.reused").value(),
          registry.counter("power.draws.drawn").value()};
}

TEST_F(ParallelDeterminismTest, DesignPowerWarmTableMatchesSerialOracle) {
  const ScopedMetrics metrics;
  const MeasuredChains& m = measuredChains();
  ASSERT_TRUE(m.other.success());
  const netlist::Design& chains = m.result.design;
  std::size_t uncatalogued = 0;
  const netlist::Design gapped = withEarlyGaps(m, uncatalogued);
  const netlist::Design appended = withAppendedInverters(m, 5);
  sta::TimingAnalyzer chainsSta(chains, m.lib, m.clock);
  sta::TimingAnalyzer otherSta(m.other.design, m.lib, m.clock);
  sta::TimingAnalyzer appendedSta(appended, m.lib, m.clock);
  ASSERT_TRUE(chainsSta.analyze());
  ASSERT_TRUE(otherSta.analyze());
  ASSERT_TRUE(appendedSta.analyze());
  const std::size_t positions = chains.gateCount();

  for (std::size_t threads : {0, 1, 4, 8}) {
    const ScopedThreads scope(threads);
    // Warmed by another design, in both orders.
    power::DrawTable draws(50, 7);
    expectOraclePower(m, m.other.design, otherSta, draws);
    expectOraclePower(m, chains, chainsSta, draws);
    expectOraclePower(m, m.other.design, otherSta, draws);
    EXPECT_EQ(draws.size(), std::max(positions, m.other.design.gateCount()));

    // Shifted positions read none of the chains' draws and replace none.
    power::DrawTable shifted(50, 7);
    expectOraclePower(m, chains, chainsSta, shifted);
    DrawCounts before = drawCounts();
    expectOraclePower(m, gapped, chainsSta, shifted);
    EXPECT_EQ(drawCounts().reused - before.reused, 0u);
    EXPECT_EQ(shifted.size(), positions);
    before = drawCounts();
    expectOraclePower(m, chains, chainsSta, shifted);
    EXPECT_EQ(drawCounts().reused - before.reused, positions);
    EXPECT_EQ(drawCounts().drawn - before.drawn, 0u);

    // Appended instances draw and store only the new positions.
    power::DrawTable grown(50, 7);
    expectOraclePower(m, chains, chainsSta, grown);
    before = drawCounts();
    expectOraclePower(m, appended, appendedSta, grown);
    EXPECT_EQ(drawCounts().reused - before.reused, positions);
    EXPECT_EQ(drawCounts().drawn - before.drawn, 5u);
    EXPECT_EQ(grown.size(), positions + 5);
    expectOraclePower(m, chains, chainsSta, grown);
  }
}

TEST_F(ParallelDeterminismTest, DesignPowerReadOnlyTableStoresNothing) {
  // Through a const table design power reads what the table holds, draws
  // the rest and stores nothing; the results equal the serial oracle's.
  const ScopedMetrics metrics;
  const MeasuredChains& m = measuredChains();
  const netlist::Design& chains = m.result.design;
  const netlist::Design appended = withAppendedInverters(m, 5);
  sta::TimingAnalyzer chainsSta(chains, m.lib, m.clock);
  sta::TimingAnalyzer appendedSta(appended, m.lib, m.clock);
  ASSERT_TRUE(chainsSta.analyze());
  ASSERT_TRUE(appendedSta.analyze());
  const power::PowerModel model(m.chr.model());
  const std::size_t positions = chains.gateCount();
  for (std::size_t threads : {0, 1, 4, 8}) {
    const ScopedThreads scope(threads);
    power::DrawTable draws(50, 7);
    const auto readOnly = [&](const netlist::Design& design,
                              const sta::TimingAnalyzer& sta) {
      const power::DesignPower expected = serialDesignPowerOracle(
          design, sta, m.chr, model, 0.2, draws.samples(), draws.seed());
      const power::DesignPower read = power::analyzeDesignPower(
          design, sta, m.chr, model, 0.2, std::as_const(draws));
      EXPECT_EQ(read.cells, expected.cells);
      EXPECT_EQ(read.meanPower, expected.meanPower);
      EXPECT_EQ(read.sigmaPower, expected.sigmaPower);
    };
    readOnly(chains, chainsSta);  // cold
    EXPECT_EQ(draws.size(), 0u);
    expectOraclePower(m, chains, chainsSta, draws);
    ASSERT_EQ(draws.size(), positions);
    const DrawCounts before = drawCounts();
    readOnly(appended, appendedSta);  // warm: reads all, draws the new 5
    EXPECT_EQ(drawCounts().reused - before.reused, positions);
    EXPECT_EQ(drawCounts().drawn - before.drawn, 5u);
    EXPECT_EQ(draws.size(), positions);
  }
}

TEST_F(ParallelDeterminismTest, DesignPowerTableSharedByConcurrentDesigns) {
  // Two callers measure different designs through one table at once, as
  // evolve's candidates do through their flow's table.
  const MeasuredChains& m = measuredChains();
  std::size_t uncatalogued = 0;
  const netlist::Design gapped = withEarlyGaps(m, uncatalogued);
  sta::TimingAnalyzer chainsSta(m.result.design, m.lib, m.clock);
  sta::TimingAnalyzer otherSta(m.other.design, m.lib, m.clock);
  ASSERT_TRUE(chainsSta.analyze());
  ASSERT_TRUE(otherSta.analyze());
  for (std::size_t threads : {0, 1, 4, 8}) {
    const ScopedThreads scope(threads);
    power::DrawTable draws(50, 7);
    for (int round = 0; round < 2; ++round) {  // cold, then warm
      std::thread first(
          [&] { expectOraclePower(m, m.result.design, chainsSta, draws); });
      std::thread second(
          [&] { expectOraclePower(m, m.other.design, otherSta, draws); });
      expectOraclePower(m, gapped, chainsSta, draws);
      first.join();
      second.join();
    }
    EXPECT_EQ(draws.size(), std::max(m.result.design.gateCount(),
                                     m.other.design.gateCount()));
  }
}

TEST_F(ParallelDeterminismTest, DesignPowerWithoutTableSharesProcessDraws) {
  // The (samples, seed) entry point keeps one table per pair for the
  // process: a second call reads every position, and its results equal a
  // private table's.
  const ScopedMetrics metrics;
  const MeasuredChains& m = measuredChains();
  sta::TimingAnalyzer sta(m.result.design, m.lib, m.clock);
  ASSERT_TRUE(sta.analyze());
  const power::PowerModel model(m.chr.model());
  power::DrawTable draws(40, 11);
  const power::DesignPower expected = power::analyzeDesignPower(
      m.result.design, sta, m.chr, model, 0.2, draws);
  for (int call = 0; call < 2; ++call) {
    const DrawCounts before = drawCounts();
    const power::DesignPower shared = power::analyzeDesignPower(
        m.result.design, sta, m.chr, model, 0.2, 40, 11);
    if (call == 1) {
      EXPECT_EQ(drawCounts().reused - before.reused, expected.cells);
    }
    EXPECT_EQ(shared.cells, expected.cells);
    EXPECT_EQ(shared.meanPower, expected.meanPower);
    EXPECT_EQ(shared.sigmaPower, expected.sigmaPower);
  }
}

TEST_F(ParallelDeterminismTest, PathMonteCarloBitIdentical) {
  const charlib::Characterizer chr = characterizer();
  const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  const synth::Synthesizer synth(lib);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const synth::SynthesisResult result =
      synth.run(test::makeInvChain(12), clock);
  ASSERT_TRUE(result.success());
  sta::TimingAnalyzer sta(result.design, lib, clock);
  ASSERT_TRUE(sta.analyze());
  const auto paths = sta.endpointWorstPaths();
  const sta::TimingPath* longest = &paths.front();
  for (const auto& p : paths) {
    if (p.depth() > longest->depth()) longest = &p;
  }

  const variation::PathMonteCarlo mc(chr);
  variation::PathMcConfig config;
  config.trials = 300;
  config.seed = 2014;
  for (const bool includeGlobal : {false, true}) {
    config.includeGlobal = includeGlobal;
    const ScopedThreads serialScope(1);
    const variation::PathMcResult serial = mc.simulate(*longest, config);
    parallel::setThreadCount(8);
    const variation::PathMcResult threaded = mc.simulate(*longest, config);
    EXPECT_EQ(serial.samples, threaded.samples);
    EXPECT_EQ(serial.summary.mean, threaded.summary.mean);
    EXPECT_EQ(serial.summary.sigma, threaded.summary.sigma);
  }

  // The post-silicon callers of the same sampler, on a reconvergent design
  // at a period inside its per-die delay spread (yields strictly between 0
  // and 1, several buffer candidates).
  const MeasuredChains& m = measuredChains();
  netlist::RandomDagConfig dag;
  dag.scale = 3;
  dag.seed = 11;
  const synth::SynthesisResult mapped =
      synth::Synthesizer(m.lib).run(netlist::generateRandomDag(dag), m.clock);
  ASSERT_TRUE(mapped.success());
  sta::ClockSpec tight = m.clock;
  {
    sta::TimingAnalyzer relaxed(mapped.design, m.lib, m.clock);
    ASSERT_TRUE(relaxed.analyze());
    tight.period = m.clock.period - relaxed.worstSlack();
  }
  sta::TimingAnalyzer tightSta(mapped.design, m.lib, tight);
  ASSERT_TRUE(tightSta.analyze());
  const std::vector<sta::TimingPath> tightPaths = tightSta.endpointWorstPaths();
  postsi::ClockTuningConfig tuning;
  tuning.element = clocktree::TuningElementSpec{0.0, 0.3, 0.05, 2.0};
  tuning.trials = 96;
  ASSERT_GT(tuning.trials, 2 * parallel::defaultGrain(tuning.trials));
  postsi::BufferSamplingOptions buffering;
  buffering.trials = 96;

  postsi::ClockTuningResult tunedRef;
  postsi::BufferSamplingResult bufferedRef;
  {
    const ScopedThreads scope(0);
    tunedRef =
        postsi::computeClockTuning(m.chr, mapped.design, tightPaths, tuning);
    bufferedRef = postsi::sampleBufferInsertion(mapped.design, m.lib, m.stat,
                                                m.chr, tight, nullptr,
                                                buffering);
  }
  EXPECT_GT(tunedRef.designYieldBefore, 0.0);
  EXPECT_LT(tunedRef.designYieldBefore, 1.0);
  EXPECT_GT(bufferedRef.evaluated, 1u);
  for (const std::size_t threads : {1, 4, 8}) {
    const ScopedThreads scope(threads);
    const postsi::ClockTuningResult tuned =
        postsi::computeClockTuning(m.chr, mapped.design, tightPaths, tuning);
    EXPECT_EQ(tuned.designYieldBefore, tunedRef.designYieldBefore);
    EXPECT_EQ(tuned.designYieldAfter, tunedRef.designYieldAfter);
    ASSERT_EQ(tuned.registers.size(), tunedRef.registers.size());
    for (std::size_t r = 0; r < tuned.registers.size(); ++r) {
      const postsi::RegisterTuning& a = tuned.registers[r];
      const postsi::RegisterTuning& b = tunedRef.registers[r];
      EXPECT_EQ(a.slackMean, b.slackMean) << a.instance;
      EXPECT_EQ(a.slackSigma, b.slackSigma) << a.instance;
      EXPECT_EQ(a.assignMean, b.assignMean) << a.instance;
      EXPECT_EQ(a.assignSigma, b.assignSigma) << a.instance;
      EXPECT_EQ(a.assignMax, b.assignMax) << a.instance;
    }
    const postsi::BufferSamplingResult buffered =
        postsi::sampleBufferInsertion(mapped.design, m.lib, m.stat, m.chr,
                                      tight, nullptr, buffering);
    EXPECT_EQ(buffered.evaluated, bufferedRef.evaluated);
    EXPECT_EQ(buffered.inserted, bufferedRef.inserted);
    EXPECT_EQ(buffered.yieldBefore, bufferedRef.yieldBefore);
    EXPECT_EQ(buffered.yieldAfter, bufferedRef.yieldAfter);
    EXPECT_EQ(buffered.worstPathSigmaAfter, bufferedRef.worstPathSigmaAfter);
    EXPECT_EQ(buffered.design.instanceCount(),
              bufferedRef.design.instanceCount());
  }
}

TEST_F(ParallelDeterminismTest, DesignStatsBitIdentical) {
  const MeasuredChains& m = measuredChains();
  ASSERT_TRUE(m.result.success());
  sta::TimingAnalyzer sta(m.result.design, m.lib, m.clock);
  ASSERT_TRUE(sta.analyze());
  const std::vector<sta::TimingPath> paths = sta.endpointWorstPaths();
  ASSERT_GT(paths.size(), 2 * parallel::defaultGrain(paths.size()));
  const variation::PathStatistics stats(m.stat);

  std::vector<variation::PathStats> serialPaths;
  variation::DesignStats serial;
  {
    const ScopedThreads scope(0);
    serialPaths = stats.allPathStats(paths);
    serial = stats.designStats(paths);
  }
  const ScopedThreads scope(8);
  const std::vector<variation::PathStats> threadedPaths =
      stats.allPathStats(paths);
  const variation::DesignStats threaded = stats.designStats(paths);

  ASSERT_EQ(serialPaths.size(), paths.size());
  ASSERT_EQ(threadedPaths.size(), paths.size());
  double mean = 0.0;
  double varSum = 0.0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const variation::PathStats oracle = stats.pathStats(paths[i]);
    EXPECT_EQ(threadedPaths[i].depth, oracle.depth);
    EXPECT_EQ(threadedPaths[i].mean, oracle.mean);
    EXPECT_EQ(threadedPaths[i].sigma, oracle.sigma);
    EXPECT_EQ(serialPaths[i].sigma, oracle.sigma);
    mean += oracle.mean;
    varSum += oracle.sigma * oracle.sigma;
  }
  // Eq. (11), folded serially in endpoint order.
  EXPECT_EQ(serial.paths, paths.size());
  EXPECT_EQ(threaded.paths, paths.size());
  EXPECT_EQ(serial.mean, mean);
  EXPECT_EQ(threaded.mean, mean);
  EXPECT_EQ(serial.sigma, std::sqrt(varSum));
  EXPECT_EQ(threaded.sigma, std::sqrt(varSum));
}

TEST_F(ParallelDeterminismTest, AllPathStatsMatchesPerPathLoop) {
  // The worst paths of a reconvergent design share most of their steps.
  // k-worst paths add other arcs of the same instances, and copies of worst
  // paths with one step moved to another operating point share instance
  // and arc but not the values. allPathStats, which evaluates each distinct
  // step once, must equal the per-path loop bit for bit.
  const MeasuredChains& m = measuredChains();
  netlist::RandomDagConfig config;
  config.scale = 3;
  config.seed = 11;
  const synth::SynthesisResult result =
      synth::Synthesizer(m.lib).run(netlist::generateRandomDag(config),
                                    m.clock);
  sta::TimingAnalyzer sta(result.design, m.lib, m.clock);
  ASSERT_TRUE(sta.analyze());
  std::vector<sta::TimingPath> paths = sta.endpointWorstPaths();
  const std::size_t worst = paths.size();
  for (std::size_t e = 0; e < sta.endpoints().size(); e += 5) {
    for (sta::TimingPath& path : sta.kWorstPathsTo(sta.endpoints()[e], 3)) {
      paths.push_back(std::move(path));
    }
  }
  std::size_t moved = 0;
  for (std::size_t i = 0; i < worst; i += 3) {
    if (paths[i].steps.empty()) continue;
    sta::TimingPath copy = paths[i];
    sta::PathStep& step = copy.steps[copy.steps.size() / 2];
    if (i % 2 == 0) {
      step.load *= 1.5;
    } else {
      step.inputSlew *= 1.5;
    }
    paths.push_back(std::move(copy));
    ++moved;
  }
  ASSERT_GT(moved, 0u);
  ASSERT_GT(paths.size(), 2 * parallel::defaultGrain(paths.size()));

  std::set<std::pair<netlist::InstIndex, const liberty::TimingArc*>> distinct;
  std::size_t steps = 0;
  for (const sta::TimingPath& path : paths) {
    for (const sta::PathStep& step : path.steps) {
      distinct.emplace(step.instance, step.arc);
      ++steps;
    }
  }
  EXPECT_LT(distinct.size() * 2, steps) << "the paths share too few steps";

  const variation::PathStatistics stats(m.stat, 0.3);
  std::vector<variation::PathStats> oracle;
  for (const sta::TimingPath& path : paths) {
    oracle.push_back(stats.pathStats(path));
  }
  for (std::size_t threads : {0, 1, 4, 8}) {
    const ScopedThreads scope(threads);
    const std::vector<variation::PathStats> all = stats.allPathStats(paths);
    ASSERT_EQ(all.size(), paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_EQ(all[i].depth, oracle[i].depth) << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(all[i].mean),
                std::bit_cast<std::uint64_t>(oracle[i].mean))
          << "path " << i << " at " << threads << " threads";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(all[i].sigma),
                std::bit_cast<std::uint64_t>(oracle[i].sigma))
          << "path " << i << " at " << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminismTest, SynthesisBitIdentical) {
  // The sizing stages decide on the pool and commit serially; the mapped
  // netlist and every figure must not depend on the thread count. The
  // design spans several decide chunks; strength-slew 0.01 is the
  // split-heavy configuration.
  const charlib::Characterizer chr = characterizer();
  const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  const statlib::StatLibrary stat = statlib::buildStatLibrary(
      chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 8, 7));
  const tuning::LibraryConstraints sigmaCeiling = tuning::tuneLibrary(
      stat, tuning::TuningConfig::forMethod(
                tuning::TuningMethod::kSigmaCeiling, 0.02));
  const tuning::LibraryConstraints strengthSlew = tuning::tuneLibrary(
      stat, tuning::TuningConfig::forMethod(
                tuning::TuningMethod::kCellStrengthSlewSlope, 0.01));
  netlist::RandomDagConfig config;
  config.gates = 1500;
  config.flipFlops = 75;
  config.seed = 3;
  const netlist::Design subject = netlist::generateRandomDag(config);

  for (const tuning::LibraryConstraints* constraints :
       {static_cast<const tuning::LibraryConstraints*>(nullptr),
        &sigmaCeiling, &strengthSlew}) {
    const synth::Synthesizer synth(lib, constraints);
    // 2.0 ns keeps timing upsizes running; at 3.0 ns timing closes and
    // area recovery takes over.
    for (const double period : {2.0, 3.0}) {
      sta::ClockSpec clock;
      clock.period = period;
      const auto run = [&](std::size_t threads) {
        const ScopedThreads scope(threads);
        return synth.run(subject, clock);
      };
      const synth::SynthesisResult serial = run(0);
      const synth::SynthesisResult threaded = run(8);
      EXPECT_GT(serial.design.instanceCount(), 3 * 256u);
      EXPECT_EQ(netlist::writeVerilogToString(threaded.design),
                netlist::writeVerilogToString(serial.design));
      EXPECT_EQ(threaded.cellUsage(), serial.cellUsage());
      EXPECT_EQ(threaded.passes, serial.passes);
      EXPECT_EQ(threaded.resizes, serial.resizes);
      EXPECT_EQ(threaded.buffersInserted, serial.buffersInserted);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.worstSlack),
                std::bit_cast<std::uint64_t>(serial.worstSlack));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.tns),
                std::bit_cast<std::uint64_t>(serial.tns));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.area),
                std::bit_cast<std::uint64_t>(serial.area));
    }
  }
}

TEST_F(ParallelDeterminismTest, FlowReportAndEndpointPathsBitIdentical) {
  // runFlowJob traces the endpoint paths and renders the report's path
  // lines on the pool, in fixed chunks joined in order. The small MCU has
  // enough endpoints for several chunks of both.
  core::FlowJob job;
  job.profile = "small";
  job.period = 6.0;
  job.method = "sigma-ceiling";
  job.value = 0.02;
  core::TuningFlow flow(core::makeFlowConfig(job));
  const synth::SynthesisResult synthesized =
      flow.synthesizeBaseline(job.period).synthesis;

  std::string serialReport;
  std::vector<sta::TimingPath> serialPaths;
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{8}}) {
    const ScopedThreads scope(threads);
    const std::string report = core::runFlowJob(flow, job).report;
    const std::vector<sta::TimingPath> paths =
        flow.tracePaths(synthesized, job.period);
    if (threads == 0) {
      ASSERT_GT(paths.size(), 2 * parallel::defaultGrain(paths.size()));
      ASSERT_GT(paths.size(), 1024u);
      serialReport = report;
      serialPaths = paths;
      continue;
    }
    EXPECT_EQ(report, serialReport) << threads << " threads";
    ASSERT_EQ(paths.size(), serialPaths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const sta::TimingPath& a = paths[i];
      const sta::TimingPath& b = serialPaths[i];
      EXPECT_EQ(a.endpoint.net, b.endpoint.net);
      EXPECT_EQ(a.endpoint.arrival, b.endpoint.arrival);
      EXPECT_EQ(a.endpoint.slack, b.endpoint.slack);
      ASSERT_EQ(a.steps.size(), b.steps.size());
      for (std::size_t k = 0; k < a.steps.size(); ++k) {
        EXPECT_EQ(a.steps[k].instance, b.steps[k].instance);
        EXPECT_EQ(a.steps[k].arc, b.steps[k].arc);
        EXPECT_EQ(a.steps[k].inputSlew, b.steps[k].inputSlew);
        EXPECT_EQ(a.steps[k].load, b.steps[k].load);
        EXPECT_EQ(a.steps[k].delay, b.steps[k].delay);
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, SerialFallbackMatchesThreaded) {
  // threads = 0 (no pool at all) must agree with every pooled configuration.
  const charlib::Characterizer chr = characterizer();
  const auto build = [&] {
    const auto libs =
        chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 6, 29);
    const statlib::StatLibrary stat = statlib::buildStatLibrary(libs);
    const auto constraints = tuning::tuneLibrary(
        stat,
        tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                        0.02));
    return constraints.size();
  };
  const ScopedThreads scope(0);
  const std::size_t serial = build();
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    parallel::setThreadCount(threads);
    EXPECT_EQ(build(), serial);
  }
}

}  // namespace
}  // namespace sct
