// Unit and integration tests for the synthesis substrate: decomposition
// rewrites, technology mapping, gate sizing, buffering, window legalization
// and the min-period search protocol.

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <set>
#include <utility>
#include <vector>

#include "artifact/codecs.hpp"
#include "charlib/characterizer.hpp"
#include "netlist/builder.hpp"
#include "netlist/mcu.hpp"
#include "netlist/random.hpp"
#include "obs/metrics.hpp"
#include "statlib/stat_library.hpp"
#include "synth/decompose.hpp"
#include "synth/synthesis.hpp"
#include "test_helpers.hpp"
#include "tuning/restriction.hpp"

namespace sct::synth {
namespace {

using netlist::Design;
using netlist::InstIndex;
using netlist::NetIndex;
using netlist::NetlistBuilder;
using netlist::PrimOp;

/// Usable-op predicate allowing only the listed ops.
OpUsable only(std::set<PrimOp> ops) {
  return [ops = std::move(ops)](PrimOp op) { return ops.contains(op); };
}

std::map<PrimOp, std::size_t> opCensus(const Design& d) {
  std::map<PrimOp, std::size_t> census;
  for (const auto& inst : d.instances()) {
    if (inst.alive) ++census[inst.op];
  }
  return census;
}

// ----------------------------------------------------------- decompose ----

TEST(Decompose, And2IntoNandInv) {
  Design d("t");
  NetlistBuilder b(d);
  const NetIndex z = b.and2(b.inputPort("a"), b.inputPort("b"));
  b.outputPort("z", z);
  ASSERT_TRUE(decomposeInstance(d, 0, only({PrimOp::kNand2, PrimOp::kInv})));
  EXPECT_EQ(d.validate(), "");
  const auto census = opCensus(d);
  EXPECT_EQ(census.at(PrimOp::kNand2), 1u);
  EXPECT_EQ(census.at(PrimOp::kInv), 1u);
  EXPECT_FALSE(census.contains(PrimOp::kAnd2));
  // The original output net must now be driven by the new logic.
  EXPECT_NE(d.net(z).driver, netlist::kNoInst);
}

TEST(Decompose, XorIntoNandNetwork) {
  Design d("t");
  NetlistBuilder b(d);
  const NetIndex z = b.xor2(b.inputPort("a"), b.inputPort("b"));
  b.outputPort("z", z);
  ASSERT_TRUE(decomposeInstance(d, 0, only({PrimOp::kNand2})));
  EXPECT_EQ(d.validate(), "");
  EXPECT_EQ(opCensus(d).at(PrimOp::kNand2), 4u);
}

TEST(Decompose, Mux2IntoNands) {
  Design d("t");
  NetlistBuilder b(d);
  const NetIndex z =
      b.mux2(b.inputPort("d0"), b.inputPort("d1"), b.inputPort("s"));
  b.outputPort("z", z);
  ASSERT_TRUE(
      decomposeInstance(d, 0, only({PrimOp::kNand2, PrimOp::kInv})));
  EXPECT_EQ(d.validate(), "");
  const auto census = opCensus(d);
  EXPECT_EQ(census.at(PrimOp::kNand2), 3u);
  EXPECT_EQ(census.at(PrimOp::kInv), 1u);
}

TEST(Decompose, FullAdderBothOutputsDriven) {
  Design d("t");
  NetlistBuilder b(d);
  auto [s, co] =
      b.fullAdder(b.inputPort("a"), b.inputPort("b"), b.inputPort("ci"));
  b.outputPort("s", s);
  b.outputPort("co", co);
  ASSERT_TRUE(decomposeInstance(
      d, 0, only({PrimOp::kXor2, PrimOp::kAnd2, PrimOp::kOr2})));
  EXPECT_EQ(d.validate(), "");
  EXPECT_NE(d.net(s).driver, netlist::kNoInst);
  EXPECT_NE(d.net(co).driver, netlist::kNoInst);
  const auto census = opCensus(d);
  EXPECT_EQ(census.at(PrimOp::kXor2), 2u);
  EXPECT_EQ(census.at(PrimOp::kAnd2), 2u);
  EXPECT_EQ(census.at(PrimOp::kOr2), 1u);
}

TEST(Decompose, DffEIntoMuxAndDff) {
  Design d("t");
  NetlistBuilder b(d);
  const NetIndex q =
      b.dff(b.inputPort("d"), PrimOp::kDffE, b.inputPort("e"));
  b.outputPort("q", q);
  ASSERT_TRUE(decomposeInstance(
      d, 0, only({PrimOp::kMux2, PrimOp::kDffR})));
  EXPECT_EQ(d.validate(), "");
  const auto census = opCensus(d);
  EXPECT_EQ(census.at(PrimOp::kMux2), 1u);
  EXPECT_EQ(census.at(PrimOp::kDffR), 1u);
  // Recirculation: the mux must read the flop output.
  bool muxReadsQ = false;
  for (const auto& inst : d.instances()) {
    if (!inst.alive || inst.op != PrimOp::kMux2) continue;
    for (NetIndex in : inst.inputs) muxReadsQ |= (in == q);
  }
  EXPECT_TRUE(muxReadsQ);
}

TEST(Decompose, FailsWithoutBaseOpsAndRestores) {
  Design d("t");
  NetlistBuilder b(d);
  const NetIndex z = b.and2(b.inputPort("a"), b.inputPort("b"));
  b.outputPort("z", z);
  EXPECT_FALSE(decomposeInstance(d, 0, only({PrimOp::kXor2})));
  // Design restored: the AND2 instance is alive again and valid.
  EXPECT_EQ(d.validate(), "");
  EXPECT_EQ(opCensus(d).at(PrimOp::kAnd2), 1u);
}

TEST(Decompose, SequentialBaseOpsNotDecomposable) {
  EXPECT_FALSE(isDecomposable(PrimOp::kDff));
  EXPECT_FALSE(isDecomposable(PrimOp::kDffR));
  EXPECT_FALSE(isDecomposable(PrimOp::kConst0));
  EXPECT_TRUE(isDecomposable(PrimOp::kDffE));
  EXPECT_TRUE(isDecomposable(PrimOp::kFullAdder));
}

TEST(Decompose, DecomposeUnusableRewritesWholeDesign) {
  Design d = netlist::generateAccumulator(8);
  const auto before = opCensus(d);
  ASSERT_TRUE(before.contains(PrimOp::kFullAdder));
  ASSERT_TRUE(before.contains(PrimOp::kMux2));
  // Only a base set is "usable": everything else must be rewritten.
  const long rewritten = decomposeUnusable(
      d, only({PrimOp::kInv, PrimOp::kNand2, PrimOp::kNor2, PrimOp::kDffR,
               PrimOp::kConst0, PrimOp::kConst1}));
  EXPECT_GT(rewritten, 0);
  EXPECT_EQ(d.validate(), "");
  for (const auto& [op, count] : opCensus(d)) {
    EXPECT_TRUE(op == PrimOp::kInv || op == PrimOp::kNand2 ||
                op == PrimOp::kNor2 || op == PrimOp::kDffR ||
                op == PrimOp::kConst0 || op == PrimOp::kConst1)
        << netlist::toString(op);
  }
}

// ----------------------------------------------------------- synthesis ----

class SynthesisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    chr_ = new charlib::Characterizer(test::makeSmallCharacterizer());
    lib_ = new liberty::Library(
        chr_->characterizeNominal(charlib::ProcessCorner::typical()));
    const auto mcLibs =
        chr_->characterizeMonteCarlo(charlib::ProcessCorner::typical(), 25, 7);
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
  static charlib::Characterizer* chr_;
  static liberty::Library* lib_;
  static statlib::StatLibrary* stat_;
};

charlib::Characterizer* SynthesisTest::chr_ = nullptr;
liberty::Library* SynthesisTest::lib_ = nullptr;
statlib::StatLibrary* SynthesisTest::stat_ = nullptr;

TEST_F(SynthesisTest, FamiliesSortedAndComplete) {
  const Synthesizer synth(*lib_);
  const auto& invs = synth.family(PrimOp::kInv);
  ASSERT_EQ(invs.size(), 19u);
  for (std::size_t i = 1; i < invs.size(); ++i) {
    EXPECT_LT(invs[i - 1]->driveStrength(), invs[i]->driveStrength());
  }
  EXPECT_EQ(synth.family(PrimOp::kFullAdder).size(), 20u);
  EXPECT_EQ(synth.family(PrimOp::kConst0).size(), 1u);
}

TEST_F(SynthesisTest, MapsEveryInstance) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 5.0;
  const SynthesisResult result =
      synth.run(netlist::generateAccumulator(8), clock);
  for (const auto& inst : result.design.instances()) {
    if (inst.alive) {
      EXPECT_NE(inst.cell, nullptr);
    }
  }
  EXPECT_EQ(result.design.validate(), "");
}

TEST_F(SynthesisTest, MeetsRelaxedTiming) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const SynthesisResult result =
      synth.run(netlist::generateAccumulator(16), clock);
  EXPECT_TRUE(result.timingMet);
  EXPECT_TRUE(result.legal);
  EXPECT_GT(result.worstSlack, 0.0);
  EXPECT_GT(result.area, 0.0);
}

TEST_F(SynthesisTest, FailsImpossibleTiming) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 0.35;  // uncertainty 0.3 leaves 0.05 ns for logic
  const SynthesisResult result =
      synth.run(netlist::generateAccumulator(16), clock);
  EXPECT_FALSE(result.timingMet);
  EXPECT_FALSE(result.success());
}

TEST_F(SynthesisTest, DeterministicAcrossRuns) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 2.0;
  const Design subject = netlist::generateAccumulator(16);
  const SynthesisResult a = synth.run(subject, clock);
  const SynthesisResult b = synth.run(subject, clock);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.worstSlack, b.worstSlack);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.buffersInserted, b.buffersInserted);
  EXPECT_EQ(a.cellUsage(), b.cellUsage());
}

TEST_F(SynthesisTest, FanoutIsBounded) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 6.0;
  SynthesisOptions options;
  options.maxFanout = 8;
  netlist::McuConfig small;
  small.registers = 8;
  small.timers = 1;
  small.dmaChannels = 0;
  small.gpioWidth = 16;
  small.cacheTagEntries = 0;
  small.macUnits = 0;
  small.bankedRegisters = 1;
  small.interruptSources = 8;
  const SynthesisResult result =
      synth.run(netlist::generateMcu(small), clock, options);
  EXPECT_TRUE(result.timingMet);
  for (const auto& net : result.design.nets()) {
    EXPECT_LE(net.sinks.size(), 8u) << net.name;
  }
  EXPECT_GT(result.buffersInserted, 0u);
}

TEST_F(SynthesisTest, TighterTimingCostsArea) {
  const Synthesizer synth(*lib_);
  const Design subject = netlist::generateAccumulator(24);
  sta::ClockSpec relaxed;
  relaxed.period = 9.0;
  sta::ClockSpec tight;
  tight.period = 2.2;
  const SynthesisResult relaxedResult = synth.run(subject, relaxed);
  const SynthesisResult tightResult = synth.run(subject, tight);
  ASSERT_TRUE(relaxedResult.timingMet);
  if (tightResult.timingMet) {
    EXPECT_GE(tightResult.area, relaxedResult.area);
  }
}

TEST_F(SynthesisTest, MinPeriodBisectionBrackets) {
  const Synthesizer synth(*lib_);
  const Design subject = netlist::generateAccumulator(12);
  sta::ClockSpec clock;
  const auto minPeriod = synth.findMinPeriod(subject, clock, 0.3, 12.0, 0.05);
  ASSERT_TRUE(minPeriod.has_value());
  // Feasible at the returned period...
  clock.period = *minPeriod;
  EXPECT_TRUE(synth.run(subject, clock).success());
  // ...and infeasible noticeably below it.
  clock.period = *minPeriod - 0.3;
  EXPECT_FALSE(synth.run(subject, clock).success());
}

TEST_F(SynthesisTest, MinPeriodNulloptWhenHiInfeasible) {
  const Synthesizer synth(*lib_);
  const Design subject = netlist::generateAccumulator(16);
  sta::ClockSpec clock;
  EXPECT_FALSE(
      synth.findMinPeriod(subject, clock, 0.1, 0.35, 0.05).has_value());
}

TEST_F(SynthesisTest, RespectsTunedWindows) {
  const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      *stat_,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02));
  const Synthesizer synth(*lib_, &constraints);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const SynthesisResult result =
      synth.run(netlist::generateAccumulator(16), clock);
  ASSERT_TRUE(result.success());

  // Verify every mapped instance operates inside its window.
  sta::TimingAnalyzer sta(result.design, *lib_, clock);
  ASSERT_TRUE(sta.analyze());
  for (std::size_t i = 0; i < result.design.instanceCount(); ++i) {
    const auto& inst = result.design.instance(static_cast<InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const auto window = constraints.window(
          inst.cell->name(), sta::outputPinName(inst, slot));
      if (!window) continue;
      const double load = sta.netLoad(inst.outputs[slot]);
      EXPECT_LE(load, window->maxLoad * (1 + 1e-9))
          << inst.name << " (" << inst.cell->name() << ")";
      if (!netlist::isSequential(inst.op)) {
        for (NetIndex in : inst.inputs) {
          EXPECT_LE(sta.netSlew(in), window->maxSlew * (1 + 1e-9))
              << inst.name;
        }
      }
    }
  }
}

TEST_F(SynthesisTest, CompiledViewMirrorsConstraintSemantics) {
  tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      *stat_,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02));
  // Kill one family outright so the unusable path is exercised too.
  const liberty::Cell* killed = nullptr;
  for (const liberty::Cell* cell : lib_->cells()) {
    if (cell->function() == liberty::CellFunction::kMux2) {
      constraints.markUnusable(cell->name());
      killed = cell;
    }
  }
  ASSERT_NE(killed, nullptr);

  const tuning::CompiledConstraintView view(constraints, *lib_);
  EXPECT_FALSE(view.usable(*killed));
  for (const liberty::Cell* cell : lib_->cells()) {
    if (cell->function() == liberty::CellFunction::kMux2) continue;
    EXPECT_TRUE(view.usable(*cell)) << cell->name();
    const tuning::PinWindow* slot = view.window(*cell, 0);
    const auto byName = constraints.window(cell->name(), "Z");
    if (byName) {
      ASSERT_NE(slot, nullptr) << cell->name();
      EXPECT_EQ(slot->maxLoad, byName->maxLoad);
      EXPECT_EQ(slot->maxSlew, byName->maxSlew);
      EXPECT_EQ(slot->minLoad, byName->minLoad);
    }
  }
}

TEST_F(SynthesisTest, UnusableFamiliesForceDecomposition) {
  // Build constraints that kill the whole MUX2 family.
  tuning::LibraryConstraints constraints;
  for (const liberty::Cell* cell : lib_->cells()) {
    if (cell->function() == liberty::CellFunction::kMux2) {
      constraints.markUnusable(cell->name());
    }
  }
  const Synthesizer synth(*lib_, &constraints);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const SynthesisResult result =
      synth.run(netlist::generateAccumulator(8), clock);
  ASSERT_TRUE(result.success());
  EXPECT_GT(result.decomposed, 0u);
  for (const auto& inst : result.design.instances()) {
    if (inst.alive) {
      EXPECT_NE(inst.op, PrimOp::kMux2);
    }
  }
}

TEST_F(SynthesisTest, SpeculativeSizingWorkload) {
  // Tight slew windows on a design of several decide chunks: electrical
  // fixes resize and split, and timing upsizes run for many passes. Each
  // stale mark of the decide/commit driver (a resize marks its input nets'
  // drivers when its slew limit changes and, in timing upsizes, its sinks;
  // a split marks the sinks it moves) changes some move here, so under
  // SCT_STA_CHECK=1 (its own ctest entry) a missing mark aborts on the
  // re-decision cross-check.
  const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      *stat_,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kCellSlewSlope,
                                      0.005));
  const Synthesizer synth(*lib_, &constraints);
  netlist::RandomDagConfig config;
  config.gates = 1500;
  config.flipFlops = 75;
  config.seed = 2;
  const Design subject = netlist::generateRandomDag(config);
  sta::ClockSpec clock;
  clock.period = 2.0;
  const SynthesisResult result = synth.run(subject, clock);
  EXPECT_EQ(result.design.validate(), "");
  EXPECT_TRUE(result.legal);
  EXPECT_GT(result.design.instanceCount(), 3 * 256u);
  EXPECT_GT(result.passes, 10u);
  EXPECT_GT(result.buffersInserted, 0u);
  EXPECT_GT(result.resizes, subject.instanceCount() / 2);
}

TEST_F(SynthesisTest, ElectricalMovesCachedAcrossPasses) {
  // A multi-pass job with resizes and splits under tight slew windows.
  // fixElectrical re-decides only instances whose decision inputs changed
  // (DESIGN.md §9): under SCT_STA_CHECK=1 (its own ctest entry) every clean
  // instance is re-decided before each commit and a cached move that
  // differs aborts, so each dirty mark (load -> driver, slew -> sinks,
  // resize -> input drivers, split -> driver and moved sinks, stale -> next
  // pass) is exercised here.
  const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      *stat_,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kCellSlewSlope,
                                      0.005));
  const Synthesizer synth(*lib_, &constraints);
  netlist::RandomDagConfig config;
  config.gates = 1200;
  config.flipFlops = 60;
  config.seed = 5;
  const Design subject = netlist::generateRandomDag(config);
  sta::ClockSpec clock;
  clock.period = 2.0;
  SynthesisOptions options;
  options.maxFanout = 6;

  const bool wasEnabled = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  obs::Counter& decisions = obs::MetricsRegistry::global().counter(
      "synth.electrical_decisions");
  const std::uint64_t before = decisions.value();
  const SynthesisResult result = synth.run(subject, clock, options);
  const std::uint64_t decided = decisions.value() - before;
  obs::setMetricsEnabled(wasEnabled);

  EXPECT_EQ(result.design.validate(), "");
  EXPECT_GT(result.passes, 20u);
  EXPECT_GT(result.buffersInserted, 0u);
  EXPECT_GT(result.resizes, subject.instanceCount() / 2);
  // Every instance is decided in the first pass; later passes re-decide
  // only the dirty ones.
  EXPECT_GE(decided, result.design.gateCount() / 2);
  EXPECT_LT(decided, result.passes * result.design.instanceCount() / 2);
}

TEST_F(SynthesisTest, WideNetIsSplitAgainAndKeepsSinkOrder) {
  // One net with more than maxFanout^2 sinks: the first split leaves
  // ceil(300 / 16) = 19 buffer sinks on it, so the next fixFanout must
  // visit it again. Splits keep sink order, so walking the buffer tree
  // from the net, sinks in list order, meets the original sinks in their
  // original order.
  Design subject("wide");
  NetlistBuilder b(subject);
  const NetIndex hub = b.inv(b.inputPort("in"));
  for (int k = 0; k < 300; ++k) {
    b.outputPort("q" + std::to_string(k), b.dff(b.inv(hub), PrimOp::kDff));
  }
  std::vector<InstIndex> original;
  for (const netlist::SinkRef& sink : subject.net(hub).sinks) {
    original.push_back(sink.instance);
  }
  ASSERT_EQ(original.size(), 300u);

  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const SynthesisResult result = synth.run(subject, clock);
  const Design& d = result.design;
  EXPECT_EQ(d.validate(), "");
  EXPECT_GT(result.passes, 2u);
  for (const netlist::Net& net : d.nets()) {
    EXPECT_LE(net.sinks.size(), SynthesisOptions{}.maxFanout) << net.name;
  }

  std::vector<InstIndex> leaves;
  const auto walk = [&](const auto& self, NetIndex net) -> void {
    for (const netlist::SinkRef& sink : d.net(net).sinks) {
      const netlist::Instance& inst = d.instance(sink.instance);
      if (inst.name.starts_with("sibuf")) {
        self(self, inst.outputs[0]);
      } else {
        leaves.push_back(sink.instance);
      }
    }
  };
  walk(walk, hub);
  EXPECT_EQ(leaves, original);
}

/// Every stored byte of a result (scalars and design) and whether it
/// carries final timing.
std::vector<std::byte> resultBytes(const SynthesisResult& result) {
  artifact::SctbWriter writer;
  artifact::encodeSynthesisResult(writer, result);
  writer.beginSection("timing");
  writer.boolean(static_cast<bool>(result.timing));
  return writer.finish();
}

/// Runs `subject` at each period through one prefix: the first period
/// records it, the others replay it. Each result must equal a plain run's
/// bit for bit. Returns the prefix.
SizingPrefix expectResumedRunsMatch(const Synthesizer& synth,
                                    const Design& subject,
                                    std::initializer_list<double> periods,
                                    const SynthesisOptions& options = {}) {
  const MappedSubject mapped = synth.map(subject);
  SizingPrefix prefix;
  const bool wasEnabled = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  obs::Counter& replayed = obs::MetricsRegistry::global().counter(
      "synth.prefix.replayed_passes");
  for (const double period : periods) {
    sta::ClockSpec clock;
    clock.period = period;
    const bool replaying = prefix.complete;
    const std::uint64_t before = replayed.value();
    const SynthesisResult resumed = synth.run(mapped, clock, options, prefix);
    EXPECT_EQ(replayed.value() - before, replaying ? prefix.passes : 0u);
    EXPECT_TRUE(prefix.complete) << "period " << period;
    const SynthesisResult plain = synth.run(mapped, clock, options);
    EXPECT_EQ(resultBytes(resumed), resultBytes(plain)) << "period " << period;
  }
  obs::setMetricsEnabled(wasEnabled);
  return prefix;
}

/// Resizes and splits among a prefix's edits.
std::pair<std::size_t, std::size_t> editCensus(const SizingPrefix& prefix) {
  std::size_t resizes = 0;
  for (const SizingPrefix::Edit& edit : prefix.edits) {
    if (edit.cell != nullptr) ++resizes;
  }
  return {resizes, prefix.edits.size() - resizes};
}

TEST_F(SynthesisTest, ResumedRunAfterTwoPassPrefixRecoversArea) {
  // Fanout splits in pass 0 and their electrical fix-ups in pass 1; pass 2
  // reads slacks. At 5 ns timing upsizes follow; at the relaxed periods
  // pass 2 meets timing with no electrical change and runs area recovery,
  // which must leave the electrically resized instances alone (a driver
  // upsized for its load before a split could otherwise shrink).
  const Design subject = netlist::generateMcu(netlist::McuConfig{});
  const Synthesizer synth(*lib_);
  const SizingPrefix prefix =
      expectResumedRunsMatch(synth, subject, {6.5, 5.0, 12.0});
  EXPECT_EQ(prefix.passes, 2u);
  const auto [resizes, splits] = editCensus(prefix);
  EXPECT_GT(resizes, 0u);
  EXPECT_GT(splits, 0u);

  sta::ClockSpec clock;
  clock.period = 12.0;
  const SynthesisResult relaxed = synth.run(subject, clock);
  EXPECT_TRUE(relaxed.success());
  EXPECT_EQ(relaxed.passes, prefix.passes + 1);  // the recovery pass
}

TEST_F(SynthesisTest, ResumedRunAfterPrefixCutByPassLimit) {
  // Tight windows keep every pass splitting; a pass limit inside that run
  // cuts the prefix at maxPasses, and the resumed run ends there.
  const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      *stat_,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kCellSlewSlope,
                                      0.005));
  const Synthesizer synth(*lib_, &constraints);
  netlist::RandomDagConfig config;
  config.gates = 1200;
  config.flipFlops = 60;
  config.seed = 5;
  const Design subject = netlist::generateRandomDag(config);
  SynthesisOptions options;
  options.maxFanout = 6;
  options.maxPasses = 3;
  const SizingPrefix prefix =
      expectResumedRunsMatch(synth, subject, {2.0, 3.0, 5.0}, options);
  EXPECT_EQ(prefix.passes, options.maxPasses);
  EXPECT_GT(editCensus(prefix).second, 0u);
}

TEST_F(SynthesisTest, ResumedRunAfterEmptyPrefix) {
  // Nothing to split or fix electrically: the first pass reads slacks, so
  // the prefix is complete and empty, and a replay is a plain run.
  const Synthesizer synth(*lib_);
  const SizingPrefix prefix = expectResumedRunsMatch(
      synth, netlist::generateAccumulator(8), {0.35, 2.0, 8.0});
  EXPECT_EQ(prefix.passes, 0u);
  EXPECT_TRUE(prefix.edits.empty());
}

TEST_F(SynthesisTest, RelaxedUsesSmallerCellsThanTight) {
  const Synthesizer synth(*lib_);
  const Design subject = netlist::generateAccumulator(24);
  sta::ClockSpec relaxed;
  relaxed.period = 9.0;
  sta::ClockSpec tight;
  tight.period = 2.2;
  auto meanStrength = [](const SynthesisResult& r) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& inst : r.design.instances()) {
      if (inst.alive && inst.cell != nullptr) {
        sum += inst.cell->driveStrength();
        ++n;
      }
    }
    return sum / static_cast<double>(n);
  };
  const SynthesisResult r = synth.run(subject, relaxed);
  const SynthesisResult t = synth.run(subject, tight);
  if (t.timingMet) {
    EXPECT_LE(meanStrength(r), meanStrength(t) + 1e-9);
  }
}

TEST_F(SynthesisTest, RebindDesignSwapsCorners) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 8.0;
  SynthesisResult result = synth.run(netlist::generateAccumulator(8), clock);
  ASSERT_TRUE(result.success());

  const liberty::Library slow =
      chr_->characterizeNominal(charlib::ProcessCorner::slow());
  netlist::Design design = result.design;
  ASSERT_TRUE(rebindDesign(design, slow));
  // Cells keep their names but now point into the slow library.
  for (const auto& inst : design.instances()) {
    if (!inst.alive || inst.cell == nullptr) continue;
    EXPECT_EQ(inst.cell, slow.findCell(inst.cell->name()));
  }
  // Slow-corner arrivals exceed typical ones.
  sta::TimingAnalyzer fastSta(result.design, *lib_, clock);
  sta::TimingAnalyzer slowSta(design, slow, clock);
  ASSERT_TRUE(fastSta.analyze());
  ASSERT_TRUE(slowSta.analyze());
  EXPECT_LT(fastSta.worstSlack() + 0.05, slowSta.clock().period);  // sanity
  EXPECT_GT(slowSta.criticalPath().endpoint.arrival,
            fastSta.criticalPath().endpoint.arrival * 1.2);
}

TEST_F(SynthesisTest, RebindDesignFailsOnMissingCell) {
  const Synthesizer synth(*lib_);
  sta::ClockSpec clock;
  clock.period = 8.0;
  SynthesisResult result = synth.run(netlist::generateAccumulator(8), clock);
  liberty::Library sparse("sparse");
  netlist::Design design = result.design;
  EXPECT_FALSE(rebindDesign(design, sparse));
  // Untouched: still bound into the original library.
  for (const auto& inst : design.instances()) {
    if (inst.alive) {
      EXPECT_NE(inst.cell, nullptr);
    }
  }
}

}  // namespace
}  // namespace sct::synth
