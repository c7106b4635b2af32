// Unit tests for the static timing engine: loads, levelization,
// arrival/slew propagation through LUTs, setup slack, required times and
// worst-path extraction — verified by hand on tiny linear-LUT designs.

#include <gtest/gtest.h>

#include <cmath>

#include "netlist/builder.hpp"
#include "sta/sta.hpp"
#include "test_helpers.hpp"

namespace sct::sta {
namespace {

using netlist::Design;
using netlist::InstIndex;
using netlist::NetIndex;
using netlist::NetlistBuilder;
using netlist::PrimOp;

/// Binds every instance to the named cells of the tiny library in creation
/// order. Each op maps to one fixed cell.
void bindAll(Design& d, const liberty::Library& lib) {
  for (std::size_t i = 0; i < d.instanceCount(); ++i) {
    netlist::Instance& inst = d.instance(static_cast<InstIndex>(i));
    if (!inst.alive) continue;
    const liberty::Cell* cell = nullptr;
    switch (inst.op) {
      case PrimOp::kInv: cell = lib.findCell("INV_1"); break;
      case PrimOp::kNand2: cell = lib.findCell("ND2_1"); break;
      case PrimOp::kBuf: cell = lib.findCell("BF_2"); break;
      case PrimOp::kDff: cell = lib.findCell("FD1_1"); break;
      default: FAIL() << "unexpected op";
    }
    d.bindCell(static_cast<InstIndex>(i), cell);
  }
}

ClockSpec tinyClock(double period = 1.0) {
  ClockSpec clock;
  clock.period = period;
  clock.uncertainty = 0.1;
  clock.clockSlew = 0.05;
  clock.inputSlew = 0.02;
  clock.inputDelay = 0.0;
  clock.outputLoad = 0.002;
  clock.wireLoad = WireLoadModel{0.0, 0.001, 0.0};
  return clock;
}

class StaChainTest : public ::testing::Test {
 protected:
  // din -> FF -> INV -> INV -> FF -> dout
  StaChainTest() : lib_(test::makeTinyLibrary()), design_(test::makeInvChain(2)) {
    bindAll(design_, lib_);
  }
  liberty::Library lib_;
  Design design_;
};

TEST_F(StaChainTest, AnalyzeSucceeds) {
  TimingAnalyzer sta(design_, lib_, tinyClock());
  EXPECT_TRUE(sta.analyze());
}

TEST_F(StaChainTest, LoadsAreSinkCapsPlusWire) {
  TimingAnalyzer sta(design_, lib_, tinyClock());
  ASSERT_TRUE(sta.analyze());
  // First inverter's output net: one INV_1 sink (cap 0.001) + wire 0.001.
  // Find it: the net driven by the first INV.
  for (std::size_t i = 0; i < design_.instanceCount(); ++i) {
    const netlist::Instance& inst = design_.instance(static_cast<InstIndex>(i));
    if (inst.op != PrimOp::kInv) continue;
    const double load = sta.netLoad(inst.outputs[0]);
    const netlist::Net& net = design_.net(inst.outputs[0]);
    if (net.sinks.size() == 1 &&
        design_.instance(net.sinks[0].instance).op == PrimOp::kInv) {
      EXPECT_NEAR(load, 0.001 + 0.001, 1e-12);
    }
  }
}

TEST_F(StaChainTest, ArrivalMatchesHandComputation) {
  const ClockSpec clock = tinyClock();
  TimingAnalyzer sta(design_, lib_, clock);
  ASSERT_TRUE(sta.analyze());

  // Hand computation with the tiny library's linear LUTs:
  //   delay(cell) = base + slewCoef*slewIn + loadCoef*load
  //   slewOut     = base*0.5 + slewCoef*0.5*slewIn + loadCoef*1.5*load
  // FF (FD1_1): base 0.03, slewCoef 0.08, loadCoef 4.0, clock slew 0.05.
  // Q net load: INV_1 A cap 0.001 + wire 0.001 = 0.002.
  const double ffLoad = 0.002;
  const double ffDelay = 0.03 + 0.08 * clock.clockSlew + 4.0 * ffLoad;
  const double ffSlew = 0.015 + 0.04 * clock.clockSlew + 6.0 * ffLoad;
  // INV1: load = 0.002 (INV sink + wire), INV_1: base .01 sc .1 lc 4.
  const double inv1Delay = 0.01 + 0.1 * ffSlew + 4.0 * 0.002;
  const double inv1Slew = 0.005 + 0.05 * ffSlew + 6.0 * 0.002;
  // INV2: load = FF D cap 0.0012 + wire 0.001 = 0.0022.
  const double inv2Delay = 0.01 + 0.1 * inv1Slew + 4.0 * 0.0022;

  // Endpoint is the second FF's D input.
  const auto& endpoints = sta.endpoints();
  double endpointArrival = -1.0;
  for (const Endpoint& ep : endpoints) {
    if (ep.instance != netlist::kNoInst && ep.arrival > endpointArrival) {
      endpointArrival = ep.arrival;
    }
  }
  EXPECT_NEAR(endpointArrival, ffDelay + inv1Delay + inv2Delay, 1e-12);
}

TEST_F(StaChainTest, SlackAgainstEffectivePeriodAndSetup) {
  const ClockSpec clock = tinyClock(1.0);
  TimingAnalyzer sta(design_, lib_, clock);
  ASSERT_TRUE(sta.analyze());
  for (const Endpoint& ep : sta.endpoints()) {
    if (ep.instance == netlist::kNoInst) {
      EXPECT_NEAR(ep.required, 0.9, 1e-12);  // PO: period - uncertainty
    } else {
      EXPECT_NEAR(ep.required, 0.9 - 0.04, 1e-12);  // FF: minus setup
    }
    EXPECT_NEAR(ep.slack, ep.required - ep.arrival, 1e-12);
  }
}

TEST_F(StaChainTest, WorstSlackAndMet) {
  TimingAnalyzer fast(design_, lib_, tinyClock(10.0));
  ASSERT_TRUE(fast.analyze());
  EXPECT_TRUE(fast.met());
  EXPECT_GT(fast.worstSlack(), 0.0);
  EXPECT_DOUBLE_EQ(fast.totalNegativeSlack(), 0.0);

  TimingAnalyzer slow(design_, lib_, tinyClock(0.15));
  ASSERT_TRUE(slow.analyze());
  EXPECT_FALSE(slow.met());
  EXPECT_LT(slow.worstSlack(), 0.0);
  EXPECT_LT(slow.totalNegativeSlack(), 0.0);
}

TEST_F(StaChainTest, PathTracingDepthAndSteps) {
  TimingAnalyzer sta(design_, lib_, tinyClock());
  ASSERT_TRUE(sta.analyze());
  // Worst path to the FF endpoint: FF -> INV -> INV (3 steps).
  const Endpoint* ffEp = nullptr;
  for (const Endpoint& ep : sta.endpoints()) {
    if (ep.instance != netlist::kNoInst) ffEp = &ep;
  }
  ASSERT_NE(ffEp, nullptr);
  const TimingPath path = sta.worstPathTo(*ffEp);
  ASSERT_EQ(path.depth(), 3u);
  EXPECT_EQ(path.steps[0].cell->name(), "FD1_1");
  EXPECT_EQ(path.steps[1].cell->name(), "INV_1");
  EXPECT_EQ(path.steps[2].cell->name(), "INV_1");
  // Step delays sum to the endpoint arrival.
  double sum = 0.0;
  for (const PathStep& step : path.steps) sum += step.delay;
  EXPECT_NEAR(sum, ffEp->arrival, 1e-12);
}

TEST_F(StaChainTest, RequiredTimesPropagateBackwards) {
  TimingAnalyzer sta(design_, lib_, tinyClock());
  ASSERT_TRUE(sta.analyze());
  // Along a single path: slack at every net equals the endpoint slack.
  const TimingPath path = sta.criticalPath();
  ASSERT_GE(path.depth(), 1u);
  const netlist::Instance& last =
      design_.instance(path.steps.back().instance);
  EXPECT_NEAR(sta.netSlack(last.outputs[0]), path.endpoint.slack, 1e-9);
}

TEST(Sta, CriticalPathPicksWorstEndpoint) {
  liberty::Library lib = test::makeTinyLibrary();
  // FF -> 5 inverters -> FF (deep) and FF -> 1 inverter -> FF (shallow).
  Design d = test::makeInvChain(5);
  {
    NetlistBuilder b(d);
    const NetIndex in2 = b.inputPort("din2");
    NetIndex n = b.dff(in2, PrimOp::kDff);
    n = b.inv(n);
    const NetIndex q = b.dff(n, PrimOp::kDff);
    b.outputPort("dout2", q);
  }
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  ASSERT_TRUE(sta.analyze());
  const TimingPath critical = sta.criticalPath();
  EXPECT_EQ(critical.depth(), 6u);  // FF + 5 inverters
}

TEST(Sta, EndpointWorstPathsCoversAllEndpoints) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(3);
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  ASSERT_TRUE(sta.analyze());
  const auto paths = sta.endpointWorstPaths();
  EXPECT_EQ(paths.size(), sta.endpoints().size());
  // 3 endpoints: both FFs' D inputs and the primary output.
  EXPECT_EQ(paths.size(), 3u);
}

TEST(Sta, CombinationalCycleDetected) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d("cycle");
  const NetIndex a = d.addNet("a");
  const NetIndex b = d.addNet("b");
  d.addInstance("u1", PrimOp::kInv, {a}, {b});
  d.addInstance("u2", PrimOp::kInv, {b}, {a});
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  EXPECT_FALSE(sta.analyze());
}

TEST(Sta, SequentialLoopIsFine) {
  // Counter-style feedback through a flop must levelize.
  liberty::Library lib = test::makeTinyLibrary();
  Design d("loop");
  NetlistBuilder b(d);
  const NetIndex q = d.addNet("q");
  const NetIndex nq = b.inv(q);
  d.addInstance("reg", PrimOp::kDff, {nq}, {q});
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  EXPECT_TRUE(sta.analyze());
  EXPECT_EQ(sta.endpoints().size(), 1u);
}

TEST(Sta, PrimaryInputsCarryConfiguredArrivalAndSlew) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d("pi");
  NetlistBuilder b(d);
  const NetIndex in = b.inputPort("in");
  const NetIndex out = b.inv(in);
  b.outputPort("out", out);
  bindAll(d, lib);
  ClockSpec clock = tinyClock();
  clock.inputDelay = 0.123;
  clock.inputSlew = 0.04;
  TimingAnalyzer sta(d, lib, clock);
  ASSERT_TRUE(sta.analyze());
  EXPECT_DOUBLE_EQ(sta.netArrival(in), 0.123);
  EXPECT_DOUBLE_EQ(sta.netSlew(in), 0.04);
  // INV delay on top of the input arrival; PO load applies.
  const double load = clock.outputLoad;  // PO net, no sinks
  const double expected = 0.123 + 0.01 + 0.1 * 0.04 + 4.0 * load;
  EXPECT_NEAR(sta.netArrival(out), expected, 1e-12);
}

TEST(Sta, MultiInputWorstArcWins) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d("nand");
  NetlistBuilder b(d);
  const NetIndex a = b.inputPort("a");
  const NetIndex slow = b.inv(b.inv(b.inputPort("b")));  // later arrival
  const NetIndex z = b.nand2(a, slow);
  b.outputPort("z", z);
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  ASSERT_TRUE(sta.analyze());
  const TimingPath path = sta.criticalPath();
  // Critical path goes through the two inverters, then the NAND.
  ASSERT_EQ(path.depth(), 3u);
  EXPECT_EQ(path.steps.back().cell->name(), "ND2_1");
  EXPECT_EQ(path.steps.back().arc->relatedPin, "B");
}

TEST(Sta, InputPinNamesForSequentialOps) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d("x");
  const NetIndex n1 = d.addNet("n1");
  const NetIndex n2 = d.addNet("n2");
  const NetIndex q = d.addNet("q");
  const InstIndex ff = d.addInstance("ff", PrimOp::kDffE, {n1, n2}, {q});
  d.bindCell(ff, lib.findCell("FD1_1"));
  EXPECT_EQ(inputPinName(d.instance(ff), 0), "D");
  EXPECT_EQ(inputPinName(d.instance(ff), 1), "E");
  EXPECT_EQ(outputPinName(d.instance(ff), 0), "Q");
}

TEST(Sta, BoundsSafeAccessorsForFreshNets) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(1);
  bindAll(d, lib);
  ClockSpec clock = tinyClock();
  TimingAnalyzer sta(d, lib, clock);
  ASSERT_TRUE(sta.analyze());
  const NetIndex fresh = d.addNet("fresh");
  EXPECT_DOUBLE_EQ(sta.netLoad(fresh), 0.0);
  EXPECT_DOUBLE_EQ(sta.netSlew(fresh), clock.inputSlew);
  EXPECT_TRUE(std::isinf(sta.netRequired(fresh)));
}

TEST(Sta, SetupLutMakesRequiredSlewDependent) {
  // Give the tiny library's FF a setup table that grows with data slew; the
  // endpoint requirement must follow the arriving slew.
  liberty::Library lib = test::makeTinyLibrary();
  liberty::Cell* ff = lib.findCell("FD1_1");
  ASSERT_NE(ff, nullptr);
  // setup = 0.04 + 0.5 * dataSlew (no clock-slew dependence).
  ff->setSetupLut(test::linearLut({0.0, 1.0}, {0.0, 1.0}, 0.04, 0.5, 0.0));

  Design d = test::makeInvChain(2);
  bindAll(d, lib);
  const ClockSpec clock = tinyClock();
  TimingAnalyzer sta(d, lib, clock);
  ASSERT_TRUE(sta.analyze());
  for (const Endpoint& ep : sta.endpoints()) {
    if (ep.instance == netlist::kNoInst) continue;
    const double slew = sta.netSlew(ep.net);
    EXPECT_NEAR(ep.required,
                clock.effectivePeriod() - (0.04 + 0.5 * slew), 1e-12)
        << sta.endpointName(ep);
  }
}

TEST(Sta, ScalarSetupFallbackWithoutLut) {
  liberty::Library lib = test::makeTinyLibrary();
  ASSERT_TRUE(lib.findCell("FD1_1")->setupLut().empty());
  Design d = test::makeInvChain(1);
  bindAll(d, lib);
  const ClockSpec clock = tinyClock();
  TimingAnalyzer sta(d, lib, clock);
  ASSERT_TRUE(sta.analyze());
  for (const Endpoint& ep : sta.endpoints()) {
    if (ep.instance == netlist::kNoInst) continue;
    EXPECT_NEAR(ep.required, clock.effectivePeriod() - 0.04, 1e-12);
  }
}

TEST(StaHold, ZeroInputDelayViolatesHoldAtBoundary) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(2);
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());  // inputDelay = 0
  ASSERT_TRUE(sta.analyze());
  // The PI-fed flop sees data at t=0, inside its 10 ps hold window.
  EXPECT_FALSE(sta.holdMet());
  EXPECT_NEAR(sta.worstHoldSlack(), -0.01, 1e-12);
}

TEST(StaHold, MinArrivalNoGreaterThanMaxArrival) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(4);
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  ASSERT_TRUE(sta.analyze());
  for (const Endpoint& ep : sta.endpoints()) {
    EXPECT_LE(ep.minArrival, ep.arrival + 1e-12);
  }
}

TEST(StaHold, HoldSlackUsesCellHoldTime) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(2);
  bindAll(d, lib);
  // External data arrives 50 ps after the edge, so the PI-fed flop also
  // clears its 10 ps hold window (with zero input delay it must not).
  ClockSpec clock = tinyClock();
  clock.inputDelay = 0.05;
  TimingAnalyzer sta(d, lib, clock);
  ASSERT_TRUE(sta.analyze());
  for (const Endpoint& ep : sta.endpoints()) {
    if (ep.instance == netlist::kNoInst) continue;
    // Tiny library FF hold time is 0.01 ns.
    EXPECT_NEAR(ep.holdSlack, ep.minArrival - 0.01, 1e-12);
  }
  // A two-inverter FF-to-FF path comfortably clears the hold window.
  EXPECT_TRUE(sta.holdMet());
  EXPECT_GT(sta.worstHoldSlack(), 0.0);
}

TEST(StaHold, MinPathTakesFasterBranch) {
  // Two reconvergent branches: direct wire-speed input vs a slow 3-inverter
  // detour into a NAND; the min arrival must follow the direct branch.
  liberty::Library lib = test::makeTinyLibrary();
  Design d("reconverge");
  NetlistBuilder b(d);
  const NetIndex a = b.inputPort("a");
  NetIndex slow = a;
  for (int i = 0; i < 3; ++i) slow = b.inv(slow);
  const NetIndex z = b.nand2(a, slow);
  b.outputPort("z", z);
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  ASSERT_TRUE(sta.analyze());
  EXPECT_LT(sta.netMinArrival(z), sta.netArrival(z));
}

TEST(StaHold, WorstHoldSlackInfiniteWithoutSequentials) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d("comb");
  NetlistBuilder b(d);
  b.outputPort("z", b.inv(b.inputPort("a")));
  bindAll(d, lib);
  TimingAnalyzer sta(d, lib, tinyClock());
  ASSERT_TRUE(sta.analyze());
  EXPECT_TRUE(sta.holdMet());
  EXPECT_TRUE(std::isinf(sta.worstHoldSlack()));
}

}  // namespace
}  // namespace sct::sta
