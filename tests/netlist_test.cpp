// Unit tests for the netlist layer: data-structure invariants, structural
// builder blocks and the microcontroller generator (the paper's ~20k-gate
// evaluation vehicle).

#include <gtest/gtest.h>

#include <set>

#include "netlist/builder.hpp"
#include "netlist/mcu.hpp"
#include "netlist/netlist.hpp"
#include "netlist/noc.hpp"
#include "netlist/random.hpp"

namespace sct::netlist {
namespace {

// ------------------------------------------------------------- primops ----

TEST(PrimOp, Shapes) {
  EXPECT_EQ(numInputs(PrimOp::kInv), 1u);
  EXPECT_EQ(numInputs(PrimOp::kMux2), 3u);
  EXPECT_EQ(numInputs(PrimOp::kFullAdder), 3u);
  EXPECT_EQ(numInputs(PrimOp::kConst0), 0u);
  EXPECT_EQ(numInputs(PrimOp::kDffE), 2u);
  EXPECT_EQ(numOutputs(PrimOp::kFullAdder), 2u);
  EXPECT_EQ(numOutputs(PrimOp::kHalfAdder), 2u);
  EXPECT_EQ(numOutputs(PrimOp::kNand4), 1u);
}

TEST(PrimOp, SequentialDetection) {
  EXPECT_TRUE(isSequential(PrimOp::kDff));
  EXPECT_TRUE(isSequential(PrimOp::kDffR));
  EXPECT_TRUE(isSequential(PrimOp::kDffE));
  EXPECT_FALSE(isSequential(PrimOp::kMux2));
  EXPECT_FALSE(isSequential(PrimOp::kConst1));
}

TEST(PrimOp, DefaultFunctionMapping) {
  EXPECT_EQ(defaultFunction(PrimOp::kNand3), liberty::CellFunction::kNand3);
  EXPECT_EQ(defaultFunction(PrimOp::kConst0), liberty::CellFunction::kTieLo);
  EXPECT_EQ(defaultFunction(PrimOp::kDffE), liberty::CellFunction::kDffE);
}

// -------------------------------------------------------------- design ----

TEST(Design, AddInstanceWiresConnectivity) {
  Design d("t");
  const NetIndex a = d.addNet("a");
  const NetIndex b = d.addNet("b");
  const NetIndex z = d.addNet("z");
  const InstIndex g = d.addInstance("g", PrimOp::kNand2, {a, b}, {z});
  EXPECT_EQ(d.net(z).driver, g);
  ASSERT_EQ(d.net(a).sinks.size(), 1u);
  EXPECT_EQ(d.net(a).sinks[0].instance, g);
  EXPECT_EQ(d.net(a).sinks[0].inputSlot, 0u);
  EXPECT_EQ(d.net(b).sinks[0].inputSlot, 1u);
  EXPECT_TRUE(d.validate().empty());
}

TEST(Design, ReconnectInputMovesSink) {
  Design d("t");
  const NetIndex a = d.addNet("a");
  const NetIndex b = d.addNet("b");
  const NetIndex z = d.addNet("z");
  const InstIndex g = d.addInstance("g", PrimOp::kInv, {a}, {z});
  d.reconnectInput(g, 0, b);
  EXPECT_TRUE(d.net(a).sinks.empty());
  ASSERT_EQ(d.net(b).sinks.size(), 1u);
  EXPECT_EQ(d.instance(g).inputs[0], b);
  EXPECT_TRUE(d.validate().empty());
}

TEST(Design, RedistributeSinksMatchesPerSinkReconnects) {
  // A net with single- and double-slot sinks, two targets that already
  // have sinks, kept sinks between moved ones and an unlisted tail.
  const auto build = [] {
    Design d("t");
    const NetIndex a = d.addNet("a");
    const NetIndex b = d.addNet("b");
    const NetIndex c = d.addNet("c");
    (void)d.addInstance("pb", PrimOp::kInv, {b}, {d.addNet("pbz")});
    (void)d.addInstance("pc", PrimOp::kInv, {c}, {d.addNet("pcz")});
    for (int i = 0; i < 12; ++i) {
      const NetIndex z = d.addNet("z" + std::to_string(i));
      if (i % 3 == 0) {
        (void)d.addInstance("g" + std::to_string(i), PrimOp::kNand2, {a, a},
                            {z});
      } else {
        (void)d.addInstance("g" + std::to_string(i), PrimOp::kInv, {a}, {z});
      }
    }
    return d;
  };
  const NetIndex a = 0;
  Design loop = build();
  Design batch = build();
  const std::size_t fanout = loop.net(a).sinks.size();
  ASSERT_EQ(fanout, 16u);
  std::vector<NetIndex> to(fanout - 2, kNoNet);  // the last two stay
  for (std::size_t k = 0; k < to.size(); ++k) {
    if (k % 4 != 3) to[k] = (k / 2) % 2 == 0 ? NetIndex{1} : NetIndex{2};
  }

  const std::vector<SinkRef> sinks = loop.net(a).sinks;
  for (std::size_t k = 0; k < to.size(); ++k) {
    if (to[k] == kNoNet) continue;
    loop.reconnectInput(sinks[k].instance, sinks[k].inputSlot, to[k]);
  }
  batch.redistributeSinks(a, to);

  EXPECT_TRUE(batch.validate().empty()) << batch.validate();
  for (NetIndex n = 0; n < loop.netCount(); ++n) {
    EXPECT_EQ(batch.net(n).sinks, loop.net(n).sinks) << loop.net(n).name;
  }
  for (InstIndex i = 0; i < loop.instanceCount(); ++i) {
    EXPECT_EQ(batch.instance(i).inputs, loop.instance(i).inputs);
  }
  EXPECT_EQ(batch.net(a).sinks.size(), 2u + 3u);  // tail + every 4th
}

TEST(Design, RemoveInstanceDetaches) {
  Design d("t");
  const NetIndex a = d.addNet("a");
  const NetIndex z = d.addNet("z");
  const InstIndex g = d.addInstance("g", PrimOp::kInv, {a}, {z});
  d.removeInstance(g);
  EXPECT_FALSE(d.instance(g).alive);
  EXPECT_TRUE(d.net(a).sinks.empty());
  EXPECT_EQ(d.net(z).driver, kNoInst);
  EXPECT_EQ(d.gateCount(), 0u);
  EXPECT_TRUE(d.validate().empty());
}

TEST(Design, FreshNamesUnique) {
  Design d("t");
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) names.insert(d.freshName("n"));
  EXPECT_EQ(names.size(), 100u);
}

TEST(Design, PortsMarkPrimaryOutputs) {
  Design d("t");
  const NetIndex a = d.addNet("a");
  d.addPort("a", PortDirection::kOutput, a);
  EXPECT_TRUE(d.net(a).isPrimaryOutput);
  ASSERT_EQ(d.ports().size(), 1u);
}

// ------------------------------------------------------------- builder ----

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest() : d_("t"), b_(d_) {}
  Design d_;
  NetlistBuilder b_;
};

TEST_F(BuilderTest, GateCreatesInstanceAndNet) {
  const NetIndex a = b_.inputPort("a");
  const NetIndex z = b_.inv(a);
  EXPECT_EQ(d_.gateCount(), 1u);
  EXPECT_NE(d_.net(z).driver, kNoInst);
  EXPECT_TRUE(d_.validate().empty());
}

TEST_F(BuilderTest, ConstantIsCached) {
  const NetIndex c0a = b_.constant(false);
  const NetIndex c0b = b_.constant(false);
  const NetIndex c1 = b_.constant(true);
  EXPECT_EQ(c0a, c0b);
  EXPECT_NE(c0a, c1);
  EXPECT_EQ(d_.gateCount(), 2u);
}

TEST_F(BuilderTest, RippleAdderStructure) {
  const Bus a = b_.inputBus("a", 8);
  const Bus c = b_.inputBus("b", 8);
  NetIndex carry = kNoNet;
  const Bus sum = b_.rippleAdder(a, c, b_.constant(false), &carry);
  EXPECT_EQ(sum.size(), 8u);
  EXPECT_NE(carry, kNoNet);
  // 8 FA + 1 tie cell.
  EXPECT_EQ(d_.gateCount(), 9u);
  EXPECT_TRUE(d_.validate().empty());
}

TEST_F(BuilderTest, IncrementerUsesHalfAdders) {
  const Bus a = b_.inputBus("a", 6);
  const Bus inc = b_.incrementer(a);
  EXPECT_EQ(inc.size(), 6u);
  std::size_t ha = 0;
  for (const Instance& inst : d_.instances()) {
    if (inst.alive && inst.op == PrimOp::kHalfAdder) ++ha;
  }
  EXPECT_EQ(ha, 6u);
}

TEST_F(BuilderTest, ReductionTreesAreBalancedAndComplete) {
  const Bus a = b_.inputBus("a", 9);
  (void)b_.orTree(a);
  // 9 leaves -> 8 OR2 gates.
  std::size_t count = 0;
  for (const Instance& inst : d_.instances()) {
    if (inst.alive && inst.op == PrimOp::kOr2) ++count;
  }
  EXPECT_EQ(count, 8u);
}

TEST_F(BuilderTest, DecoderProducesOneHotOutputs) {
  const Bus sel = b_.inputBus("s", 3);
  const Bus out = b_.decoder(sel);
  EXPECT_EQ(out.size(), 8u);
  // 3 inverters + 8 * (3-input AND via 2 AND2 each) = 3 + 16 gates.
  EXPECT_EQ(d_.gateCount(), 19u);
}

TEST_F(BuilderTest, MuxTreeSelectsAmongPowerOfTwo) {
  std::vector<Bus> choices;
  for (int i = 0; i < 4; ++i) choices.push_back(b_.inputBus("c" + std::to_string(i), 4));
  const Bus sel = b_.inputBus("s", 2);
  const Bus out = b_.muxTree(choices, sel);
  EXPECT_EQ(out.size(), 4u);
  // (2+1) * 4 mux2 per bit = 12.
  EXPECT_EQ(d_.gateCount(), 12u);
}

TEST_F(BuilderTest, ShiftersPreserveWidth) {
  const Bus v = b_.inputBus("v", 16);
  const Bus amount = b_.inputBus("a", 4);
  EXPECT_EQ(b_.shiftLeft(v, amount).size(), 16u);
  EXPECT_EQ(b_.shiftRight(v, amount).size(), 16u);
  EXPECT_TRUE(d_.validate().empty());
}

TEST_F(BuilderTest, MultiplierWidth) {
  const Bus x = b_.inputBus("x", 8);
  const Bus y = b_.inputBus("y", 8);
  const Bus p = b_.multiplier(x, y);
  EXPECT_EQ(p.size(), 16u);
  EXPECT_TRUE(d_.validate().empty());
  // 64 partial-product ANDs plus adder rows.
  std::size_t ands = 0;
  for (const Instance& inst : d_.instances()) {
    if (inst.alive && inst.op == PrimOp::kAnd2) ++ands;
  }
  EXPECT_EQ(ands, 64u);
}

TEST_F(BuilderTest, RegisterFileShape) {
  const Bus wa = b_.inputBus("wa", 3);
  const Bus wd = b_.inputBus("wd", 8);
  const NetIndex we = b_.inputPort("we");
  const auto reads = b_.registerFile(8, 8, wa, wd, we,
                                     {b_.inputBus("ra", 3), b_.inputBus("rb", 3)});
  EXPECT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].size(), 8u);
  std::size_t dffe = 0;
  for (const Instance& inst : d_.instances()) {
    if (inst.alive && inst.op == PrimOp::kDffE) ++dffe;
  }
  EXPECT_EQ(dffe, 64u);
  EXPECT_TRUE(d_.validate().empty());
}

TEST_F(BuilderTest, RandomLogicDeterministicPerSeed) {
  Design d2("t2");
  NetlistBuilder b2(d2);
  const Bus in1 = b_.inputBus("i", 8);
  const Bus in2 = b2.inputBus("i", 8);
  numeric::Rng r1(5);
  numeric::Rng r2(5);
  (void)b_.randomLogic(in1, 6, 3, r1);
  (void)b2.randomLogic(in2, 6, 3, r2);
  ASSERT_EQ(d_.instanceCount(), d2.instanceCount());
  for (std::size_t i = 0; i < d_.instanceCount(); ++i) {
    EXPECT_EQ(d_.instance(static_cast<InstIndex>(i)).op,
              d2.instance(static_cast<InstIndex>(i)).op);
  }
}

TEST_F(BuilderTest, BusDffWithEnableUsesDffE) {
  const Bus data = b_.inputBus("d", 4);
  const NetIndex en = b_.inputPort("en");
  const Bus q = b_.busDff(data, PrimOp::kDffE, en);
  EXPECT_EQ(q.size(), 4u);
  for (const Instance& inst : d_.instances()) {
    if (inst.alive && isSequential(inst.op)) {
      EXPECT_EQ(inst.op, PrimOp::kDffE);
      EXPECT_EQ(inst.inputs.size(), 2u);
    }
  }
}

// ------------------------------------------------------------------ mcu ----

TEST(Mcu, GateCountNearTwentyK) {
  const Design mcu = generateMcu();
  EXPECT_GE(mcu.gateCount(), 15000u);
  EXPECT_LE(mcu.gateCount(), 26000u);
}

TEST(Mcu, ValidatesClean) {
  const Design mcu = generateMcu();
  EXPECT_EQ(mcu.validate(), "");
}

TEST(Mcu, DeterministicForSeed) {
  McuConfig config;
  const Design a = generateMcu(config);
  const Design b = generateMcu(config);
  ASSERT_EQ(a.instanceCount(), b.instanceCount());
  ASSERT_EQ(a.netCount(), b.netCount());
  for (std::size_t i = 0; i < a.instanceCount(); ++i) {
    EXPECT_EQ(a.instance(static_cast<InstIndex>(i)).op,
              b.instance(static_cast<InstIndex>(i)).op);
    EXPECT_EQ(a.instance(static_cast<InstIndex>(i)).inputs,
              b.instance(static_cast<InstIndex>(i)).inputs);
  }
}

TEST(Mcu, SeedChangesControlLogic) {
  McuConfig a;
  McuConfig b;
  b.seed = 999;
  const Design da = generateMcu(a);
  const Design db = generateMcu(b);
  ASSERT_EQ(da.instanceCount(), db.instanceCount());
  bool differs = false;
  for (std::size_t i = 0; i < da.instanceCount() && !differs; ++i) {
    differs = da.instance(static_cast<InstIndex>(i)).op !=
              db.instance(static_cast<InstIndex>(i)).op;
  }
  EXPECT_TRUE(differs);
}

TEST(Mcu, HasSubstantialSequentialPopulation) {
  const Design mcu = generateMcu();
  std::size_t ffs = 0;
  for (const Instance& inst : mcu.instances()) {
    if (inst.alive && isSequential(inst.op)) ++ffs;
  }
  // Register file + pipeline + peripherals: thousands of flops.
  EXPECT_GE(ffs, 2000u);
  EXPECT_LE(ffs, 8000u);
}

TEST(Mcu, UsesDiversePrimitives) {
  const Design mcu = generateMcu();
  std::set<PrimOp> ops;
  for (const Instance& inst : mcu.instances()) {
    if (inst.alive) ops.insert(inst.op);
  }
  EXPECT_TRUE(ops.contains(PrimOp::kFullAdder));
  EXPECT_TRUE(ops.contains(PrimOp::kHalfAdder));
  EXPECT_TRUE(ops.contains(PrimOp::kMux2));
  EXPECT_TRUE(ops.contains(PrimOp::kXor2));
  EXPECT_TRUE(ops.contains(PrimOp::kDffE));
  EXPECT_GE(ops.size(), 12u);
}

TEST(Mcu, ScalesWithConfig) {
  McuConfig small;
  small.registers = 8;
  small.timers = 1;
  small.dmaChannels = 0;
  small.gpioWidth = 16;
  small.cacheTagEntries = 0;
  small.macUnits = 1;
  small.bankedRegisters = 1;
  small.interruptSources = 8;
  small.decodeOutputs = 64;
  const Design sm = generateMcu(small);
  const Design full = generateMcu();
  EXPECT_LT(sm.gateCount(), full.gateCount() / 2);
  EXPECT_EQ(sm.validate(), "");
}

TEST(Accumulator, SmallAndValid) {
  const Design acc = generateAccumulator(16);
  EXPECT_EQ(acc.validate(), "");
  EXPECT_GT(acc.gateCount(), 40u);
  EXPECT_LT(acc.gateCount(), 200u);
}

// ------------------------------------------------------------ NoC router ----

TEST(Noc, ValidatesCleanAndDeterministic) {
  const Design a = buildNocRouter();
  const Design b = buildNocRouter();
  EXPECT_EQ(a.validate(), "");
  ASSERT_EQ(a.instanceCount(), b.instanceCount());
  ASSERT_EQ(a.netCount(), b.netCount());
  for (std::size_t i = 0; i < a.instanceCount(); ++i) {
    EXPECT_EQ(a.instance(static_cast<InstIndex>(i)).op,
              b.instance(static_cast<InstIndex>(i)).op);
    EXPECT_EQ(a.instance(static_cast<InstIndex>(i)).inputs,
              b.instance(static_cast<InstIndex>(i)).inputs);
  }
}

TEST(Noc, CarriesBufferAndCreditState) {
  // Flit buffers, VC/age bookkeeping and credit counters: a control-heavy
  // sequential population, structurally unlike the MCU register file.
  const Design noc = buildNocRouter();
  std::size_t ffs = 0;
  for (const Instance& inst : noc.instances()) {
    if (inst.alive && isSequential(inst.op)) ++ffs;
  }
  NocConfig config;
  // At least the raw flit storage: ports * vcs * depth * flitWidth bits.
  EXPECT_GE(ffs, config.ports * config.vcs * config.bufferDepth *
                     config.flitWidth);
  EXPECT_GT(noc.gateCount(), 1000u);
}

TEST(Noc, ScalesWithRadixAndWidth) {
  NocConfig wide;
  wide.ports = 7;
  wide.flitWidth = 32;
  const Design base = buildNocRouter();
  const Design scaled = buildNocRouter(wide);
  EXPECT_EQ(scaled.validate(), "");
  EXPECT_GT(scaled.gateCount(), base.gateCount());
}

// ------------------------------------------------- random DAG scale knob ----

TEST(RandomDag, ScaleOneReproducesUnscaledBitForBit) {
  RandomDagConfig unscaled;
  RandomDagConfig explicitOne;
  explicitOne.scale = 1;
  const Design a = generateRandomDag(unscaled);
  const Design b = generateRandomDag(explicitOne);
  ASSERT_EQ(a.instanceCount(), b.instanceCount());
  ASSERT_EQ(a.netCount(), b.netCount());
  for (std::size_t i = 0; i < a.instanceCount(); ++i) {
    EXPECT_EQ(a.instance(static_cast<InstIndex>(i)).op,
              b.instance(static_cast<InstIndex>(i)).op);
    EXPECT_EQ(a.instance(static_cast<InstIndex>(i)).inputs,
              b.instance(static_cast<InstIndex>(i)).inputs);
  }
}

TEST(RandomDag, ScaleMultipliesTheDesign) {
  RandomDagConfig base;
  base.gates = 100;
  base.flipFlops = 8;
  RandomDagConfig big = base;
  big.scale = 8;
  const Design small = generateRandomDag(base);
  const Design scaled = generateRandomDag(big);
  EXPECT_EQ(scaled.validate(), "");
  EXPECT_GE(scaled.gateCount(), 6 * small.gateCount());
}

}  // namespace
}  // namespace sct::netlist
