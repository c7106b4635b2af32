// Incremental STA correctness: after any sequence of sizing / buffering /
// reconnection edits, TimingAnalyzer::update() must leave the analyzer in a
// state bit-identical to a from-scratch analyze() of the same design. The
// comparison is done by TimingAnalyzer::diffAgainstReference(), which checks
// every per-net array (loads, arrivals, min-arrivals, slews, required),
// predecessor records, endpoints and the WNS/TNS/hold aggregates with exact
// (bitwise) double equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/random.hpp"
#include "obs/metrics.hpp"
#include "sta/sta.hpp"
#include "synth/synthesis.hpp"
#include "test_helpers.hpp"

namespace sct {
namespace {

using netlist::Design;
using netlist::InstIndex;
using netlist::NetIndex;
using netlist::PrimOp;

void bindAll(Design& d, const liberty::Library& lib) {
  for (InstIndex i = 0; i < d.instanceCount(); ++i) {
    auto& inst = d.instance(i);
    if (!inst.alive) continue;
    const liberty::Cell* cell = nullptr;
    switch (inst.op) {
      case PrimOp::kInv: cell = lib.findCell("INV_1"); break;
      case PrimOp::kNand2: cell = lib.findCell("ND2_1"); break;
      case PrimOp::kBuf: cell = lib.findCell("BF_2"); break;
      case PrimOp::kDff: cell = lib.findCell("FD1_1"); break;
      default: break;
    }
    ASSERT_NE(cell, nullptr);
    d.bindCell(i, cell);
  }
}

sta::ClockSpec tinyClock() {
  sta::ClockSpec clock;
  clock.period = 1.0;
  return clock;
}

// ------------------------------------------------- directed tiny cases ----

TEST(IncrementalSta, CellSwapMatchesFullAnalyze) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(5);
  bindAll(d, lib);

  sta::TimingAnalyzer inc(d, lib, tinyClock());
  ASSERT_TRUE(inc.analyze());
  ASSERT_EQ(inc.diffAgainstReference(), "");

  // Upsize a middle inverter: its input cap changes the upstream load and
  // its arcs change the downstream arrivals — both directions of the
  // worklist must fire.
  InstIndex target = netlist::kNoInst;
  std::size_t seen = 0;
  for (InstIndex i = 0; i < d.instanceCount(); ++i) {
    if (d.instance(i).op == PrimOp::kInv && ++seen == 3) target = i;
  }
  ASSERT_NE(target, netlist::kNoInst);
  d.bindCell(target, lib.findCell("INV_4"));
  inc.notifyCellSwap(target);
  EXPECT_TRUE(inc.hasPendingEdits());
  ASSERT_TRUE(inc.update());
  EXPECT_FALSE(inc.hasPendingEdits());
  EXPECT_EQ(inc.diffAgainstReference(), "");

  // And back down again — the reverse delta.
  d.bindCell(target, lib.findCell("INV_1"));
  inc.notifyCellSwap(target);
  ASSERT_TRUE(inc.update());
  EXPECT_EQ(inc.diffAgainstReference(), "");
}

TEST(IncrementalSta, SequentialCellSwapMatchesFullAnalyze) {
  liberty::Library lib = test::makeTinyLibrary();
  lib.addCell(test::makeDffCell("FD1_2", 2.0, 5.0, 0.002, 0.02, 0.06, 2.0,
                                0.06));
  Design d = test::makeInvChain(4);
  bindAll(d, lib);

  sta::TimingAnalyzer inc(d, lib, tinyClock());
  ASSERT_TRUE(inc.analyze());

  // Swapping a flop exercises the clock-arc launch path and the endpoint
  // setup-time dependence in one edit.
  for (InstIndex i = 0; i < d.instanceCount(); ++i) {
    if (d.instance(i).op != PrimOp::kDff) continue;
    d.bindCell(i, lib.findCell("FD1_2"));
    inc.notifyCellSwap(i);
    ASSERT_TRUE(inc.update());
    ASSERT_EQ(inc.diffAgainstReference(), "") << "flop " << i;
  }
}

TEST(IncrementalSta, BufferInsertAndReconnectMatchesFullAnalyze) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(4);
  bindAll(d, lib);

  sta::TimingAnalyzer inc(d, lib, tinyClock());
  ASSERT_TRUE(inc.analyze());

  // Splice a buffer into the middle of the chain, splitNet-style: new net,
  // new bound instance, then move the sink over.
  NetIndex target = netlist::kNoNet;
  for (NetIndex n = 0; n < d.netCount(); ++n) {
    const auto& net = d.net(n);
    if (net.driver != netlist::kNoInst &&
        d.instance(net.driver).op == PrimOp::kInv && !net.sinks.empty()) {
      target = n;
      break;
    }
  }
  ASSERT_NE(target, netlist::kNoNet);
  const std::vector<netlist::SinkRef> sinks = d.net(target).sinks;

  const NetIndex out = d.addNet(d.freshName("bufn"));
  const InstIndex ib = d.addInstance(d.freshName("sibuf"), PrimOp::kBuf,
                                     {target}, {out});
  d.bindCell(ib, lib.findCell("BF_2"));
  inc.notifyBufferInsert(ib);
  for (const auto& sink : sinks) {
    d.reconnectInput(sink.instance, sink.inputSlot, out);
    inc.notifyReconnect(sink.instance, sink.inputSlot, target);
  }
  ASSERT_EQ(d.validate(), "");
  ASSERT_TRUE(inc.update());
  EXPECT_EQ(inc.diffAgainstReference(), "");
}

TEST(IncrementalSta, UpdateWithoutBaselineRunsFullAnalyze) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(3);
  bindAll(d, lib);

  sta::TimingAnalyzer inc(d, lib, tinyClock());
  // No analyze() yet: update() must fall back to the full analysis.
  ASSERT_TRUE(inc.update());
  EXPECT_EQ(inc.diffAgainstReference(), "");

  sta::TimingAnalyzer ref(d, lib, tinyClock());
  ASSERT_TRUE(ref.analyze());
  EXPECT_EQ(inc.worstSlack(), ref.worstSlack());
  EXPECT_EQ(inc.totalNegativeSlack(), ref.totalNegativeSlack());
}

TEST(IncrementalSta, SetClockInvalidatesBaseline) {
  liberty::Library lib = test::makeTinyLibrary();
  Design d = test::makeInvChain(3);
  bindAll(d, lib);

  sta::TimingAnalyzer inc(d, lib, tinyClock());
  ASSERT_TRUE(inc.analyze());

  sta::ClockSpec tighter;
  tighter.period = 0.2;
  inc.setClock(tighter);
  // The old arrivals/required are stale under the new clock; update() must
  // notice and re-analyze rather than reuse the baseline.
  ASSERT_TRUE(inc.update());
  EXPECT_EQ(inc.diffAgainstReference(), "");

  sta::TimingAnalyzer ref(d, lib, tighter);
  ASSERT_TRUE(ref.analyze());
  EXPECT_EQ(inc.worstSlack(), ref.worstSlack());
}

// -------------------------------------------- randomized edit replays ----

/// Shared slow-to-build characterized library (same fixture pattern as the
/// synthesis property tests).
class IncrementalBase {
 public:
  static charlib::Characterizer& characterizer() {
    static charlib::Characterizer chr = test::makeSmallCharacterizer();
    return chr;
  }
  static liberty::Library& library() {
    static liberty::Library lib =
        characterizer().characterizeNominal(charlib::ProcessCorner::typical());
    return lib;
  }
};

/// One randomized edit against `design`, mirrored into `inc` via the notify
/// API. Returns false when no edit of the drawn kind was applicable.
bool applyRandomEdit(Design& design, const synth::Synthesizer& synth,
                     sta::TimingAnalyzer& inc, std::mt19937_64& rng) {
  const bool wantSwap = (rng() % 10) < 7;  // 70% swaps, 30% buffer splices
  if (wantSwap) {
    // Rebind a random mapped instance to another member of its family.
    const InstIndex count =
        static_cast<InstIndex>(design.instanceCount());
    for (std::uint32_t attempt = 0; attempt < 32; ++attempt) {
      const InstIndex i = static_cast<InstIndex>(rng() % count);
      const auto& inst = design.instance(i);
      if (!inst.alive || inst.cell == nullptr) continue;
      const auto& family = synth.family(inst.op);
      if (family.size() < 2) continue;
      const liberty::Cell* next =
          family[static_cast<std::size_t>(rng() % family.size())];
      if (next == inst.cell) continue;
      design.bindCell(i, next);
      inc.notifyCellSwap(i);
      return true;
    }
    return false;
  }

  // splitNet-style buffer splice: new buffer on a multi-sink net, then move
  // a random prefix of the original sinks behind it.
  const auto& bufs = synth.family(PrimOp::kBuf);
  if (bufs.empty()) return false;
  std::vector<NetIndex> candidates;
  for (NetIndex n = 0; n < design.netCount(); ++n) {
    if (design.net(n).sinks.size() >= 2) candidates.push_back(n);
  }
  if (candidates.empty()) return false;
  const NetIndex net =
      candidates[static_cast<std::size_t>(rng() % candidates.size())];
  const std::vector<netlist::SinkRef> sinks = design.net(net).sinks;

  const NetIndex out = design.addNet(design.freshName("bufn"));
  const InstIndex ib = design.addInstance(design.freshName("sibuf"),
                                          PrimOp::kBuf, {net}, {out});
  design.bindCell(ib, bufs[static_cast<std::size_t>(rng() % bufs.size())]);
  inc.notifyBufferInsert(ib);

  const std::size_t moved = 1 + static_cast<std::size_t>(rng()) % sinks.size();
  for (std::size_t s = 0; s < moved; ++s) {
    design.reconnectInput(sinks[s].instance, sinks[s].inputSlot, out);
    inc.notifyReconnect(sinks[s].instance, sinks[s].inputSlot, net);
  }
  return true;
}

class IncrementalEditSweep : public ::testing::TestWithParam<std::uint64_t>,
                             public IncrementalBase {};

TEST_P(IncrementalEditSweep, ReplayedEditsStayBitIdentical) {
  const std::uint64_t seed = GetParam();
  netlist::RandomDagConfig config;
  config.seed = seed;
  config.gates = 120;
  config.flipFlops = 12;

  const synth::Synthesizer synth(library());
  sta::ClockSpec clock;
  clock.period = 4.0;
  synth::SynthesisResult mapped =
      synth.run(netlist::generateRandomDag(config), clock);
  ASSERT_EQ(mapped.design.validate(), "");
  Design design = std::move(mapped.design);

  sta::TimingAnalyzer inc(design, library(), clock);
  ASSERT_TRUE(inc.analyze());
  ASSERT_EQ(inc.diffAgainstReference(), "");

  std::mt19937_64 rng(seed * 7919 + 13);
  std::size_t applied = 0;
  for (std::size_t edit = 0; edit < 200 && applied < 30; ++edit) {
    if (!applyRandomEdit(design, synth, inc, rng)) continue;
    ++applied;
    ASSERT_TRUE(inc.update());
    const std::string diff = inc.diffAgainstReference();
    ASSERT_EQ(diff, "") << "seed " << seed << " edit " << applied;
  }
  ASSERT_GE(applied, std::size_t{10});
  EXPECT_EQ(design.validate(), "");
}

TEST_P(IncrementalEditSweep, BatchedEditsDrainToBitIdenticalState) {
  // Several notifications between update() calls — the deferred-drain path
  // the synthesis session actually uses (notify per move, drain per pass).
  const std::uint64_t seed = GetParam();
  netlist::RandomDagConfig config;
  config.seed = seed + 1000;
  config.gates = 90;
  config.flipFlops = 8;

  const synth::Synthesizer synth(library());
  sta::ClockSpec clock;
  clock.period = 3.0;
  synth::SynthesisResult mapped =
      synth.run(netlist::generateRandomDag(config), clock);
  ASSERT_EQ(mapped.design.validate(), "");
  Design design = std::move(mapped.design);

  sta::TimingAnalyzer inc(design, library(), clock);
  ASSERT_TRUE(inc.analyze());

  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t batch = 0; batch < 8; ++batch) {
    const std::size_t batchSize = 1 + static_cast<std::size_t>(rng() % 4);
    std::size_t applied = 0;
    for (std::size_t edit = 0; edit < 50 && applied < batchSize; ++edit) {
      if (applyRandomEdit(design, synth, inc, rng)) ++applied;
    }
    ASSERT_TRUE(inc.update());
    ASSERT_EQ(inc.diffAgainstReference(), "")
        << "seed " << seed << " batch " << batch;
  }
  EXPECT_EQ(design.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEditSweep,
                         ::testing::Values(1, 2, 5, 17, 91));

// ------------------------------------- level shifts and cached arc delays ----

class IncrementalCaches : public ::testing::Test, public IncrementalBase {
 protected:
  /// Binds every instance to the smallest member of its family.
  static void bindSmallest(Design& d, const synth::Synthesizer& synth) {
    for (InstIndex i = 0; i < d.instanceCount(); ++i) {
      const auto& family = synth.family(d.instance(i).op);
      ASSERT_FALSE(family.empty()) << d.instance(i).name;
      d.bindCell(i, family.front());
    }
  }

  /// Splices a bound buffer between `net` and all of its sinks.
  static void spliceBuffer(Design& d, const synth::Synthesizer& synth,
                           sta::TimingAnalyzer& inc, NetIndex net) {
    const std::vector<netlist::SinkRef> sinks = d.net(net).sinks;
    const NetIndex out = d.addNet(d.freshName("bufn"));
    const InstIndex ib =
        d.addInstance(d.freshName("sibuf"), PrimOp::kBuf, {net}, {out});
    d.bindCell(ib, synth.family(PrimOp::kBuf).front());
    inc.notifyBufferInsert(ib);
    for (const netlist::SinkRef& sink : sinks) {
      d.reconnectInput(sink.instance, sink.inputSlot, out);
      inc.notifyReconnect(sink.instance, sink.inputSlot, net);
    }
  }

  /// Rebinds `i` to the next member of its family (wrapping around).
  static void swapToNextSize(Design& d, const synth::Synthesizer& synth,
                             sta::TimingAnalyzer& inc, InstIndex i) {
    const auto& family = synth.family(d.instance(i).op);
    const auto it =
        std::find(family.begin(), family.end(), d.instance(i).cell);
    ASSERT_NE(it, family.end());
    const std::size_t next =
        (static_cast<std::size_t>(it - family.begin()) + 1) % family.size();
    d.bindCell(i, family[next]);
    inc.notifyCellSwap(i);
  }
};

/// `order` holds every alive instance once, and every alive driver of an
/// instance's inputs comes before it.
std::string topoOrderProblem(const Design& d,
                             const std::vector<InstIndex>& order) {
  std::vector<std::size_t> position(d.instanceCount(), SIZE_MAX);
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k] >= d.instanceCount()) return "index out of range";
    if (position[order[k]] != SIZE_MAX) return "instance listed twice";
    position[order[k]] = k;
  }
  for (InstIndex i = 0; i < d.instanceCount(); ++i) {
    const auto& inst = d.instance(i);
    if (!inst.alive) continue;
    if (position[i] == SIZE_MAX) return inst.name + " missing";
    if (netlist::isSequential(inst.op)) continue;  // clock-launched source
    for (NetIndex in : inst.inputs) {
      const InstIndex drv = d.net(in).driver;
      if (drv == netlist::kNoInst || !d.instance(drv).alive) continue;
      if (position[drv] > position[i]) {
        return inst.name + " before its driver " + d.instance(drv).name;
      }
    }
  }
  return {};
}

TEST_F(IncrementalCaches, RepeatedBufferInsertsOnOnePathStayBitIdentical) {
  // One long path, edited the way the sizing passes edit it: each batch
  // splices a buffer into the path (every gate behind it moves up one
  // level) and resizes the gate the buffer now drives. The design is large
  // enough that every drain takes the worklist path, not the full sweep.
  const synth::Synthesizer synth(library());
  Design d("path");
  netlist::NetlistBuilder b(d);
  NetIndex node = b.dff(b.inputPort("din"), PrimOp::kDff);
  std::vector<NetIndex> path{node};
  for (int k = 0; k < 48; ++k) {
    node = b.inv(node);
    path.push_back(node);
  }
  b.outputPort("dout", b.dff(node, PrimOp::kDff));
  bindSmallest(d, synth);
  ASSERT_EQ(d.validate(), "");

  sta::ClockSpec clock;
  clock.period = 3.0;
  sta::TimingAnalyzer inc(d, library(), clock);
  ASSERT_TRUE(inc.analyze());
  for (std::size_t round = 0; round < 24; ++round) {
    const NetIndex at = path[(round * 7) % 20];
    spliceBuffer(d, synth, inc, at);
    const NetIndex moved = d.instance(d.net(at).sinks.front().instance)
                               .outputs.front();
    swapToNextSize(d, synth, inc, d.net(moved).sinks.front().instance);
    ASSERT_TRUE(inc.update());
    ASSERT_EQ(inc.diffAgainstReference(), "") << "round " << round;
    ASSERT_EQ(topoOrderProblem(d, inc.topoOrder()), "") << "round " << round;
  }
  EXPECT_EQ(d.validate(), "");
}

TEST_F(IncrementalCaches, LevelSpliceVisitsEachInstanceOnce) {
  // A ladder: gate k reads gates k-1 and k-2, so a splice at its foot
  // moves every gate up a level through two fanins each. The splice
  // re-levels each gate once, after both fanins moved, instead of once per
  // fanin move.
  const synth::Synthesizer synth(library());
  Design d("ladder");
  netlist::NetlistBuilder b(d);
  const NetIndex launch = b.dff(b.inputPort("din"), PrimOp::kDff);
  const NetIndex foot = b.inv(launch);
  NetIndex previous = foot;
  NetIndex node = b.inv(foot);
  constexpr int kRungs = 40;
  for (int k = 0; k < kRungs; ++k) {
    const NetIndex next = b.nand2(node, previous);
    previous = node;
    node = next;
  }
  b.outputPort("dout", b.dff(node, PrimOp::kDff));
  bindSmallest(d, synth);
  ASSERT_EQ(d.validate(), "");

  sta::ClockSpec clock;
  clock.period = 3.0;
  sta::TimingAnalyzer inc(d, library(), clock);
  ASSERT_TRUE(inc.analyze());
  const bool metrics = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  obs::Counter& levelEvals =
      obs::MetricsRegistry::global().counter("sta.update.level_evals");
  const std::uint64_t before = levelEvals.value();
  spliceBuffer(d, synth, inc, foot);
  ASSERT_TRUE(inc.update());
  const std::uint64_t evals = levelEvals.value() - before;
  obs::setMetricsEnabled(metrics);
  ASSERT_EQ(inc.diffAgainstReference(), "");
  ASSERT_EQ(topoOrderProblem(d, inc.topoOrder()), "");
  // The buffer, the foot inverter (its load changed), the second inverter
  // and the rungs: each once.
  EXPECT_EQ(evals, std::uint64_t{kRungs + 3});
}

TEST_F(IncrementalCaches, TopoOrderIsValidAfterStructuralUpdates) {
  const synth::Synthesizer synth(library());
  netlist::RandomDagConfig config;
  config.seed = 7;
  config.gates = 150;
  config.flipFlops = 12;
  sta::ClockSpec clock;
  clock.period = 4.0;
  synth::SynthesisResult mapped =
      synth.run(netlist::generateRandomDag(config), clock);
  Design design = std::move(mapped.design);

  sta::TimingAnalyzer inc(design, library(), clock);
  ASSERT_TRUE(inc.analyze());
  ASSERT_EQ(topoOrderProblem(design, inc.topoOrder()), "");
  std::mt19937_64 rng(7);
  for (std::size_t edit = 0; edit < 12; ++edit) {
    std::vector<NetIndex> driven;
    for (NetIndex n = 0; n < design.netCount(); ++n) {
      if (!design.net(n).sinks.empty()) driven.push_back(n);
    }
    spliceBuffer(design, synth, inc,
                 driven[static_cast<std::size_t>(rng() % driven.size())]);
    ASSERT_TRUE(inc.update());
    ASSERT_EQ(topoOrderProblem(design, inc.topoOrder()), "") << "edit " << edit;
    ASSERT_EQ(inc.diffAgainstReference(), "") << "edit " << edit;
  }
}

TEST_F(IncrementalCaches, FlopAndAdderSwapsKeepArcDelaysCurrent) {
  // A flip-flop times only through its clock arc; a full adder has three
  // inputs and two outputs, so its arc delays sit at stride 2. Both swaps
  // must leave every cached arc delay equal to a fresh analysis (which
  // diffAgainstReference compares) on the worklist path.
  const synth::Synthesizer synth(library());
  ASSERT_GE(synth.family(PrimOp::kFullAdder).size(), 2u);
  ASSERT_GE(synth.family(PrimOp::kDff).size(), 2u);
  Design d("adder");
  netlist::NetlistBuilder b(d);
  const auto chain = [&](NetIndex n, int depth) {
    for (int k = 0; k < depth; ++k) n = b.inv(n);
    return n;
  };
  const NetIndex a = chain(b.dff(b.inputPort("a"), PrimOp::kDff), 6);
  const NetIndex bb = chain(b.dff(b.inputPort("b"), PrimOp::kDff), 3);
  const NetIndex ci = b.dff(b.inputPort("ci"), PrimOp::kDff);
  const auto [sum, carry] = b.fullAdder(a, bb, ci);
  b.outputPort("s", b.dff(chain(sum, 8), PrimOp::kDff));
  b.outputPort("co", b.dff(chain(carry, 5), PrimOp::kDff));
  bindSmallest(d, synth);
  ASSERT_EQ(d.validate(), "");

  sta::ClockSpec clock;
  clock.period = 2.0;
  sta::TimingAnalyzer inc(d, library(), clock);
  ASSERT_TRUE(inc.analyze());
  for (InstIndex i = 0; i < d.instanceCount(); ++i) {
    const PrimOp op = d.instance(i).op;
    if (op != PrimOp::kFullAdder && op != PrimOp::kDff) continue;
    for (std::size_t k = 0; k < synth.family(op).size(); ++k) {
      swapToNextSize(d, synth, inc, i);
      ASSERT_TRUE(inc.update());
      ASSERT_EQ(inc.diffAgainstReference(), "")
          << d.instance(i).name << " size " << k;
    }
  }
}

}  // namespace
}  // namespace sct
