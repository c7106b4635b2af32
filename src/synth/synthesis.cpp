#include "synth/synthesis.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "netlist/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "synth/decompose.hpp"
#include "synth/pattern_map.hpp"

namespace sct::synth {

using liberty::Cell;
using netlist::Design;
using netlist::InstIndex;
using netlist::kNoInst;
using netlist::kNoNet;
using netlist::NetIndex;
using netlist::PrimOp;
using tuning::PinWindow;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinBenefit = 5e-4;  // 0.5 ps
/// Instances per decide chunk. Chunk boundaries depend on this alone, and
/// stages of fewer instances decide in one inline chunk, off the pool.
constexpr std::size_t kDecideGrain = 256;

/// Instances decided by fixElectrical: the dirty ones at its start plus the
/// ones its commit re-decides.
obs::Counter& electricalDecisions() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "synth.electrical_decisions");
  return counter;
}

/// Sizing passes a run took from a replayed prefix instead of running them.
obs::Counter& replayedPasses() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "synth.prefix.replayed_passes");
  return counter;
}

static_assert(sizeof(SizingPrefix::Edit) == 16,
              "one 16-byte record per prefix edit");

/// All primitive ops, for family construction.
constexpr PrimOp kAllOps[] = {
    PrimOp::kConst0, PrimOp::kConst1, PrimOp::kInv,    PrimOp::kBuf,
    PrimOp::kNand2,  PrimOp::kNand2B, PrimOp::kNand3,  PrimOp::kNand4,
    PrimOp::kNor2,   PrimOp::kNor2B,  PrimOp::kNor3,   PrimOp::kNor4,
    PrimOp::kAnd2,   PrimOp::kAnd3,
    PrimOp::kAnd4,   PrimOp::kOr2,    PrimOp::kOr3,    PrimOp::kOr4,
    PrimOp::kXor2,   PrimOp::kXnor2,  PrimOp::kMux2,   PrimOp::kMux4,
    PrimOp::kHalfAdder,
    PrimOp::kFullAdder, PrimOp::kDff, PrimOp::kDffR,   PrimOp::kDffE};

}  // namespace

Synthesizer::Synthesizer(const liberty::Library& library,
                         const tuning::LibraryConstraints* constraints)
    : library_(library) {
  if (constraints != nullptr && !constraints->empty()) {
    compiled_.emplace(*constraints, library_);
  }
  static_assert(std::size(kAllOps) <= 64, "usableOps() is a 64-bit mask");
  for (std::size_t k = 0; k < std::size(kAllOps); ++k) {
    const PrimOp op = kAllOps[k];
    std::vector<const Cell*> cells =
        library_.family(netlist::defaultFunction(op));
    if (constraints != nullptr) {
      std::erase_if(cells, [&](const Cell* c) {
        return !constraints->cellUsable(c->name());
      });
    }
    if (!cells.empty()) usable_ |= std::uint64_t{1} << k;
    families_[op] = std::move(cells);
  }
}

const std::vector<const Cell*>& Synthesizer::family(PrimOp op) const {
  static const std::vector<const Cell*> kEmpty;
  const auto it = families_.find(op);
  return it != families_.end() ? it->second : kEmpty;
}

namespace {

/// Working state of one synthesis run.
class Session {
 public:
  Session(const Synthesizer& synth, Design& design,
          const sta::ClockSpec& clock, const SynthesisOptions& options,
          SynthesisResult& result)
      : synth_(synth),
        view_(synth.compiledConstraints()),
        design_(design),
        options_(options),
        result_(result),
        ownedAnalyzer_(std::make_unique<sta::TimingAnalyzer>(
            design, synth.library(), clock)),
        analyzer_(*ownedAnalyzer_) {}

  /// Binds every alive instance to its family's smallest usable cell;
  /// false when some op has no usable cell.
  bool bindInitial();
  /// Runs the sizing passes. A complete `prefix` is replayed first and the
  /// passes continue at prefix.passes; any other is recorded (DESIGN.md §9).
  void optimize(SizingPrefix& prefix);
  void finalize();
  /// The analyzer, when the last refresh left it valid: its state is then
  /// bit-identical to a fresh analyze() of the final design.
  [[nodiscard]] std::unique_ptr<sta::TimingAnalyzer> releaseTiming() {
    if (!timingValid_) return nullptr;
    return std::move(ownedAnalyzer_);
  }

 private:
  // --- constraint helpers ---------------------------------------------------
  /// Tuned window of a cell's output slot; nullptr when unconstrained
  /// (one pointer hash into the slot-interned compiled view).
  [[nodiscard]] const PinWindow* windowOf(const Cell& cell,
                                          std::uint32_t outSlot) const {
    return view_ != nullptr ? view_->window(cell, outSlot) : nullptr;
  }

  /// Max load the cell may drive on this output slot (electrical + window).
  [[nodiscard]] double maxLoadOf(const Cell& cell,
                                 std::uint32_t outSlot) const {
    double limit = kInf;
    const double mc = cell.timing().maxLoad(outSlot);
    if (mc > 0.0) limit = mc;
    if (const auto* w = windowOf(cell, outSlot)) {
      limit = std::min(limit, w->maxLoad);
    }
    return limit;
  }
  [[nodiscard]] double minLoadOf(const Cell& cell,
                                 std::uint32_t outSlot) const {
    const auto* w = windowOf(cell, outSlot);
    return w != nullptr ? w->minLoad : 0.0;
  }

  /// True when the cell's input-slew window accepts the instance's current
  /// input slews for arcs into this output slot.
  [[nodiscard]] bool slewsAccepted(const netlist::Instance& inst,
                                   const Cell& cell,
                                   std::uint32_t outSlot) const {
    const auto* w = windowOf(cell, outSlot);
    if (w == nullptr) return true;
    for (std::uint32_t i = 0; i < inst.inputs.size(); ++i) {
      if (netlist::isSequential(inst.op)) break;  // clock slew is fixed
      const double s = analyzer_.netSlew(inst.inputs[i]);
      if (s > w->maxSlew || s < w->minSlew) return false;
    }
    return true;
  }

  /// Transition limit an instance bound to `cell` imposes on each of its
  /// input nets: its tightest output window's max slew (+inf without
  /// windows; sequential cells see a fixed clock slew and impose none).
  [[nodiscard]] double inputSlewLimit(const netlist::Instance& inst,
                                      const Cell& cell) const {
    double limit = kInf;
    if (netlist::isSequential(inst.op)) return limit;
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      if (const auto* w = windowOf(cell, slot)) {
        limit = std::min(limit, w->maxSlew);
      }
    }
    return limit;
  }

  /// Strictest transition limit a net's sinks impose on its slew.
  [[nodiscard]] double netSlewLimit(NetIndex net) const {
    double limit = options_.maxSlew;
    for (const netlist::SinkRef& sink : design_.net(net).sinks) {
      const netlist::Instance& inst = design_.instance(sink.instance);
      if (!inst.alive || inst.cell == nullptr) continue;
      limit = std::min(limit, inputSlewLimit(inst, *inst.cell));
    }
    return limit;
  }

  /// netSlewLimit of each output net of an instance (at most two: adders),
  /// computed once per decision instead of once per candidate cell.
  using SlotLimits = std::array<double, 2>;
  [[nodiscard]] SlotLimits outputSlewLimits(
      const netlist::Instance& inst) const {
    assert(inst.outputs.size() <= SlotLimits{}.size());
    SlotLimits limits{};
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      limits[slot] = netSlewLimit(inst.outputs[slot]);
    }
    return limits;
  }

  /// Worst arc delay of an instance's output at a hypothetical load, with
  /// current input slews and a hypothetical cell binding. Candidate cells
  /// are evaluated through their compiled views, so the sizing loop never
  /// compares pin-name strings.
  [[nodiscard]] double worstDelayAt(const netlist::Instance& inst,
                                    const Cell& cell, std::uint32_t outSlot,
                                    double load) const {
    const liberty::CompiledCell& view = cell.timing();
    if (netlist::isSequential(inst.op)) {
      const liberty::CompiledArc& arc = view.clockArc(outSlot);
      return arc ? arc.worstDelay(analyzer_.clock().clockSlew, load) : 0.0;
    }
    double worst = 0.0;
    for (std::uint32_t i = 0; i < inst.inputs.size(); ++i) {
      const liberty::CompiledArc& arc = view.arc(i, outSlot);
      if (!arc) continue;
      worst = std::max(
          worst, arc.worstDelay(analyzer_.netSlew(inst.inputs[i]), load));
    }
    return worst;
  }

  [[nodiscard]] double worstTransitionAt(const netlist::Instance& inst,
                                         const Cell& cell,
                                         std::uint32_t outSlot,
                                         double load) const {
    const liberty::CompiledCell& view = cell.timing();
    if (netlist::isSequential(inst.op)) {
      const liberty::CompiledArc& arc = view.clockArc(outSlot);
      return arc ? arc.worstTransition(analyzer_.clock().clockSlew, load)
                 : 0.0;
    }
    double worst = 0.0;
    for (std::uint32_t i = 0; i < inst.inputs.size(); ++i) {
      const liberty::CompiledArc& arc = view.arc(i, outSlot);
      if (!arc) continue;
      worst = std::max(worst, arc.worstTransition(
                                  analyzer_.netSlew(inst.inputs[i]), load));
    }
    return worst;
  }

  /// Worst delay and worst transition of an output slot at one hypothetical
  /// (cell, load) point. The compiled shared-axis evaluator feeds both
  /// quantities from a single axis search per arc — half the lookups of
  /// calling worstDelayAt and worstTransitionAt separately, bit-identical
  /// results.
  [[nodiscard]] std::pair<double, double> delayAndTransitionAt(
      const netlist::Instance& inst, const Cell& cell, std::uint32_t outSlot,
      double load) const {
    const liberty::CompiledCell& view = cell.timing();
    if (netlist::isSequential(inst.op)) {
      const liberty::CompiledArc& arc = view.clockArc(outSlot);
      if (!arc) return {0.0, 0.0};
      const liberty::ArcTiming t = arc.evaluate(analyzer_.clock().clockSlew, load);
      return {t.worstDelay, t.worstTransition};
    }
    double delay = 0.0;
    double trans = 0.0;
    for (std::uint32_t i = 0; i < inst.inputs.size(); ++i) {
      const liberty::CompiledArc& arc = view.arc(i, outSlot);
      if (!arc) continue;
      const liberty::ArcTiming t =
          arc.evaluate(analyzer_.netSlew(inst.inputs[i]), load);
      delay = std::max(delay, t.worstDelay);
      trans = std::max(trans, t.worstTransition);
    }
    return {delay, trans};
  }

  /// Marginal delay per added load of the driver of `net` (0 for primary
  /// inputs): used to price the input-capacitance cost of upsizing.
  [[nodiscard]] double driverResistance(NetIndex net) const {
    const netlist::Net& n = design_.net(net);
    if (n.driver == kNoInst) return 0.0;
    const netlist::Instance& drv = design_.instance(n.driver);
    if (drv.cell == nullptr) return 0.0;
    const double load = analyzer_.netLoad(net);
    const double delta = 5e-4;  // 0.5 fF probe
    const double d0 = worstDelayAt(drv, *drv.cell, n.driverSlot, load);
    const double d1 = worstDelayAt(drv, *drv.cell, n.driverSlot, load + delta);
    return (d1 - d0) / delta;
  }

  /// Worst delay and worst transition over the instance's outputs with
  /// `cell` bound at the current operating point; nullopt when the
  /// candidate is illegal there (load window, input-slew window, or an
  /// output transition above `slewLimits`, which is outputSlewLimits(inst)).
  [[nodiscard]] std::optional<std::pair<double, double>> candidateTiming(
      const netlist::Instance& inst, const Cell& cell,
      const SlotLimits& slewLimits) const {
    double delay = 0.0;
    double trans = 0.0;
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const double load = analyzer_.netLoad(inst.outputs[slot]);
      if (load > maxLoadOf(cell, slot) || load < minLoadOf(cell, slot)) {
        return std::nullopt;
      }
      if (!slewsAccepted(inst, cell, slot)) return std::nullopt;
      const auto [d, t] = delayAndTransitionAt(inst, cell, slot, load);
      if (t > slewLimits[slot]) return std::nullopt;
      delay = std::max(delay, d);
      trans = std::max(trans, t);
    }
    return std::pair{delay, trans};
  }

  void resize(InstIndex index, const Cell* cell) {
    if (record_ != nullptr) record_->edits.push_back({cell, index, 0});
    design_.bindCell(index, cell);
    analyzer_.notifyCellSwap(index);
    ++result_.resizes;
  }

  /// Brings the analyzer up to date at a pass boundary by draining the
  /// edits the previous pass recorded, and marks the electrical decisions
  /// the drain invalidated: a changed load re-decides the net's driver, a
  /// changed slew the net's sinks. With SCT_STA_CHECK=1 every refresh is
  /// cross-checked against a fresh full analysis.
  bool refreshTiming() {
    const bool ok = analyzer_.update();
    timingValid_ = ok;
    const sta::TimingAnalyzer::DrainChanges& changes = analyzer_.lastChanges();
    if (changes.full) {
      std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{1});
    } else {
      for (NetIndex n : changes.loads) flag(dirty_, design_.net(n).driver);
      for (NetIndex n : changes.slews) {
        for (const netlist::SinkRef& sink : design_.net(n).sinks) {
          flag(dirty_, sink.instance);
        }
      }
    }
    if (ok) analyzer_.crossCheck("incremental STA");
    return ok;
  }

  // --- optimization stages -----------------------------------------------
  /// One instance's sizing move, decided against the state at the start of
  /// its stage: rebind to `cell`, split the output net `split` in two, or
  /// nothing (both unset).
  struct Move {
    const Cell* cell = nullptr;
    NetIndex split = kNoNet;
    bool operator==(const Move&) const = default;
  };

  std::size_t fixFanout();
  std::size_t fixElectrical();
  std::size_t improveTiming();
  std::size_t recoverArea();
  /// Pure decisions of the three sizing stages: they read the design, the
  /// frozen start-of-pass timing and the precompiled views, never write.
  [[nodiscard]] Move decideElectrical(InstIndex i, std::size_t preNets) const;
  [[nodiscard]] Move decideUpsize(InstIndex i) const;
  [[nodiscard]] Move decideDownsize(InstIndex i) const;
  enum class Stage { kElectrical, kTiming, kArea };
  /// Timing and area stage driver: decides every instance of `order` on
  /// the pool, then commits the moves through commitMoves.
  template <typename Decide>
  std::size_t decideAndCommit(Stage stage, std::span<const InstIndex> order,
                              const Decide& decide);
  /// Commits `moves` (moves[k] is order[k]'s) serially in `order`. An
  /// instance marked in `stale` is re-decided at its turn, and its mark is
  /// cleared. A commit marks in `stale` the instances whose decision it
  /// changed, and in dirty_ the electrical decisions it invalidated.
  /// Returns the number of committed moves.
  template <typename Decide>
  std::size_t commitMoves(Stage stage, std::span<const InstIndex> order,
                          std::span<Move> moves,
                          std::vector<std::uint8_t>& stale,
                          const Decide& decide);
  /// Ignores kNoInst and instances past the end of `flags` (those added
  /// since `flags` was sized: never in an order, and dirty when dirty_
  /// next grows).
  static void flag(std::vector<std::uint8_t>& flags, InstIndex i) {
    if (i < flags.size()) flags[i] = 1;
  }
  void splitNet(NetIndex net, std::size_t groups);
  [[nodiscard]] const Cell* bufferCellFor(double load) const;
  /// Applies a complete prefix's edits in commit order, as the electrical
  /// stage committed them: no decision and no drain runs.
  void replay(const SizingPrefix& prefix);
  /// Ends the recording, if one runs: the prefix keeps its first `edits`
  /// edits and resumes at `pass`.
  void cutPrefix(std::size_t pass, std::size_t edits);

  const Synthesizer& synth_;
  const tuning::CompiledConstraintView* view_;
  Design& design_;
  const SynthesisOptions& options_;
  SynthesisResult& result_;
  std::unique_ptr<sta::TimingAnalyzer> ownedAnalyzer_;
  sta::TimingAnalyzer& analyzer_;  ///< *ownedAnalyzer_ until released
  bool timingValid_ = false;  ///< the last refreshTiming() succeeded
  std::set<InstIndex> noDownsize_;
  /// Per-instance flag of the running timing or area stage: a committed
  /// move changed an input of this instance's decision.
  std::vector<std::uint8_t> stale_;
  /// Last electrical move of each instance, reused while its dirty_ flag is
  /// clear (DESIGN.md §9).
  std::vector<Move> electrical_;
  /// Per instance: an input of its electrical decision changed since the
  /// decision in electrical_ was made. Instances past the end are new.
  std::vector<std::uint8_t> dirty_;
  /// Nets split since the last fixFanout. With the nets created since, they
  /// are the only nets whose sink count can have grown.
  std::vector<NetIndex> splitNets_;
  std::size_t fanoutNets_ = 0;  ///< net count at the last fixFanout
  std::size_t analyzedNets_ = 0;
  /// The prefix being recorded; null once it is cut, or when replaying.
  SizingPrefix* record_ = nullptr;
};

bool Session::bindInitial() {
  for (InstIndex i = 0; i < design_.instanceCount(); ++i) {
    const netlist::Instance& inst = design_.instance(i);
    if (!inst.alive) continue;
    const auto& fam = synth_.family(inst.op);
    if (fam.empty()) return false;
    // Start lean: the smallest usable drive strength; the sizing loop grows
    // cells as timing and electrical constraints demand.
    design_.bindCell(i, fam.front());
  }
  return true;
}

const Cell* Session::bufferCellFor(double load) const {
  // Prefer real buffers; tuned libraries may leave none usable, in which
  // case the caller falls back to inverter pairs (paper section VII.A).
  const auto& bufs = synth_.family(PrimOp::kBuf);
  for (const Cell* c : bufs) {
    if (load <= 0.6 * maxLoadOf(*c, 0) && load >= minLoadOf(*c, 0)) {
      return c;
    }
  }
  return bufs.empty() ? nullptr : bufs.back();
}

void Session::splitNet(NetIndex net, std::size_t groups) {
  if (record_ != nullptr) {
    record_->edits.push_back(
        {nullptr, net, static_cast<std::uint32_t>(groups)});
  }
  const std::size_t fanout = design_.net(net).sinks.size();
  if (fanout < 2 || groups < 2) return;
  groups = std::min(groups, fanout);
  const std::size_t perGroup = (fanout + groups - 1) / groups;

  const auto& invFam = synth_.family(PrimOp::kInv);
  const bool useInvPair = synth_.family(PrimOp::kBuf).empty();
  if (useInvPair && invFam.empty()) return;  // nothing we can do

  // The sinks to move are the first `fanout` entries of the net's list; the
  // buffers' inputs join the list behind them. Sink k moves to target[k],
  // all in one pass over the list once every buffer exists.
  std::vector<NetIndex> target(fanout);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t begin = g * perGroup;
    if (begin >= fanout) break;
    const std::size_t end = std::min(begin + perGroup, fanout);

    NetIndex stage = net;
    if (useInvPair) {
      const NetIndex mid = design_.addNet(design_.freshName("bufn"));
      const NetIndex out = design_.addNet(design_.freshName("bufn"));
      const InstIndex i1 = design_.addInstance(design_.freshName("sibuf"),
                                               PrimOp::kInv, {stage}, {mid});
      const InstIndex i2 = design_.addInstance(design_.freshName("sibuf"),
                                               PrimOp::kInv, {mid}, {out});
      design_.bindCell(i1, invFam.front());
      design_.bindCell(i2, invFam.front());
      analyzer_.notifyBufferInsert(i1);
      analyzer_.notifyBufferInsert(i2);
      stage = out;
      result_.buffersInserted += 2;
    } else {
      const NetIndex out = design_.addNet(design_.freshName("bufn"));
      const InstIndex ib = design_.addInstance(design_.freshName("sibuf"),
                                               PrimOp::kBuf, {stage}, {out});
      const Cell* bc = bufferCellFor(0.0);
      assert(bc != nullptr);
      design_.bindCell(ib, bc);
      analyzer_.notifyBufferInsert(ib);
      stage = out;
      ++result_.buffersInserted;
    }
    // Re-read: adding nets may have moved the net list.
    const std::vector<netlist::SinkRef>& sinks = design_.net(net).sinks;
    for (std::size_t k = begin; k < end; ++k) {
      target[k] = stage;
      flag(dirty_, sinks[k].instance);  // its input net changes
      analyzer_.notifyReconnect(sinks[k].instance, sinks[k].inputSlot, net);
    }
  }
  design_.redistributeSinks(net, target);
  flag(dirty_, design_.net(net).driver);  // its output net lost its sinks
  splitNets_.push_back(net);
}

std::size_t Session::fixFanout() {
  // Visit, in index order, the nets split since the last call (a split
  // leaves one buffer sink per group on the net) and the nets created since.
  const std::size_t netCount = design_.netCount();
  std::vector<NetIndex> nets;
  nets.swap(splitNets_);
  std::erase_if(nets, [&](NetIndex n) { return n >= fanoutNets_; });
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  for (std::size_t n = fanoutNets_; n < netCount; ++n) {
    nets.push_back(static_cast<NetIndex>(n));
  }
  fanoutNets_ = netCount;

  std::size_t changes = 0;
  for (NetIndex n : nets) {
    const std::size_t fanout = design_.net(n).sinks.size();
    if (fanout <= options_.maxFanout) continue;
    splitNet(n, (fanout + options_.maxFanout - 1) / options_.maxFanout);
    ++changes;
  }
  return changes;
}

template <typename Decide>
std::size_t Session::decideAndCommit(Stage stage,
                                     std::span<const InstIndex> order,
                                     const Decide& decide) {
  std::vector<Move> moves(order.size());
  {
    SCT_TRACE_SPAN("synth.decide");
    parallel::parallelFor(
        order.size(), [&](std::size_t k) { moves[k] = decide(order[k]); },
        kDecideGrain);
  }
  stale_.assign(design_.instanceCount(), 0);
  return commitMoves(stage, order, moves, stale_, decide);
}

template <typename Decide>
std::size_t Session::commitMoves(Stage stage,
                                 std::span<const InstIndex> order,
                                 std::span<Move> moves,
                                 std::vector<std::uint8_t>& stale,
                                 const Decide& decide) {
  SCT_TRACE_SPAN("synth.commit");

  // Commit in stage order. A move changes the decision inputs of its
  // neighbours, so the serial loop would have decided them against the
  // edited design: mark them, and re-decide marked instances at their turn.
  // A resize can change the slew limit the cell imposes on its input nets
  // (read by their drivers) and, for timing upsizes only, the drive
  // resistance its sinks price; a split moves every sink of the net onto
  // a new net with no timing yet.
  const bool pinSize = stage != Stage::kArea;
  const bool sinksReadDriver = stage == Stage::kTiming;
  const bool check = sta::TimingAnalyzer::crossCheckEnabled();
  std::size_t changes = 0;
  std::size_t redecided = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const InstIndex i = order[k];
    if (stale[i] != 0) {
      moves[k] = decide(i);
      stale[i] = 0;
      ++redecided;
    } else if (check && decide(i) != moves[k]) {
      std::fprintf(stderr,
                   "SCT_STA_CHECK: speculative sizing move of %s diverged "
                   "from its serial re-decision\n",
                   design_.instance(i).name.c_str());
      std::abort();
    }
    const Move move = moves[k];
    if (move.cell != nullptr) {
      const netlist::Instance& inst = design_.instance(i);
      if (inputSlewLimit(inst, *inst.cell) !=
          inputSlewLimit(inst, *move.cell)) {
        for (NetIndex in : inst.inputs) {
          flag(stale, design_.net(in).driver);
          flag(dirty_, design_.net(in).driver);
        }
      }
      if (sinksReadDriver) {
        for (NetIndex out : inst.outputs) {
          for (const netlist::SinkRef& sink : design_.net(out).sinks) {
            flag(stale, sink.instance);
          }
        }
      }
      flag(dirty_, i);  // its own cell changes
      resize(i, move.cell);
      if (pinSize) noDownsize_.insert(i);
      ++changes;
    } else if (move.split != kNoNet) {
      for (const netlist::SinkRef& sink : design_.net(move.split).sinks) {
        flag(stale, sink.instance);
      }
      splitNet(move.split, 2);
      ++changes;
    }
  }
  if (stage == Stage::kElectrical) electricalDecisions().add(redecided);
  return changes;
}

Session::Move Session::decideElectrical(InstIndex i,
                                        std::size_t preNets) const {
  const netlist::Instance& inst = design_.instance(i);
  if (!inst.alive || inst.cell == nullptr) return {};
  const auto& fam = synth_.family(inst.op);
  if (fam.empty()) return {};

  for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
    const NetIndex out = inst.outputs[slot];
    if (out >= preNets) continue;  // created this pass; next pass
    const double load = analyzer_.netLoad(out);
    const double slewLimit = netSlewLimit(out);

    const bool loadHigh = load > maxLoadOf(*inst.cell, slot);
    const bool loadLow = load < minLoadOf(*inst.cell, slot);
    const bool slewHigh =
        worstTransitionAt(inst, *inst.cell, slot, load) > slewLimit;
    if (!loadHigh && !loadLow && !slewHigh) continue;

    // Find the smallest family member that fixes all three conditions.
    const Cell* best = nullptr;
    for (const Cell* c : fam) {
      if (load > maxLoadOf(*c, slot) || load < minLoadOf(*c, slot)) {
        continue;
      }
      if (!slewsAccepted(inst, *c, slot)) continue;
      if (worstTransitionAt(inst, *c, slot, load) > slewLimit) continue;
      best = c;
      break;
    }
    if (best != nullptr && best != inst.cell) return {best, kNoNet};
    if (best == nullptr && (loadHigh || slewHigh) &&
        design_.net(out).sinks.size() > 1) {
      return {nullptr, out};  // no size fits: split, retry next pass
    }
    return {};  // re-evaluate multi-output cells next pass
  }
  return {};
}

std::size_t Session::fixElectrical() {
  const std::size_t preNets = design_.netCount();
  const std::size_t count = design_.instanceCount();
  const auto decide = [&](InstIndex i) { return decideElectrical(i, preNets); };

  // Re-decide only the dirty instances; every other cached move is what a
  // fresh decision would give. The commit walks every instance in index
  // order, and its stale marks are dirty_ marks: an instance marked after
  // its turn is re-decided in the next pass.
  electrical_.resize(count);
  dirty_.resize(count, 1);
  std::vector<InstIndex> order(count);
  std::iota(order.begin(), order.end(), InstIndex{0});
  std::vector<InstIndex> redecide;
  for (InstIndex i : order) {
    if (dirty_[i] != 0) redecide.push_back(i);
  }
  {
    SCT_TRACE_SPAN("synth.decide");
    parallel::parallelFor(
        redecide.size(),
        [&](std::size_t k) { electrical_[redecide[k]] = decide(redecide[k]); },
        kDecideGrain);
  }
  for (InstIndex i : redecide) dirty_[i] = 0;
  electricalDecisions().add(redecide.size());
  if (sta::TimingAnalyzer::crossCheckEnabled()) {
    for (InstIndex i : order) {
      if (decide(i) == electrical_[i]) continue;
      std::fprintf(stderr,
                   "SCT_STA_CHECK: cached electrical move of %s differs "
                   "from a fresh decision\n",
                   design_.instance(i).name.c_str());
      std::abort();
    }
  }
  return commitMoves(Stage::kElectrical, order, electrical_, dirty_, decide);
}

Session::Move Session::decideUpsize(InstIndex i) const {
  const netlist::Instance& inst = design_.instance(i);
  const auto& fam = synth_.family(inst.op);
  const double currentStrength = inst.cell->driveStrength();

  // Upstream penalty of adding input capacitance: only drivers that are
  // themselves timing critical pay full price — loading a slack-rich
  // driver merely consumes its slack.
  double penaltyPerCap = 0.0;
  for (NetIndex in : inst.inputs) {
    const double r = driverResistance(in);
    const double driverSlack = analyzer_.netSlack(in);
    const double criticality =
        driverSlack < 0.0 ? 1.0 : (driverSlack < 0.05 ? 0.5 : 0.15);
    penaltyPerCap = std::max(penaltyPerCap, r * criticality);
  }
  const double oldCap = inst.cell->timing().totalInputCap();
  const SlotLimits slewLimits = outputSlewLimits(inst);

  const Cell* best = nullptr;
  double bestBenefit = kMinBenefit;
  double oldDelay = 0.0;
  double oldTrans = 0.0;
  for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
    const double load = analyzer_.netLoad(inst.outputs[slot]);
    const auto [d, t] = delayAndTransitionAt(inst, *inst.cell, slot, load);
    oldDelay = std::max(oldDelay, d);
    oldTrans = std::max(oldTrans, t);
  }
  for (const Cell* c : fam) {
    if (c->driveStrength() <= currentStrength) continue;
    const auto timing = candidateTiming(inst, *c, slewLimits);
    if (!timing) continue;
    const auto [newDelay, newTrans] = *timing;
    const double newCap = c->timing().totalInputCap();
    // A sharper output edge also speeds up the downstream stage; weight it
    // with the technology's typical slew-to-delay sensitivity.
    const double benefit = (oldDelay - newDelay) +
                           0.25 * (oldTrans - newTrans) -
                           penaltyPerCap * (newCap - oldCap);
    if (benefit > bestBenefit) {
      bestBenefit = benefit;
      best = c;
    }
  }
  return {best, kNoNet};
}

std::size_t Session::improveTiming() {
  // Candidate instances: negative slack through their output, most
  // critical first.
  std::vector<std::pair<double, InstIndex>> critical;
  for (InstIndex i = 0; i < design_.instanceCount(); ++i) {
    const netlist::Instance& inst = design_.instance(i);
    if (!inst.alive || inst.cell == nullptr) continue;
    double slack = kInf;
    for (NetIndex out : inst.outputs) {
      slack = std::min(slack, analyzer_.netSlack(out));
    }
    if (slack < 0.0) critical.emplace_back(slack, i);
  }
  std::sort(critical.begin(), critical.end());
  std::vector<InstIndex> order;
  order.reserve(critical.size());
  for (const auto& entry : critical) order.push_back(entry.second);
  return decideAndCommit(Stage::kTiming, order,
                         [&](InstIndex i) { return decideUpsize(i); });
}

Session::Move Session::decideDownsize(InstIndex i) const {
  const netlist::Instance& inst = design_.instance(i);
  if (!inst.alive || inst.cell == nullptr) return {};
  if (noDownsize_.contains(i)) return {};
  const auto& fam = synth_.family(inst.op);
  const double currentStrength = inst.cell->driveStrength();
  if (fam.empty() || fam.front() == inst.cell) return {};

  double slack = kInf;
  double oldDelay = 0.0;
  for (NetIndex out : inst.outputs) {
    slack = std::min(slack, analyzer_.netSlack(out));
  }
  if (slack == kInf || slack < options_.areaRecoveryMargin) return {};
  for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
    oldDelay = std::max(
        oldDelay, worstDelayAt(inst, *inst.cell, slot,
                               analyzer_.netLoad(inst.outputs[slot])));
  }

  // Largest downsize that keeps the margin and stays legal.
  const SlotLimits slewLimits = outputSlewLimits(inst);
  const Cell* best = nullptr;
  for (const Cell* c : fam) {
    if (c->driveStrength() >= currentStrength) break;
    const auto timing = candidateTiming(inst, *c, slewLimits);
    if (!timing) continue;
    const double newDelay = timing->first;
    if (slack - (newDelay - oldDelay) >= options_.areaRecoveryMargin) {
      best = c;
      break;  // smallest legal size wins (area first)
    }
  }
  if (best != nullptr && best->area() < inst.cell->area()) {
    return {best, kNoNet};
  }
  return {};
}

std::size_t Session::recoverArea() {
  std::vector<InstIndex> order(design_.instanceCount());
  std::iota(order.begin(), order.end(), InstIndex{0});
  return decideAndCommit(Stage::kArea, order,
                         [&](InstIndex i) { return decideDownsize(i); });
}

void Session::replay(const SizingPrefix& prefix) {
  SCT_TRACE_SPAN("synth.replay");
  for (const SizingPrefix::Edit& edit : prefix.edits) {
    if (edit.cell != nullptr) {
      resize(edit.target, edit.cell);
      noDownsize_.insert(edit.target);  // electrical resizes pin the size
    } else {
      splitNet(edit.target, edit.groups);
    }
  }
  // The next fixFanout visits every net, as a run's first one does. Only a
  // split net can exceed maxFanout, and the recorded run's fixFanout split
  // none at this pass (it adds no nets), so this one splits none either.
  splitNets_.clear();
  result_.passes = prefix.passes;
}

void Session::cutPrefix(std::size_t pass, std::size_t edits) {
  if (record_ == nullptr) return;
  record_->edits.resize(edits);
  record_->edits.shrink_to_fit();
  record_->passes = pass;
  record_->complete = true;
  record_ = nullptr;
}

void Session::optimize(SizingPrefix& prefix) {
  std::size_t first = 0;
  if (prefix.complete) {
    replay(prefix);
    first = prefix.passes;
  } else {
    prefix = {};
    record_ = &prefix;
  }
  replayedPasses().add(first);
  bool converged = false;
  for (std::size_t pass = first; pass < options_.maxPasses; ++pass) {
    result_.passes = pass + 1;
    const std::size_t logged = record_ != nullptr ? record_->edits.size() : 0;
    // Drain the previous pass's edits. The first pass of a run, and the
    // first after a replay, has no baseline and analyzes in full; either
    // way every pass starts from timing state identical to a from-scratch
    // analysis.
    if (!refreshTiming()) {  // combinational cycle: give up
      cutPrefix(pass, logged);
      return;
    }
    analyzedNets_ = design_.netCount();

    std::size_t changes = fixFanout();
    changes += fixElectrical();
    // Structural edits (buffer insertion) invalidate the timing annotation;
    // defer timing/area moves to the next pass so they act on fresh data.
    const bool structuralChange = design_.netCount() > analyzedNets_;
    if (!structuralChange) {
      // This pass reads slacks: the prefix ends before it.
      cutPrefix(pass, logged);
      if (analyzer_.worstSlack() < 0.0) {
        changes += improveTiming();
      } else if (changes == 0) {
        changes += recoverArea();
      }
    }
    if (changes == 0) {
      converged = true;
      break;
    }
  }
  cutPrefix(options_.maxPasses, record_ != nullptr ? record_->edits.size() : 0);
  if (!converged) {
    static obs::Counter& passLimitHits =
        obs::MetricsRegistry::global().counter("synth.pass_limit_hits");
    passLimitHits.inc();  // stopped at maxPasses with moves still pending
  }
  refreshTiming();
}

void Session::finalize() {
  SCT_TRACE_SPAN("synth.finalize");
  result_.worstSlack = analyzer_.worstSlack();
  result_.tns = analyzer_.totalNegativeSlack();
  result_.timingMet = analyzer_.met();
  result_.area = design_.totalArea();

  // Residual violation census.
  std::size_t violations = 0;
  for (InstIndex i = 0; i < design_.instanceCount(); ++i) {
    const netlist::Instance& inst = design_.instance(i);
    if (!inst.alive || inst.cell == nullptr) continue;
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const NetIndex out = inst.outputs[slot];
      const double load = analyzer_.netLoad(out);
      if (load > maxLoadOf(*inst.cell, slot) * (1.0 + 1e-9)) ++violations;
      if (load < minLoadOf(*inst.cell, slot) * (1.0 - 1e-9)) ++violations;
      if (analyzer_.netSlew(out) > netSlewLimit(out) * (1.0 + 1e-9)) {
        ++violations;
      }
      if (!slewsAccepted(inst, *inst.cell, slot)) ++violations;
    }
  }
  result_.violations = violations;
  result_.legal = violations == 0;
}

}  // namespace

bool rebindDesign(Design& design, const liberty::Library& library) {
  // Verify first so failure leaves the design untouched.
  for (const netlist::Instance& inst : design.instances()) {
    if (inst.alive && inst.cell != nullptr &&
        library.findCell(inst.cell->name()) == nullptr) {
      return false;
    }
  }
  for (InstIndex i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst = design.instance(i);
    if (!inst.alive || inst.cell == nullptr) continue;
    design.bindCell(i, library.findCell(inst.cell->name()));
  }
  return true;
}

MappedSubject Synthesizer::map(const Design& subject) const {
  SCT_TRACE_SPAN("synth.map");
  MappedSubject mapped;
  mapped.design = subject;  // work on a copy
  // Remove logic no output or register observes (generated subject graphs
  // carry unused carry-outs etc.); real synthesis sweeps these too.
  netlist::sweepDeadLogic(mapped.design);
  const auto usable = [this](PrimOp op) { return !family(op).empty(); };
  const long rewritten = decomposeUnusable(mapped.design, usable);
  if (rewritten < 0) return mapped;
  mapped.decomposed = static_cast<std::size_t>(rewritten);
  // Absorb single-fanout inverters into B-variant cells and collapse
  // 2-level mux trees into MUX4 (classic mapping patterns; see Fig. 9).
  mapped.patternRewrites = mapPatterns(mapped.design, usable).total();
  mapped.mappable = true;
  return mapped;
}

SynthesisResult Synthesizer::run(const Design& subject,
                                 const sta::ClockSpec& clock,
                                 const SynthesisOptions& options) const {
  return run(map(subject), clock, options);
}

SynthesisResult Synthesizer::run(MappedSubject mapped,
                                 const sta::ClockSpec& clock,
                                 const SynthesisOptions& options) const {
  SizingPrefix prefix;
  return run(std::move(mapped), clock, options, prefix);
}

SynthesisResult Synthesizer::run(MappedSubject mapped,
                                 const sta::ClockSpec& clock,
                                 const SynthesisOptions& options,
                                 SizingPrefix& prefix) const {
  SynthesisResult result;
  result.design = std::move(mapped.design);
  if (!mapped.mappable) return result;
  result.decomposed = mapped.decomposed;
  result.patternRewrites = mapped.patternRewrites;
  std::optional<Session> session;
  {
    SCT_TRACE_SPAN("synth.setup");
    session.emplace(*this, result.design, clock, options, result);
    if (!session->bindInitial()) return result;
  }
  session->optimize(prefix);
  session->finalize();
  result.timing = FinalTiming(session->releaseTiming());
  return result;
}

std::unique_ptr<sta::TimingAnalyzer> FinalTiming::take(
    const Design& design) noexcept {
  if (analyzer_) analyzer_->rebind(design);
  return std::move(analyzer_);
}

std::optional<double> Synthesizer::findMinPeriod(
    const Design& subject, sta::ClockSpec clock, double lo, double hi,
    double tolerance, const SynthesisOptions& options) const {
  const MappedSubject mapped = map(subject);
  SizingPrefix prefix;
  return bisectMinPeriod(lo, hi, tolerance, [&](double period) {
    clock.period = period;
    return run(mapped, clock, options, prefix).success();
  });
}

std::optional<double> bisectMinPeriod(
    double lo, double hi, double tolerance,
    const std::function<bool(double)>& feasible) {
  if (!feasible(hi)) return std::nullopt;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace sct::synth
