#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <queue>
#include <utility>

#include "core/env.hpp"
#include "netlist/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"

namespace sct::sta {

using liberty::ArcTiming;
using liberty::CompiledArc;
using liberty::CompiledCell;
using netlist::Design;
using netlist::Instance;
using netlist::InstIndex;
using netlist::kNoInst;
using netlist::kNoNet;
using netlist::NetIndex;
using netlist::PrimOp;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Drain marks (TimingAnalyzer::net_mark_ / inst_mark_).
constexpr std::uint8_t kNetTouched = 1;    ///< load re-summed this drain
constexpr std::uint8_t kNetChanged = 2;    ///< forward triple changed
constexpr std::uint8_t kNetQueued = 4;     ///< in the backward worklist
constexpr std::uint8_t kNetEpStale = 8;    ///< endpoint minimum to refold
constexpr std::uint8_t kInstDirty = 1;     ///< seeds the forward drain
constexpr std::uint8_t kInstEdited = 2;    ///< named by a pending edit
constexpr std::uint8_t kInstQueued = 4;    ///< in the forward worklist
constexpr std::uint8_t kInstRelevel = 8;   ///< in the level splice's heap

/// Instances that time through their data inputs: not sequential (clock
/// launched) and not tie cells.
bool isCombinational(const Instance& inst) {
  return !netlist::isSequential(inst.op) && netlist::numInputs(inst.op) != 0;
}

/// Incremental-STA worklist instrumentation (DESIGN.md §12): how big the
/// dirty seed sets are and how far the convergence sweeps actually reach.
/// Pure write-only observability — never read back by the analysis.
struct StaMetrics {
  obs::Counter& analyzeCalls;
  obs::Counter& updateCalls;
  obs::Counter& fullFallbacks;  ///< update() bailed to a from-scratch pass
  obs::Counter& fullSweeps;     ///< adaptive large-batch full-sweep path
  obs::Counter& levelEvals;     ///< computeLevel calls of the level splice
  obs::Histogram& dirtyInstances;
  obs::Histogram& forwardEvals;
  obs::Histogram& backwardEvals;

  static StaMetrics& get() {
    static constexpr double kWorklistBounds[] = {1,    4,    16,   64,
                                                 256,  1024, 4096, 16384};
    static StaMetrics instance{
        obs::MetricsRegistry::global().counter("sta.analyze.calls"),
        obs::MetricsRegistry::global().counter("sta.update.calls"),
        obs::MetricsRegistry::global().counter("sta.update.full_fallbacks"),
        obs::MetricsRegistry::global().counter("sta.update.full_sweeps"),
        obs::MetricsRegistry::global().counter("sta.update.level_evals"),
        obs::MetricsRegistry::global().histogram("sta.update.dirty_instances",
                                                 kWorklistBounds),
        obs::MetricsRegistry::global().histogram("sta.update.forward_evals",
                                                 kWorklistBounds),
        obs::MetricsRegistry::global().histogram("sta.update.backward_evals",
                                                 kWorklistBounds)};
    return instance;
  }
};
}  // namespace

std::string_view inputPinName(const Instance& inst,
                              std::uint32_t slot) noexcept {
  assert(inst.cell != nullptr);
  switch (inst.op) {
    case PrimOp::kDff:
    case PrimOp::kDffR:
      return "D";
    case PrimOp::kDffE:
      return slot == 0 ? "D" : "E";
    default:
      return liberty::dataInputNames(inst.cell->function())[slot];
  }
}

std::string_view outputPinName(const Instance& inst,
                               std::uint32_t slot) noexcept {
  assert(inst.cell != nullptr);
  return liberty::outputNames(inst.cell->function())[slot];
}

TimingAnalyzer::TimingAnalyzer(const Design& design,
                               const liberty::Library& library,
                               ClockSpec clock)
    : design_(&design), library_(library), clock_(clock) {}

void TimingAnalyzer::refreshInstanceViews() {
  inst_view_.assign(design_->instanceCount(), nullptr);
  for (std::size_t i = 0; i < design_->instanceCount(); ++i) {
    const Instance& inst = design_->instance(static_cast<InstIndex>(i));
    if (inst.alive && inst.cell != nullptr) {
      inst_view_[i] = &inst.cell->timing();
    }
  }
}

double TimingAnalyzer::recomputeNetLoad(NetIndex n) const {
  const netlist::Net& net = design_->net(n);
  double load = net.isPrimaryOutput ? clock_.outputLoad : 0.0;
  std::size_t fanout = 0;
  for (const netlist::SinkRef& sink : net.sinks) {
    const Instance& inst = design_->instance(sink.instance);
    if (!inst.alive || inst.cell == nullptr) continue;
    load += inst_view_[sink.instance]->inputCap(netlist::isSequential(inst.op),
                                                sink.inputSlot);
    ++fanout;
  }
  return load + clock_.wireLoad.netCap(fanout);
}

void TimingAnalyzer::computeLoads() {
  load_.assign(design_->netCount(), 0.0);
  for (NetIndex n = 0; n < design_->netCount(); ++n) {
    load_[n] = recomputeNetLoad(n);
  }
}

std::uint32_t TimingAnalyzer::computeLevel(const Instance& inst) const {
  std::uint32_t level = 0;
  for (NetIndex in : inst.inputs) {
    const InstIndex d = design_->net(in).driver;
    if (d == kNoInst) continue;
    if (!design_->instance(d).alive) continue;
    level = std::max(level, level_[d] + 1u);
  }
  return level;
}

void TimingAnalyzer::rebuildTopoFromLevels() const {
  // Counting sort: bucket offsets per level, then one scan in index order,
  // which leaves every bucket ascending by index.
  const std::size_t instCount = level_.size();
  std::vector<std::size_t> offset;
  std::size_t alive = 0;
  for (std::size_t i = 0; i < instCount; ++i) {
    if (!design_->instance(static_cast<InstIndex>(i)).alive) continue;
    const std::size_t bucket = std::size_t{level_[i]} + 1;
    if (bucket >= offset.size()) offset.resize(bucket + 1, 0);
    ++offset[bucket];
    ++alive;
  }
  for (std::size_t l = 1; l < offset.size(); ++l) offset[l] += offset[l - 1];
  topo_.resize(alive);
  for (std::size_t i = 0; i < instCount; ++i) {
    if (!design_->instance(static_cast<InstIndex>(i)).alive) continue;
    topo_[offset[level_[i]]++] = static_cast<InstIndex>(i);
  }
  topo_stale_ = false;
}

const std::vector<InstIndex>& TimingAnalyzer::topoOrder() const {
  if (topo_stale_) rebuildTopoFromLevels();
  return topo_;
}

void TimingAnalyzer::growArcDelays() {
  for (std::size_t i = arc_offset_.size(); i < design_->instanceCount(); ++i) {
    const Instance& inst = design_->instance(static_cast<InstIndex>(i));
    arc_offset_.push_back(static_cast<std::uint32_t>(arc_delay_.size()));
    if (isCombinational(inst)) {
      arc_delay_.resize(arc_delay_.size() +
                            inst.inputs.size() * inst.outputs.size(),
                        0.0);
    }
  }
}

void TimingAnalyzer::LevelWorklist::push(std::uint32_t level,
                                         std::uint32_t item) {
  if (level >= buckets_.size()) buckets_.resize(std::size_t{level} + 1);
  buckets_[level].push_back(item);
  lo_ = std::min(lo_, level);
  hi_ = std::max(hi_, level);
}

template <class Visit>
void TimingAnalyzer::LevelWorklist::drainAscending(Visit&& visit) {
  // hi_ is re-read as visits push higher; buckets are indexed, never held
  // by reference, because a push may grow buckets_.
  for (std::uint32_t level = lo_; level <= hi_; ++level) {
    for (std::size_t k = 0; k < buckets_[level].size(); ++k) {
      visit(buckets_[level][k]);
    }
    buckets_[level].clear();
  }
  lo_ = UINT32_MAX;
  hi_ = 0;
}

template <class Visit>
void TimingAnalyzer::LevelWorklist::drainDescending(Visit&& visit) {
  if (lo_ > hi_) return;  // empty
  // lo_ is re-read as visits push lower.
  for (std::uint32_t level = hi_ + 1; level-- > lo_;) {
    for (std::size_t k = 0; k < buckets_[level].size(); ++k) {
      visit(buckets_[level][k]);
    }
    buckets_[level].clear();
  }
  lo_ = UINT32_MAX;
  hi_ = 0;
}

template <class Visit>
void TimingAnalyzer::LevelWorklist::drainLowestFirst(Visit&& visit) {
  // A push below lo_ lowers it, so the loop always takes from the lowest
  // occupied bucket.
  while (lo_ <= hi_) {
    if (buckets_[lo_].empty()) {
      ++lo_;
      continue;
    }
    const std::uint32_t item = buckets_[lo_].back();
    buckets_[lo_].pop_back();
    visit(item);
  }
  lo_ = UINT32_MAX;
  hi_ = 0;
}

void TimingAnalyzer::evalInstance(InstIndex index,
                                  std::vector<NetIndex>* changedNets) {
  const Instance& inst = design_->instance(index);
  if (!inst.alive || inst.cell == nullptr) return;
  const CompiledCell* view = inst_view_[index];
  assert(view != nullptr);

  const auto commit = [&](NetIndex out, double a, double m, double s,
                          const Pred& p) {
    const bool slewChanged = s != slew_[out];
    const bool changed =
        a != arrival_[out] || m != min_arrival_[out] || slewChanged;
    arrival_[out] = a;
    min_arrival_[out] = m;
    slew_[out] = s;
    pred_[out] = p;
    if (changedNets == nullptr) return;
    if (changed) changedNets->push_back(out);
    if (slewChanged) changes_.slews.push_back(out);
  };

  if (netlist::numInputs(inst.op) == 0) {
    // Tie cells: static outputs.
    for (NetIndex out : inst.outputs) {
      commit(out, 0.0, 0.0, clock_.inputSlew, Pred{});
    }
    return;
  }

  if (netlist::isSequential(inst.op)) {
    // Launch: clock -> Q through the precompiled clk->Q arc.
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const NetIndex out = inst.outputs[slot];
      const CompiledArc& arc = view->clockArc(slot);
      assert(arc);
      const ArcTiming t = arc.evaluate(clock_.clockSlew, load_[out]);
      commit(out, t.worstDelay, t.bestDelay, t.worstTransition,
             Pred{index, arc.arc(), 0, t.worstDelay, clock_.clockSlew});
    }
    return;
  }

  double* delays = arc_delay_.data() + arc_offset_[index];
  const std::size_t stride = inst.outputs.size();
  for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
    const NetIndex out = inst.outputs[slot];
    double bestArrival = -kInf;
    double earliest = kInf;
    double worstSlew = 0.0;
    Pred best;
    for (std::uint32_t i = 0; i < inst.inputs.size(); ++i) {
      const CompiledArc& arc = view->arc(i, slot);
      double& cached = delays[i * stride + slot];
      if (!arc) {
        cached = 0.0;  // never read; kept equal to a fresh analysis's slot
        continue;
      }
      const NetIndex in = inst.inputs[i];
      const ArcTiming t = arc.evaluate(slew_[in], load_[out]);
      const double delay = t.worstDelay;
      cached = delay;
      const double cand = arrival_[in] + delay;
      if (cand > bestArrival) {
        bestArrival = cand;
        best = Pred{index, arc.arc(), i, delay, slew_[in]};
      }
      earliest = std::min(earliest, min_arrival_[in] + t.bestDelay);
      worstSlew = std::max(worstSlew, t.worstTransition);
    }
    assert(best.arc != nullptr);
    commit(out, bestArrival, earliest, worstSlew, best);
  }
}

void TimingAnalyzer::propagateArrivals() {
  arrival_.assign(design_->netCount(), 0.0);
  min_arrival_.assign(design_->netCount(), 0.0);
  slew_.assign(design_->netCount(), clock_.inputSlew);
  pred_.assign(design_->netCount(), Pred{});

  for (const netlist::Port& port : design_->ports()) {
    if (port.direction == netlist::PortDirection::kInput) {
      arrival_[port.net] = clock_.inputDelay;
      min_arrival_[port.net] = clock_.inputDelay;
      slew_[port.net] = clock_.inputSlew;
    }
  }

  for (InstIndex index : topoOrder()) {
    assert(design_->instance(index).cell != nullptr &&
           "STA requires a mapped design");
    evalInstance(index, nullptr);
  }
}

void TimingAnalyzer::collectEndpoints() {
  endpoints_.clear();
  worst_slack_ = kInf;
  worst_hold_slack_ = kInf;
  tns_ = 0.0;
  ep_required_.assign(design_->netCount(), kInf);

  auto finish = [&](const Endpoint& ep0) {
    Endpoint ep = ep0;
    ep.slack = ep.required - ep.arrival;
    worst_slack_ = std::min(worst_slack_, ep.slack);
    if (ep.slack < 0.0) tns_ += ep.slack;
    ep_required_[ep.net] = std::min(ep_required_[ep.net], ep.required);
    endpoints_.push_back(ep);
  };

  for (std::size_t i = 0; i < design_->instanceCount(); ++i) {
    const Instance& inst = design_->instance(static_cast<InstIndex>(i));
    if (!inst.alive || !netlist::isSequential(inst.op)) continue;
    for (std::uint32_t slot = 0; slot < inst.inputs.size(); ++slot) {
      Endpoint ep;
      ep.instance = static_cast<InstIndex>(i);
      ep.inputSlot = slot;
      ep.net = inst.inputs[slot];
      ep.arrival = arrival_[ep.net];
      ep.required = clock_.effectivePeriod() -
                    inst.cell->setupTime(slew_[ep.net], clock_.clockSlew);
      // Hold: data launched by this edge must not race through before the
      // capturing flop's hold window closes (ideal clock, zero skew).
      ep.minArrival = min_arrival_[ep.net];
      ep.holdSlack = ep.minArrival - inst.cell->holdTime();
      worst_hold_slack_ = std::min(worst_hold_slack_, ep.holdSlack);
      finish(ep);
    }
  }
  for (std::size_t p = 0; p < design_->ports().size(); ++p) {
    const netlist::Port& port = design_->ports()[p];
    if (port.direction != netlist::PortDirection::kOutput) continue;
    Endpoint ep;
    ep.net = port.net;
    ep.port = static_cast<std::uint32_t>(p);
    ep.arrival = arrival_[port.net];
    ep.required = clock_.effectivePeriod();
    finish(ep);
  }
  if (endpoints_.empty()) worst_slack_ = 0.0;
}

void TimingAnalyzer::propagateRequired() {
  required_ = ep_required_;
  const std::vector<InstIndex>& order = topoOrder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Instance& inst = design_->instance(*it);
    if (!isCombinational(inst)) continue;
    const CompiledCell* view = inst_view_[*it];
    const double* delays = arcDelays(*it);
    const std::size_t stride = inst.outputs.size();
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const NetIndex out = inst.outputs[slot];
      if (required_[out] == kInf) continue;
      for (std::uint32_t i = 0; i < inst.inputs.size(); ++i) {
        if (!view->arc(i, slot)) continue;
        const NetIndex in = inst.inputs[i];
        required_[in] = std::min(required_[in],
                                 required_[out] - delays[i * stride + slot]);
      }
    }
  }
}

double TimingAnalyzer::recomputeRequired(NetIndex n) const {
  double r = ep_required_[n];
  for (const netlist::SinkRef& sink : design_->net(n).sinks) {
    const Instance& inst = design_->instance(sink.instance);
    if (!inst.alive || inst.cell == nullptr) continue;
    if (!isCombinational(inst)) continue;
    const CompiledCell* view = inst_view_[sink.instance];
    const double* delays =
        arcDelays(sink.instance) + sink.inputSlot * inst.outputs.size();
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const NetIndex out = inst.outputs[slot];
      if (required_[out] == kInf) continue;
      if (!view->arc(sink.inputSlot, slot)) continue;
      r = std::min(r, required_[out] - delays[slot]);
    }
  }
  return r;
}

bool TimingAnalyzer::analyze() {
  SCT_TRACE_SPAN("sta.analyze");
  StaMetrics::get().analyzeCalls.inc();
  pending_.clear();
  baseline_valid_ = false;
  changes_.full = true;
  changes_.loads.clear();
  changes_.slews.clear();
  // A mapped design is a precondition; fail cleanly on unmapped instances
  // (e.g. when synthesis could not find usable cells for every function).
  for (std::size_t i = 0; i < design_->instanceCount(); ++i) {
    const Instance& inst = design_->instance(static_cast<InstIndex>(i));
    if (inst.alive && inst.cell == nullptr) return false;
  }
  refreshInstanceViews();
  computeLoads();
  if (!netlist::levelize(*design_, topo_, level_)) return false;
  topo_stale_ = false;
  arc_offset_.clear();
  arc_delay_.clear();
  growArcDelays();
  net_mark_.assign(design_->netCount(), 0);
  inst_mark_.assign(design_->instanceCount(), 0);
  propagateArrivals();
  collectEndpoints();
  propagateRequired();
  baseline_valid_ = true;
  return true;
}

void TimingAnalyzer::notifyCellSwap(InstIndex instance) {
  pending_.push_back(PendingEdit{PendingEdit::Kind::kCellSwap, instance, 0,
                                 kNoNet});
}

void TimingAnalyzer::notifyBufferInsert(InstIndex instance) {
  pending_.push_back(PendingEdit{PendingEdit::Kind::kNewInstance, instance, 0,
                                 kNoNet});
}

void TimingAnalyzer::notifyReconnect(InstIndex sink, std::uint32_t slot,
                                     NetIndex previousNet) {
  pending_.push_back(
      PendingEdit{PendingEdit::Kind::kReconnect, sink, slot, previousNet});
}

void TimingAnalyzer::refreshEndpoints(std::vector<NetIndex>& seeds) {
  worst_slack_ = kInf;
  worst_hold_slack_ = kInf;
  tns_ = 0.0;
  const auto markEpStale = [&](NetIndex n) {
    if ((net_mark_[n] & kNetEpStale) != 0) return;
    net_mark_[n] |= kNetEpStale;
    ep_required_[n] = kInf;
    seeds.push_back(n);
  };
  bool refold = false;
  for (Endpoint& ep : endpoints_) {
    if (ep.instance != kNoInst) {
      const Instance& inst = design_->instance(ep.instance);
      const NetIndex net = inst.inputs[ep.inputSlot];
      if ((inst_mark_[ep.instance] & kInstEdited) != 0 ||
          (net_mark_[net] & kNetChanged) != 0) {
        const double required =
            clock_.effectivePeriod() -
            inst.cell->setupTime(slew_[net], clock_.clockSlew);
        if (net != ep.net || required != ep.required) {
          markEpStale(ep.net);
          markEpStale(net);
          refold = true;
          ep.net = net;
          ep.required = required;
        }
      }
      ep.minArrival = min_arrival_[net];
      ep.holdSlack = ep.minArrival - inst.cell->holdTime();
      worst_hold_slack_ = std::min(worst_hold_slack_, ep.holdSlack);
    }
    ep.arrival = arrival_[ep.net];
    ep.slack = ep.required - ep.arrival;
    worst_slack_ = std::min(worst_slack_, ep.slack);
    if (ep.slack < 0.0) tns_ += ep.slack;
  }
  if (endpoints_.empty()) worst_slack_ = 0.0;
  if (!refold) return;
  // Same endpoint-order fold as collectEndpoints(), on the stale nets only.
  for (const Endpoint& ep : endpoints_) {
    if ((net_mark_[ep.net] & kNetEpStale) == 0) continue;
    ep_required_[ep.net] = std::min(ep_required_[ep.net], ep.required);
  }
}

bool TimingAnalyzer::update() {
  changes_.full = false;
  changes_.loads.clear();
  changes_.slews.clear();
  if (!baseline_valid_) return analyze();
  if (pending_.empty()) return true;
  SCT_TRACE_SPAN("sta.update");
  StaMetrics& metrics = StaMetrics::get();
  metrics.updateCalls.inc();

  const std::size_t netCount = design_->netCount();
  const std::size_t instCount = design_->instanceCount();

  // Grow per-net / per-instance state for netlist growth since the baseline;
  // defaults match the initial values of a full propagation.
  load_.resize(netCount, 0.0);
  arrival_.resize(netCount, 0.0);
  min_arrival_.resize(netCount, 0.0);
  slew_.resize(netCount, clock_.inputSlew);
  required_.resize(netCount, kInf);
  ep_required_.resize(netCount, kInf);
  pred_.resize(netCount);
  net_mark_.resize(netCount, 0);
  level_.resize(instCount, 0);
  inst_view_.resize(instCount, nullptr);
  inst_mark_.resize(instCount, 0);
  growArcDelays();

  // --- classify the recorded edits -----------------------------------------
  // Every marked net is also a backward seed and every marked instance is
  // dirty, so clearing the marks of those two lists resets the scratch.
  std::vector<NetIndex> touchedNets;
  std::vector<InstIndex> dirtyInsts;
  std::vector<NetIndex> backwardSeeds;
  bool structural = false;

  const auto touchNet = [&](NetIndex n) {
    if (n == kNoNet || n >= netCount) return;
    backwardSeeds.push_back(n);
    if ((net_mark_[n] & kNetTouched) != 0) return;
    net_mark_[n] |= kNetTouched;
    touchedNets.push_back(n);
  };
  const auto markDirty = [&](InstIndex i) {
    if ((inst_mark_[i] & kInstDirty) != 0) return;
    inst_mark_[i] |= kInstDirty;
    dirtyInsts.push_back(i);
  };
  const auto clearMarks = [&]() {
    for (NetIndex n : backwardSeeds) net_mark_[n] = 0;
    for (InstIndex i : dirtyInsts) inst_mark_[i] = 0;
  };

  for (const PendingEdit& edit : pending_) {
    const Instance& inst = design_->instance(edit.instance);
    if (!inst.alive || inst.cell == nullptr ||
        (edit.kind == PendingEdit::Kind::kNewInstance &&
         netlist::isSequential(inst.op))) {
      // Removed or unmapped mid-flight, or a new endpoint: outside the
      // incremental contract.
      metrics.fullFallbacks.inc();
      return analyze();
    }
    switch (edit.kind) {
      case PendingEdit::Kind::kCellSwap:
        // New LUTs and input caps: re-evaluate the instance, re-sum the
        // loads it presents, and redo required times into its inputs.
        inst_view_[edit.instance] = &inst.cell->timing();
        for (NetIndex in : inst.inputs) touchNet(in);
        break;
      case PendingEdit::Kind::kNewInstance:
        structural = true;
        inst_view_[edit.instance] = &inst.cell->timing();
        for (NetIndex in : inst.inputs) touchNet(in);
        for (NetIndex out : inst.outputs) touchNet(out);
        break;
      case PendingEdit::Kind::kReconnect:
        structural = true;
        touchNet(edit.oldNet);
        if (edit.slot < inst.inputs.size()) touchNet(inst.inputs[edit.slot]);
        break;
    }
    markDirty(edit.instance);
    inst_mark_[edit.instance] |= kInstEdited;
  }
  pending_.clear();

  // --- loads ----------------------------------------------------------------
  // Fresh sink-order summation per touched net (never +/- deltas, so the
  // result is bit-identical to computeLoads()). A changed load re-times the
  // net's driver and invalidates required times into that driver.
  for (NetIndex n : touchedNets) {
    const double load = recomputeNetLoad(n);
    if (load == load_[n]) continue;
    load_[n] = load;
    changes_.loads.push_back(n);
    const InstIndex d = design_->net(n).driver;
    if (d == kNoInst) continue;
    const Instance& drv = design_->instance(d);
    if (!drv.alive || drv.cell == nullptr) continue;
    markDirty(d);
    for (NetIndex in : drv.inputs) backwardSeeds.push_back(in);
  }

  // --- levelization splice --------------------------------------------------
  // Structural edits move instances between levels; relax the affected
  // region forward to a fixpoint instead of re-running Kahn globally. The
  // region is drained lowest current level first, and the worklist holds
  // each instance at most once, so an instance is re-levelled after the
  // fanins that move before it instead of once per fanin move. Any visit
  // order reaches the same fixpoint. The topological order is rebuilt from
  // the levels only when next needed.
  if (structural) {
    topo_stale_ = true;
    const auto enqueueLevel = [&](InstIndex i) {
      if ((inst_mark_[i] & kInstRelevel) != 0) return;
      inst_mark_[i] |= kInstRelevel;
      forward_.push(level_[i], i);
    };
    for (InstIndex i : dirtyInsts) enqueueLevel(i);
    std::size_t relaxations = 0;
    std::uint64_t levelEvals = 0;
    const std::size_t relaxationCap = 16 * instCount + 64;
    bool cyclic = false;
    forward_.drainLowestFirst([&](InstIndex index) {
      inst_mark_[index] &= static_cast<std::uint8_t>(~kInstRelevel);
      // Past the cap (a combinational cycle introduced by edits) the rest
      // of the worklist is only emptied.
      if (cyclic || ++relaxations > relaxationCap) {
        cyclic = true;
        return;
      }
      const Instance& inst = design_->instance(index);
      if (!inst.alive || !isCombinational(inst)) return;  // sources: 0
      ++levelEvals;
      const std::uint32_t level = computeLevel(inst);
      if (level == level_[index]) return;
      // No level of an acyclic netlist reaches its instance count.
      if (level >= instCount) {
        cyclic = true;
        return;
      }
      level_[index] = level;
      for (NetIndex out : inst.outputs) {
        for (const netlist::SinkRef& sink : design_->net(out).sinks) {
          const Instance& target = design_->instance(sink.instance);
          if (!target.alive || !isCombinational(target)) continue;
          enqueueLevel(sink.instance);
        }
      }
    });
    metrics.levelEvals.add(levelEvals);
    if (cyclic) {
      metrics.fullFallbacks.inc();
      return analyze();
    }
  }

  // --- adaptive fallback ----------------------------------------------------
  // A drain seeded with a large fraction of the design (the first electrical
  // fix-up pass resizes most gates) pays more in worklist bookkeeping than
  // the plain level-order sweeps of a full pass. The sweeps reassign every
  // array entry and are order-independent within a valid topological order,
  // so the spliced levels stand in for a Kahn re-levelization.
  metrics.dirtyInstances.observe(static_cast<double>(dirtyInsts.size()));
  if (dirtyInsts.size() * 4 > instCount) {
    metrics.fullSweeps.inc();
    changes_.full = true;
    clearMarks();
    computeLoads();
    propagateArrivals();
    collectEndpoints();
    propagateRequired();
    return true;
  }

  // --- forward propagation --------------------------------------------------
  // Dirty instances seed the level worklist. Levels strictly increase along
  // every driver->sink edge, so each instance is evaluated at most once and
  // always after its relevant fan-in settled; propagation stops where the
  // (arrival, minArrival, slew) triple is bitwise unchanged.
  const auto enqueueFwd = [&](InstIndex i) {
    if ((inst_mark_[i] & kInstQueued) != 0) return;
    inst_mark_[i] |= kInstQueued;
    forward_.push(level_[i], i);
  };
  for (InstIndex i : dirtyInsts) enqueueFwd(i);

  std::vector<NetIndex> changedNets;
  std::size_t forwardEvals = 0;
  forward_.drainAscending([&](InstIndex index) {
    inst_mark_[index] &= static_cast<std::uint8_t>(~kInstQueued);
    ++forwardEvals;
    changedNets.clear();
    evalInstance(index, &changedNets);
    for (NetIndex out : changedNets) {
      if ((net_mark_[out] & kNetChanged) == 0) {
        net_mark_[out] |= kNetChanged;
        backwardSeeds.push_back(out);
      }
      for (const netlist::SinkRef& sink : design_->net(out).sinks) {
        const Instance& target = design_->instance(sink.instance);
        if (!target.alive || target.cell == nullptr) continue;
        // Endpoints: the census below picks up the new arrival.
        if (!isCombinational(target)) continue;
        enqueueFwd(sink.instance);
      }
    }
  });

  // --- endpoint census ------------------------------------------------------
  refreshEndpoints(backwardSeeds);

  // --- backward required ----------------------------------------------------
  // Seeds: nets whose forward triple changed, inputs of re-timed or
  // re-compiled instances, both sides of every reconnect and nets whose
  // endpoint required time moved. Nets drain in decreasing driver-level
  // order, so each net is recomputed at most once, after all of its sinks'
  // output nets settled. The arc delays read here are current: every
  // instance whose input slew, output load, cell or input net changed was
  // evaluated by the forward drain.
  const auto enqueueBwd = [&](NetIndex n) {
    if ((net_mark_[n] & kNetQueued) != 0) return;
    net_mark_[n] |= kNetQueued;
    const InstIndex d = design_->net(n).driver;
    backward_.push(d == kNoInst ? 0u : level_[d] + 1u, n);
  };
  for (NetIndex n : backwardSeeds) enqueueBwd(n);

  std::size_t backwardEvals = 0;
  backward_.drainDescending([&](NetIndex n) {
    net_mark_[n] &= static_cast<std::uint8_t>(~kNetQueued);
    ++backwardEvals;
    const double r = recomputeRequired(n);
    if (r == required_[n]) return;
    required_[n] = r;
    const InstIndex d = design_->net(n).driver;
    if (d == kNoInst) return;
    const Instance& drv = design_->instance(d);
    if (!drv.alive || !isCombinational(drv)) return;
    for (NetIndex in : drv.inputs) enqueueBwd(in);
  });

  metrics.forwardEvals.observe(static_cast<double>(forwardEvals));
  metrics.backwardEvals.observe(static_cast<double>(backwardEvals));
  clearMarks();
  return true;
}

std::string endpointName(const Design& design, const Endpoint& endpoint) {
  if (endpoint.instance != kNoInst) {
    const Instance& inst = design.instance(endpoint.instance);
    return inst.name + "/" +
           std::string(inputPinName(inst, endpoint.inputSlot));
  }
  if (endpoint.port < design.ports().size()) {
    return design.ports()[endpoint.port].name;
  }
  return "PO";
}

std::string TimingAnalyzer::endpointName(const Endpoint& endpoint) const {
  return sta::endpointName(*design_, endpoint);
}

bool TimingAnalyzer::crossCheckEnabled() {
  static const bool enabled = env::parseFlag(
      "SCT_STA_CHECK", env::get("SCT_STA_CHECK").value_or(""), false);
  return enabled;
}

void TimingAnalyzer::crossCheck(const char* what) const {
  if (!crossCheckEnabled()) return;
  const std::string diff = diffAgainstReference();
  if (diff.empty()) return;
  std::fprintf(stderr,
               "SCT_STA_CHECK: %s diverged from full analyze(): %s\n", what,
               diff.c_str());
  std::abort();
}

namespace {

std::string describeDiff(const char* what, std::size_t index, double got,
                         double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s[%zu]: incremental=%.17g reference=%.17g",
                what, index, got, want);
  return buf;
}

}  // namespace

std::string TimingAnalyzer::diffAgainstReference() const {
  TimingAnalyzer ref(*design_, library_, clock_);
  if (!ref.analyze()) return "reference analyze() failed";

  const auto diffVec = [](const char* what, const std::vector<double>& got,
                          const std::vector<double>& want) -> std::string {
    if (got.size() != want.size()) {
      return std::string(what) + ": size mismatch";
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != want[i]) return describeDiff(what, i, got[i], want[i]);
    }
    return {};
  };

  std::string d;
  if (!(d = diffVec("load", load_, ref.load_)).empty()) return d;
  if (!(d = diffVec("arrival", arrival_, ref.arrival_)).empty()) return d;
  if (!(d = diffVec("minArrival", min_arrival_, ref.min_arrival_)).empty()) {
    return d;
  }
  if (!(d = diffVec("slew", slew_, ref.slew_)).empty()) return d;
  if (!(d = diffVec("required", required_, ref.required_)).empty()) return d;
  if (!(d = diffVec("epRequired", ep_required_, ref.ep_required_)).empty()) {
    return d;
  }
  if (arc_offset_ != ref.arc_offset_) return "arcOffset: layout mismatch";
  if (!(d = diffVec("arcDelay", arc_delay_, ref.arc_delay_)).empty()) return d;

  if (pred_.size() != ref.pred_.size()) return "pred: size mismatch";
  for (std::size_t i = 0; i < pred_.size(); ++i) {
    if (pred_[i].instance != ref.pred_[i].instance ||
        pred_[i].inputSlot != ref.pred_[i].inputSlot ||
        pred_[i].delay != ref.pred_[i].delay ||
        pred_[i].inputSlew != ref.pred_[i].inputSlew) {
      return describeDiff("pred.delay", i, pred_[i].delay, ref.pred_[i].delay);
    }
  }

  if (endpoints_.size() != ref.endpoints_.size()) {
    return "endpoints: size mismatch";
  }
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const Endpoint& a = endpoints_[i];
    const Endpoint& b = ref.endpoints_[i];
    if (a.instance != b.instance || a.inputSlot != b.inputSlot ||
        a.net != b.net || a.port != b.port) {
      return "endpoints[" + std::to_string(i) + "]: identity mismatch";
    }
    if (a.arrival != b.arrival) {
      return describeDiff("endpoint.arrival", i, a.arrival, b.arrival);
    }
    if (a.required != b.required) {
      return describeDiff("endpoint.required", i, a.required, b.required);
    }
    if (a.slack != b.slack) {
      return describeDiff("endpoint.slack", i, a.slack, b.slack);
    }
    if (a.minArrival != b.minArrival) {
      return describeDiff("endpoint.minArrival", i, a.minArrival,
                          b.minArrival);
    }
    if (a.holdSlack != b.holdSlack) {
      return describeDiff("endpoint.holdSlack", i, a.holdSlack, b.holdSlack);
    }
  }
  if (worst_slack_ != ref.worst_slack_) {
    return describeDiff("worstSlack", 0, worst_slack_, ref.worst_slack_);
  }
  if (tns_ != ref.tns_) return describeDiff("tns", 0, tns_, ref.tns_);
  if (worst_hold_slack_ != ref.worst_hold_slack_) {
    return describeDiff("worstHoldSlack", 0, worst_hold_slack_,
                        ref.worst_hold_slack_);
  }
  return {};
}

TimingPath TimingAnalyzer::worstPathTo(const Endpoint& endpoint) const {
  TimingPath path;
  path.endpoint = endpoint;
  NetIndex net = endpoint.net;
  while (net != kNoNet) {
    const Pred& pred = pred_[net];
    if (pred.instance == kNoInst || pred.arc == nullptr) break;  // PI or tie
    const Instance& inst = design_->instance(pred.instance);
    path.steps.push_back(PathStep{pred.instance, inst.cell, pred.arc,
                                  pred.inputSlew, load_[net], pred.delay});
    if (netlist::isSequential(inst.op)) break;  // launching flip-flop
    net = inst.inputs[pred.inputSlot];
  }
  std::reverse(path.steps.begin(), path.steps.end());
  return path;
}

TimingPath TimingAnalyzer::criticalPath() const {
  const Endpoint* worst = nullptr;
  for (const Endpoint& ep : endpoints_) {
    if (worst == nullptr || ep.slack < worst->slack) worst = &ep;
  }
  if (worst == nullptr) return {};
  return worstPathTo(*worst);
}

std::vector<TimingPath> TimingAnalyzer::kWorstPathsTo(
    const Endpoint& endpoint, std::size_t k) const {
  // Best-first backward enumeration: a partial path is a suffix of steps
  // from some net to the endpoint; its bound is the best achievable total
  // arrival (forward arrival at the net plus the suffix delay), which is
  // exact, so paths pop in decreasing-arrival order.
  struct Partial {
    NetIndex net = kNoNet;
    double suffixDelay = 0.0;
    double bound = 0.0;
    std::vector<PathStep> reversedSteps;  // endpoint-side first
  };
  auto worseBound = [](const Partial& a, const Partial& b) {
    return a.bound < b.bound;
  };
  std::priority_queue<Partial, std::vector<Partial>, decltype(worseBound)>
      queue(worseBound);
  queue.push(Partial{endpoint.net, 0.0, arrival_[endpoint.net], {}});

  std::vector<TimingPath> out;
  // Guard against pathological fan-in explosions.
  std::size_t expansions = 0;
  const std::size_t expansionCap = 20000 + 200 * k;
  while (!queue.empty() && out.size() < k && expansions < expansionCap) {
    ++expansions;
    Partial p = queue.top();
    queue.pop();
    const netlist::Net& net = design_->net(p.net);

    auto emit = [&](std::vector<PathStep> steps, double arrivalAtSource) {
      std::reverse(steps.begin(), steps.end());
      TimingPath path;
      path.steps = std::move(steps);
      path.endpoint = endpoint;
      path.endpoint.arrival = arrivalAtSource + p.suffixDelay;
      path.endpoint.slack = path.endpoint.required - path.endpoint.arrival;
      out.push_back(std::move(path));
    };

    if (net.driver == kNoInst) {
      emit(p.reversedSteps, clock_.inputDelay);  // primary-input launch
      continue;
    }
    const Instance& drv = design_->instance(net.driver);
    if (netlist::numInputs(drv.op) == 0) {
      emit(p.reversedSteps, 0.0);  // tie cell
      continue;
    }
    const CompiledCell& view = drv.cell->timing();
    if (netlist::isSequential(drv.op)) {
      const liberty::TimingArc* arc = view.clockArc(net.driverSlot).arc();
      if (arc == nullptr) continue;
      const double delay = arc->worstDelay(clock_.clockSlew, load_[p.net]);
      std::vector<PathStep> steps = p.reversedSteps;
      steps.push_back(PathStep{net.driver, drv.cell, arc, clock_.clockSlew,
                               load_[p.net], delay});
      // The launch arrival is the flip-flop's clk->Q delay (the appended
      // step's delay is not folded into suffixDelay, so add it here).
      emit(std::move(steps), delay);
      continue;
    }
    // Combinational driver: branch over every fan-in arc.
    for (std::uint32_t i = 0; i < drv.inputs.size(); ++i) {
      const liberty::TimingArc* arc = view.arc(i, net.driverSlot).arc();
      if (arc == nullptr) continue;
      const NetIndex in = drv.inputs[i];
      const double delay = arc->worstDelay(slew_[in], load_[p.net]);
      Partial next;
      next.net = in;
      next.suffixDelay = p.suffixDelay + delay;
      next.bound = arrival_[in] + next.suffixDelay;
      next.reversedSteps = p.reversedSteps;
      next.reversedSteps.push_back(PathStep{net.driver, drv.cell, arc,
                                            slew_[in], load_[p.net], delay});
      queue.push(std::move(next));
    }
  }
  return out;
}

std::vector<TimingPath> TimingAnalyzer::endpointWorstPaths() const {
  // worstPathTo reads only the frozen annotations: each endpoint's path is
  // traced on the pool into its own slot.
  return parallel::parallelMap(endpoints_.size(), [&](std::size_t i) {
    return worstPathTo(endpoints_[i]);
  });
}

}  // namespace sct::sta
