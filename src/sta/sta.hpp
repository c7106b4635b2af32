#pragma once
// Static timing analysis over a mapped design: levelization, load
// computation, slew/arrival propagation through library LUTs, setup checks
// against the clock constraint, and worst-path extraction per endpoint.
// Single-valued worst-case (max of rise/fall) analysis, one ideal clock —
// the same abstraction level as the paper's setup study.
//
// Two update modes share one result state:
//  - analyze(): from-scratch reference analysis.
//  - notifyCellSwap()/notifyBufferInsert()/notifyReconnect() + update():
//    edits are recorded as they happen and drained in one incremental pass
//    that re-propagates only through the affected cone (see DESIGN.md §9).
//    update() produces state bit-identical to analyze().

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace sct::sta {

/// Pre-layout wire-load model: estimated net capacitance as a function of
/// fanout (Liberty wire_load semantics, simplified to a quadratic fit).
/// The default reproduces a short-reach lumped model; the medium/large
/// presets emulate bigger floorplans where routing dominates.
struct WireLoadModel {
  double capBase = 0.0;         ///< fixed per-net cap [pF]
  double capPerFanout = 0.0015; ///< linear term [pF per sink]
  double capQuadratic = 0.0;    ///< congestion term [pF per sink^2]

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("capBase", s.capBase);
    v("capPerFanout", s.capPerFanout);
    v("capQuadratic", s.capQuadratic);
  }

  [[nodiscard]] double netCap(std::size_t fanout) const noexcept {
    const double n = static_cast<double>(fanout);
    return fanout == 0 ? 0.0 : capBase + capPerFanout * n +
                                   capQuadratic * n * n;
  }
  [[nodiscard]] static WireLoadModel small() { return {0.0, 0.0015, 0.0}; }
  [[nodiscard]] static WireLoadModel medium() {
    return {0.001, 0.0022, 0.00004};
  }
  [[nodiscard]] static WireLoadModel large() {
    return {0.002, 0.0030, 0.00012};
  }
};

/// Clock and boundary conditions of the analysis.
struct ClockSpec {
  double period = 2.41;       ///< ns
  double uncertainty = 0.30;  ///< guard band subtracted from the period [ns]
                              ///< (paper section VII: 300 ps at 2.41 ns)
  double clockSlew = 0.05;    ///< transition at flip-flop clock pins [ns]
  double inputSlew = 0.05;    ///< transition driven into primary inputs [ns]
  double inputDelay = 0.0;    ///< external arrival at primary inputs [ns]
  double outputLoad = 0.004;  ///< external load on primary outputs [pF]
  WireLoadModel wireLoad{};   ///< pre-layout net-capacitance estimate

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("period", s.period);
    v("uncertainty", s.uncertainty);
    v("clockSlew", s.clockSlew);
    v("inputSlew", s.inputSlew);
    v("inputDelay", s.inputDelay);
    v("outputLoad", s.outputLoad);
    v("wireLoad", s.wireLoad);
  }

  /// Data must arrive before this time (excluding per-endpoint setup).
  [[nodiscard]] double effectivePeriod() const noexcept {
    return period - uncertainty;
  }
};

/// A setup endpoint: a sequential data/enable input or a primary output.
/// Diagnostic names are not stored (reports build them on demand via
/// TimingAnalyzer::endpointName()) so per-pass endpoint collection does not
/// allocate strings.
struct Endpoint {
  netlist::InstIndex instance = netlist::kNoInst;  ///< kNoInst => primary out
  std::uint32_t inputSlot = 0;  ///< input slot on the instance
  netlist::NetIndex net = netlist::kNoNet;  ///< the endpoint's data net
  std::uint32_t port = UINT32_MAX;  ///< port index for primary-out endpoints
  double arrival = 0.0;         ///< latest (setup) arrival
  double required = 0.0;
  double slack = 0.0;           ///< setup slack
  double minArrival = 0.0;      ///< earliest arrival (hold analysis)
  double holdSlack = 0.0;       ///< minArrival - hold requirement
};

/// One cell traversal on a timing path, carrying the operating point the
/// statistics layer needs (input slew, output load).
struct PathStep {
  netlist::InstIndex instance = netlist::kNoInst;
  const liberty::Cell* cell = nullptr;
  const liberty::TimingArc* arc = nullptr;
  double inputSlew = 0.0;  ///< slew presented to the arc's related pin
  double load = 0.0;       ///< capacitive load on the arc's output pin
  double delay = 0.0;      ///< worst-edge arc delay at this operating point
};

/// A traced worst path ending at an endpoint. steps.front() is the
/// launching element (flip-flop clk->Q or the first gate after a primary
/// input); steps.size() is the paper's "path depth" in cells.
struct TimingPath {
  std::vector<PathStep> steps;
  Endpoint endpoint;
  [[nodiscard]] std::size_t depth() const noexcept { return steps.size(); }
  [[nodiscard]] double arrival() const noexcept { return endpoint.arrival; }
  [[nodiscard]] double slack() const noexcept { return endpoint.slack; }
};

class TimingAnalyzer {
 public:
  /// The design must be fully mapped (every alive instance bound to a cell).
  /// Each bound cell's compiled timing view is its own Cell::timing(),
  /// built once per cell and shared with every other analyzer.
  TimingAnalyzer(const netlist::Design& design, const liberty::Library& library,
                 ClockSpec clock);

  /// Full timing update. Returns false when the combinational netlist has a
  /// cycle (analysis results are then invalid).
  bool analyze();

  // --- incremental updates ---------------------------------------------------
  // The owner of the design records edits as it makes them; the records are
  // drained by the next update() call, which re-propagates arrivals, slews,
  // loads and required times only through the cones the edits touch. The
  // notify calls themselves are O(1) — timing state is NOT refreshed until
  // update(), so between edits the analyzer intentionally reports the
  // stale pre-edit timing (the sizing passes rank moves against the
  // start-of-pass snapshot, exactly like repeated full analyze() calls).
  //
  // Instance removal has no notify path: structurally removing logic
  // requires a full analyze().

  /// The instance was re-bound to a different library cell.
  void notifyCellSwap(netlist::InstIndex instance);
  /// A new buffer/inverter instance was added and bound; its output nets
  /// must already be wired. Reconnections of the sinks it now drives are
  /// reported separately via notifyReconnect().
  void notifyBufferInsert(netlist::InstIndex instance);
  /// Input `slot` of `sink` was moved from `previousNet` to its current net.
  void notifyReconnect(netlist::InstIndex sink, std::uint32_t slot,
                       netlist::NetIndex previousNet);

  /// Drains recorded edits and brings all results up to date. Bit-identical
  /// to analyze(); falls back to a full analyze() when there is no valid
  /// baseline. Returns false on the same failures as analyze().
  bool update();

  /// True when notify records are pending (update() has work to do).
  [[nodiscard]] bool hasPendingEdits() const noexcept {
    return !pending_.empty();
  }

  /// What the last analyze() or update() changed, for callers that cache
  /// results derived from net loads and slews (the sizing loop's
  /// electrical moves, DESIGN.md §9). Arrival and required times are not
  /// listed. A drain lists each net at most once.
  struct DrainChanges {
    bool full = false;  ///< every net may have changed (analyze, full sweep)
    std::vector<netlist::NetIndex> loads;  ///< nets whose load changed
    std::vector<netlist::NetIndex> slews;  ///< nets whose slew changed
  };
  [[nodiscard]] const DrainChanges& lastChanges() const noexcept {
    return changes_;
  }

  [[nodiscard]] const ClockSpec& clock() const noexcept { return clock_; }
  [[nodiscard]] const liberty::Library& library() const noexcept {
    return library_;
  }
  /// Points the analyzer at `design`, which must be the netlist it
  /// analyzed, moved to a new address (a moved synthesis result,
  /// DESIGN.md §9). The timing state is kept as it is.
  void rebind(const netlist::Design& design) noexcept { design_ = &design; }
  void setClock(const ClockSpec& clock) noexcept {
    clock_ = clock;
    baseline_valid_ = false;  // every net annotation depends on the clock
  }

  // --- per-net results -----------------------------------------------------
  // Accessors are bounds-safe: nets created after the last analyze() (e.g.
  // by mid-pass buffer insertion) report neutral defaults until the next
  // update.
  [[nodiscard]] double netLoad(netlist::NetIndex net) const noexcept {
    return net < load_.size() ? load_[net] : 0.0;
  }
  [[nodiscard]] double netArrival(netlist::NetIndex net) const noexcept {
    return net < arrival_.size() ? arrival_[net] : 0.0;
  }
  [[nodiscard]] double netSlew(netlist::NetIndex net) const noexcept {
    return net < slew_.size() ? slew_[net] : clock_.inputSlew;
  }
  /// Earliest possible switch time (min-delay propagation, hold analysis).
  [[nodiscard]] double netMinArrival(netlist::NetIndex net) const noexcept {
    return net < min_arrival_.size() ? min_arrival_[net] : 0.0;
  }
  /// Latest time the net may switch so all downstream endpoints still meet
  /// setup; +inf for nets with no timing endpoints downstream.
  [[nodiscard]] double netRequired(netlist::NetIndex net) const noexcept {
    return net < required_.size() ? required_[net]
                                  : std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] double netSlack(netlist::NetIndex net) const noexcept {
    return netRequired(net) - netArrival(net);
  }

  // --- design summary --------------------------------------------------------
  [[nodiscard]] const std::vector<Endpoint>& endpoints() const noexcept {
    return endpoints_;
  }
  /// Diagnostic label of an endpoint ("inst/D" or the output port name);
  /// built on demand so timing updates never allocate name strings.
  [[nodiscard]] std::string endpointName(const Endpoint& endpoint) const;
  [[nodiscard]] double worstSlack() const noexcept { return worst_slack_; }
  [[nodiscard]] double totalNegativeSlack() const noexcept { return tns_; }
  [[nodiscard]] bool met() const noexcept { return worst_slack_ >= 0.0; }
  /// Worst hold slack over all sequential endpoints (+inf if none).
  [[nodiscard]] double worstHoldSlack() const noexcept {
    return worst_hold_slack_;
  }
  [[nodiscard]] bool holdMet() const noexcept {
    return worst_hold_slack_ >= 0.0;
  }

  /// Instances in combinational topological order, as of the last
  /// analyze() or update(). A structural update() only marks the order
  /// stale; the first call after it rebuilds the order from the levels, so
  /// that call must not race with other calls on the analyzer.
  [[nodiscard]] const std::vector<netlist::InstIndex>& topoOrder() const;

  // --- verification ----------------------------------------------------------
  /// True when SCT_STA_CHECK=1 asks for incremental-vs-full cross checks.
  [[nodiscard]] static bool crossCheckEnabled();
  /// Compares this analyzer's full result state against a freshly analyzed
  /// reference on the same design. Returns an empty string on bitwise
  /// equality, else a description of the first difference. Expensive; meant
  /// for SCT_STA_CHECK runs and tests. The caches that update() keeps
  /// (arc delays, per-net endpoint required times) are compared too, so a
  /// stale entry shows on the drain that left it.
  [[nodiscard]] std::string diffAgainstReference() const;
  /// With SCT_STA_CHECK=1, aborts with a message naming `what` when
  /// diffAgainstReference() finds a difference; otherwise does nothing.
  void crossCheck(const char* what) const;

  // --- paths ------------------------------------------------------------------
  /// Backtracks the worst path into the endpoint.
  [[nodiscard]] TimingPath worstPathTo(const Endpoint& endpoint) const;
  /// Worst path of the whole design.
  [[nodiscard]] TimingPath criticalPath() const;
  /// One worst path per endpoint (Fig. 12-14 population).
  [[nodiscard]] std::vector<TimingPath> endpointWorstPaths() const;
  /// The k latest-arriving distinct paths into an endpoint, in decreasing
  /// arrival order (best-first enumeration over the timing graph). Each
  /// returned path carries its own arrival/slack in `endpoint`.
  [[nodiscard]] std::vector<TimingPath> kWorstPathsTo(const Endpoint& endpoint,
                                                      std::size_t k) const;

 private:
  struct Pred {
    netlist::InstIndex instance = netlist::kNoInst;
    const liberty::TimingArc* arc = nullptr;
    std::uint32_t inputSlot = 0;
    double delay = 0.0;
    double inputSlew = 0.0;
  };

  /// One recorded netlist edit, drained by update().
  struct PendingEdit {
    enum class Kind : std::uint8_t { kCellSwap, kNewInstance, kReconnect };
    Kind kind = Kind::kCellSwap;
    netlist::InstIndex instance = netlist::kNoInst;
    std::uint32_t slot = 0;                       ///< kReconnect
    netlist::NetIndex oldNet = netlist::kNoNet;   ///< kReconnect
  };

  /// Items filed by level and drained one level at a time (DESIGN.md §9).
  /// Levels strictly increase along driver->sink edges, so the items of one
  /// level never read each other's results and their order within the
  /// level cannot change a bit. The buckets keep their capacity between
  /// drains.
  class LevelWorklist {
   public:
    void push(std::uint32_t level, std::uint32_t item);
    /// Visits every item, lowest level first. `visit` may push items only
    /// at levels above the one it is visiting.
    template <class Visit>
    void drainAscending(Visit&& visit);
    /// Visits every item, highest level first. `visit` may push items only
    /// at levels below the one it is visiting.
    template <class Visit>
    void drainDescending(Visit&& visit);
    /// Visits every item, lowest occupied level first. `visit` may push
    /// items at any level; an item pushed below the level being visited is
    /// visited next.
    template <class Visit>
    void drainLowestFirst(Visit&& visit);

   private:
    std::vector<std::vector<std::uint32_t>> buckets_;
    std::uint32_t lo_ = UINT32_MAX;  ///< lowest occupied level
    std::uint32_t hi_ = 0;           ///< highest occupied level
  };

  void refreshInstanceViews();
  void computeLoads();
  /// Full forward sweep: evalInstance() over the topological order.
  void propagateArrivals();
  /// Full backward sweep over the topological order.
  void propagateRequired();
  void collectEndpoints();
  /// Endpoint census of update(): setup requirements are re-derived only
  /// for endpoints whose net slew, flip-flop cell or input net changed;
  /// WNS, TNS and hold slack are folded over all endpoints in order.
  /// Nets whose endpoint required time may have moved are appended to
  /// `seeds` for the backward drain.
  void refreshEndpoints(std::vector<netlist::NetIndex>& seeds);
  /// Recomputes the output-net annotations (arrival, min arrival, slew,
  /// pred) and the arc delays of one instance from the current input
  /// state. When `changedNets` is non-null (an incremental drain), output
  /// nets whose (arrival, minArrival, slew) triple changed bitwise are
  /// appended to it, and those whose slew changed to changes_.slews.
  void evalInstance(netlist::InstIndex index,
                    std::vector<netlist::NetIndex>* changedNets);
  /// Fresh sink-order load summation of one net (bit-identical to the
  /// per-net body of computeLoads()).
  [[nodiscard]] double recomputeNetLoad(netlist::NetIndex net) const;
  /// Required time of one net from its sinks' current required times
  /// (bit-identical term set to propagateRequired()).
  [[nodiscard]] double recomputeRequired(netlist::NetIndex net) const;
  /// Longest-path level of a combinational instance from its fanin drivers.
  [[nodiscard]] std::uint32_t computeLevel(const netlist::Instance& inst) const;
  /// Rebuilds topo_ from level_ (counting sort by (level, index) — a valid
  /// topological order because levels strictly increase along comb edges).
  /// Covers the instances level_ knows, i.e. those of the last drain.
  void rebuildTopoFromLevels() const;
  /// Allocates arc-delay slots for instances added since the last call.
  void growArcDelays();
  /// First arc-delay slot of an instance: row-major [input][output].
  [[nodiscard]] const double* arcDelays(netlist::InstIndex index) const {
    return arc_delay_.data() + arc_offset_[index];
  }

  const netlist::Design* design_;  ///< never null; moved by rebind()
  const liberty::Library& library_;
  ClockSpec clock_;

  std::vector<double> load_;
  std::vector<double> arrival_;
  std::vector<double> min_arrival_;
  std::vector<double> slew_;
  std::vector<double> required_;
  std::vector<double> ep_required_;  ///< min endpoint required per net
  std::vector<Pred> pred_;  ///< winning predecessor per net (path tracing)
  /// Worst delay of every combinational arc at its current
  /// operating point, written by evalInstance() and read by the required
  /// times. Valid because update() re-evaluates every instance whose input
  /// slew, output load, cell or input net changed before it drains
  /// required times.
  std::vector<double> arc_delay_;
  std::vector<std::uint32_t> arc_offset_;  ///< per instance, into arc_delay_
  mutable std::vector<netlist::InstIndex> topo_;
  mutable bool topo_stale_ = false;  ///< structural drain since last rebuild
  std::vector<std::uint32_t> level_;  ///< per instance, 0 for sources
  /// Per instance, the bound cell's compiled view (Cell::timing()).
  std::vector<const liberty::CompiledCell*> inst_view_;
  std::vector<Endpoint> endpoints_;
  double worst_slack_ = 0.0;
  double tns_ = 0.0;
  double worst_hold_slack_ = 0.0;

  std::vector<PendingEdit> pending_;
  bool baseline_valid_ = false;  ///< results usable as incremental baseline
  DrainChanges changes_;  ///< of the last analyze() / update()

  // Drain scratch, kept across update() calls so that a drain touches only
  // its cone. Every mark a drain sets is cleared before it returns.
  std::vector<std::uint8_t> net_mark_;   ///< per net, kNet* bits
  std::vector<std::uint8_t> inst_mark_;  ///< per instance, kInst* bits
  LevelWorklist forward_;   ///< instances by level
  LevelWorklist backward_;  ///< nets by driver level + 1
};

/// Diagnostic label of an endpoint ("inst/D" or the output port name),
/// derived from the design alone — usable without an analyzer instance.
[[nodiscard]] std::string endpointName(const netlist::Design& design,
                                       const Endpoint& endpoint);

/// Pin name on the bound cell for an instance input slot (handles the
/// enable pin of DFFE and the clock-related conventions).
[[nodiscard]] std::string_view inputPinName(const netlist::Instance& inst,
                                            std::uint32_t slot) noexcept;
/// Pin name on the bound cell for an instance output slot.
[[nodiscard]] std::string_view outputPinName(const netlist::Instance& inst,
                                             std::uint32_t slot) noexcept;

}  // namespace sct::sta
