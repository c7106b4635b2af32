#pragma once
// Standard cell model: pins, timing arcs and per-cell metadata. One timing
// arc holds the four LUTs of a related-pin/output-pin pair (rise/fall delay
// and rise/fall output transition), exactly the tables the tuner restricts.
//
// Each cell also compiles, once, a slot-indexed timing view (CompiledCell):
// pin names interned to instance slots and a dense [inputSlot][outputSlot]
// -> TimingArc table, so the propagation and sizing loops never compare
// pin-name strings. Each compiled arc also knows whether its four LUTs share
// axes (they do by construction of the characterizer), in which case one
// axis search yields the interpolation weights for worst delay, best delay
// and worst transition at a single (slew, load) operating point.

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "liberty/function.hpp"
#include "liberty/lut.hpp"

namespace sct::liberty {

enum class PinDirection { kInput, kOutput };

struct Pin {
  std::string name;
  PinDirection direction = PinDirection::kInput;
  double capacitance = 0.0;  ///< input pin capacitance [pF]
  double maxCapacitance = 0.0;  ///< output drive limit [pF]; 0 = unlimited
  bool isClock = false;
};

/// Timing arc from one input (related) pin to one output pin.
struct TimingArc {
  std::string relatedPin;
  std::string outputPin;
  Lut riseDelay;
  Lut fallDelay;
  Lut riseTransition;
  Lut fallTransition;

  /// Worst (max of rise/fall) delay at an operating point; the analysis in
  /// this repository is single-valued worst-case, like the paper's setup
  /// study.
  [[nodiscard]] double worstDelay(double slew, double load) const noexcept {
    return std::max(riseDelay.lookup(slew, load), fallDelay.lookup(slew, load));
  }
  /// Best (min of rise/fall) delay; used by the hold (min-delay) analysis.
  [[nodiscard]] double bestDelay(double slew, double load) const noexcept {
    return std::min(riseDelay.lookup(slew, load), fallDelay.lookup(slew, load));
  }
  [[nodiscard]] double worstTransition(double slew, double load) const noexcept {
    return std::max(riseTransition.lookup(slew, load),
                    fallTransition.lookup(slew, load));
  }
};

/// Worst/best delay and worst transition of one arc at one operating point.
struct ArcTiming {
  double worstDelay = 0.0;
  double bestDelay = 0.0;
  double worstTransition = 0.0;
};

/// One timing arc with precompiled evaluation state.
class CompiledArc {
 public:
  CompiledArc() = default;
  explicit CompiledArc(const TimingArc* arc);

  [[nodiscard]] const TimingArc* arc() const noexcept { return arc_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return arc_ != nullptr;
  }

  /// All three propagation quantities with a single axis search (falls back
  /// to per-table lookups when the LUTs do not share axes). Bit-identical
  /// to TimingArc::worstDelay/bestDelay/worstTransition.
  [[nodiscard]] ArcTiming evaluate(double slew, double load) const noexcept;
  /// max(rise, fall) delay only — one axis search instead of two.
  [[nodiscard]] double worstDelay(double slew, double load) const noexcept;
  [[nodiscard]] double worstTransition(double slew,
                                       double load) const noexcept;

  bool operator==(const CompiledArc&) const = default;

 private:
  const TimingArc* arc_ = nullptr;
  bool shared_axes_ = false;  ///< all four LUTs on one axis pair
  bool shared_delay_axes_ = false;
  bool shared_transition_axes_ = false;
};

class Cell;

/// Slot-indexed timing view of one cell (Cell::timing()).
class CompiledCell {
 public:
  CompiledCell() = default;
  explicit CompiledCell(const Cell& cell);

  /// Arc from combinational data-input slot to output slot (nullptr arc when
  /// the pair has no arc). Slots follow dataInputNames / outputNames order —
  /// the netlist instance slot order for mapped cells.
  [[nodiscard]] const CompiledArc& arc(std::size_t inputSlot,
                                       std::size_t outputSlot) const noexcept {
    if (inputSlot >= num_inputs_ || outputSlot >= num_outputs_) {
      return kNoArc;
    }
    return arcs_[inputSlot * num_outputs_ + outputSlot];
  }
  /// Clock-to-output launch arc of sequential cells, per output slot.
  [[nodiscard]] const CompiledArc& clockArc(
      std::size_t outputSlot) const noexcept {
    return outputSlot < clock_arcs_.size() ? clock_arcs_[outputSlot] : kNoArc;
  }

  /// Input capacitance presented by an instance input slot; seq selects the
  /// sequential naming (D, E) over the combinational data-input names.
  [[nodiscard]] double inputCap(bool seq, std::size_t slot) const noexcept {
    if (seq) {
      return slot < seq_input_cap_.size() ? seq_input_cap_[slot] : 0.0;
    }
    return slot < input_cap_.size() ? input_cap_[slot] : 0.0;
  }
  /// Capacitance of every input pin summed in declaration order (the
  /// sizing loop's upsizing cost).
  [[nodiscard]] double totalInputCap() const noexcept {
    return total_input_cap_;
  }

  /// Liberty max_capacitance of an output slot's pin (0 when unspecified).
  [[nodiscard]] double maxLoad(std::size_t outputSlot) const noexcept {
    return outputSlot < max_load_.size() ? max_load_[outputSlot] : 0.0;
  }

  bool operator==(const CompiledCell&) const = default;

 private:
  static const CompiledArc kNoArc;

  std::size_t num_inputs_ = 0;
  std::size_t num_outputs_ = 0;
  std::vector<CompiledArc> arcs_;  ///< dense [input][output], row-major
  std::array<CompiledArc, 2> clock_arcs_{};
  std::vector<double> input_cap_;      ///< per combinational data slot
  std::array<double, 2> seq_input_cap_{};  ///< D, E
  double total_input_cap_ = 0.0;
  std::vector<double> max_load_;       ///< per output slot (0 = unspecified)
};

class Cell {
 public:
  Cell() = default;
  Cell(std::string name, CellFunction function, double driveStrength,
       double area)
      : name_(std::move(name)),
        function_(function),
        drive_strength_(driveStrength),
        area_(area) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] CellFunction function() const noexcept { return function_; }
  [[nodiscard]] double driveStrength() const noexcept { return drive_strength_; }
  [[nodiscard]] double area() const noexcept { return area_; }
  [[nodiscard]] bool isSequential() const noexcept {
    return traits(function_).sequential;
  }
  [[nodiscard]] CellCategory category() const noexcept {
    return traits(function_).category;
  }

  /// Setup requirement at the D pin of sequential cells [ns] at the table
  /// origin (fast edges). Kept as the scalar summary; timing checks use the
  /// slew-dependent form below.
  [[nodiscard]] double setupTime() const noexcept { return setup_time_; }
  void setSetupTime(double t) noexcept { setup_time_ = t; }
  /// Slew-dependent setup requirement (Liberty setup_rising semantics):
  /// indexed by data slew (rows) and clock slew (columns). Falls back to
  /// the scalar when no table was characterized.
  [[nodiscard]] double setupTime(double dataSlew,
                                 double clockSlew) const noexcept {
    return setup_lut_.empty() ? setup_time_
                              : setup_lut_.lookup(dataSlew, clockSlew);
  }
  void setSetupLut(Lut lut) noexcept { setup_lut_ = std::move(lut); }
  [[nodiscard]] const Lut& setupLut() const noexcept { return setup_lut_; }

  /// Hold requirement at the D pin of sequential cells [ns].
  [[nodiscard]] double holdTime() const noexcept { return hold_time_; }
  void setHoldTime(double t) noexcept { hold_time_ = t; }

  [[nodiscard]] const std::vector<Pin>& pins() const noexcept { return pins_; }
  [[nodiscard]] std::vector<Pin>& pins() noexcept {
    index_.reset();  // caller may mutate through the reference
    return pins_;
  }
  [[nodiscard]] const std::vector<TimingArc>& arcs() const noexcept {
    return arcs_;
  }
  [[nodiscard]] std::vector<TimingArc>& arcs() noexcept {
    index_.reset();
    return arcs_;
  }

  void addPin(Pin pin) {
    index_.reset();
    pins_.push_back(std::move(pin));
  }
  void addArc(TimingArc arc) {
    index_.reset();
    arcs_.push_back(std::move(arc));
  }

  [[nodiscard]] const Pin* findPin(std::string_view name) const noexcept;
  /// Input pin capacitance; 0 when the pin does not exist.
  [[nodiscard]] double inputCapacitance(std::string_view pin) const noexcept;
  /// Arcs driving the given output pin. Cached: built once per cell, so
  /// report/finalize loops do not allocate.
  [[nodiscard]] std::span<const TimingArc* const> fanoutArcs(
      std::string_view outputPin) const;
  /// Arc for a specific related-pin/output-pin pair, if present.
  [[nodiscard]] const TimingArc* findArc(std::string_view relatedPin,
                                         std::string_view outputPin) const noexcept;
  /// Input/output pins in declaration order; cached like fanoutArcs().
  [[nodiscard]] std::span<const Pin* const> inputPins() const;
  [[nodiscard]] std::span<const Pin* const> outputPins() const;
  /// The cell's compiled timing view, built once with the other derived
  /// views and shared by every analyzer and thread.
  [[nodiscard]] const CompiledCell& timing() const;

 private:
  /// Derived views of pins_/arcs_, built lazily on first query and dropped
  /// on any mutation. Pointers target the owning cell's vectors (stable
  /// across moves, rebuilt on copy).
  struct DerivedIndex {
    std::vector<const Pin*> inputPins;
    std::vector<const Pin*> outputPins;
    /// Arcs grouped per output pin, in arc declaration order.
    std::vector<std::pair<std::string, std::vector<const TimingArc*>>> fanout;
    CompiledCell timing;
  };
  const DerivedIndex& index() const;

  /// Owner of the lazily built index. Concurrent first queries of a shared
  /// const cell each build one and the first to publish wins. A copy starts
  /// empty (the source's index points into the source); a move takes it.
  class IndexSlot {
   public:
    IndexSlot() = default;
    IndexSlot(const IndexSlot&) noexcept {}
    IndexSlot& operator=(const IndexSlot& other) noexcept {
      if (this != &other) reset();
      return *this;
    }
    IndexSlot(IndexSlot&& other) noexcept
        : index_(other.index_.exchange(nullptr)) {}
    IndexSlot& operator=(IndexSlot&& other) noexcept {
      if (this != &other) {
        delete index_.exchange(other.index_.exchange(nullptr));
      }
      return *this;
    }
    ~IndexSlot() { reset(); }
    void reset() noexcept { delete index_.exchange(nullptr); }
    [[nodiscard]] const DerivedIndex* get() const noexcept {
      return index_.load(std::memory_order_acquire);
    }
    /// Installs `built` unless another thread got there first; returns the
    /// installed index either way.
    const DerivedIndex& publish(std::unique_ptr<DerivedIndex> built) const {
      DerivedIndex* winner = nullptr;
      if (index_.compare_exchange_strong(winner, built.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return *built.release();
      }
      return *winner;
    }

   private:
    mutable std::atomic<DerivedIndex*> index_{nullptr};
  };

  std::string name_;
  CellFunction function_ = CellFunction::kInv;
  double drive_strength_ = 1.0;
  double area_ = 0.0;
  double setup_time_ = 0.0;
  double hold_time_ = 0.0;
  Lut setup_lut_;  ///< rows: data slew, cols: clock slew; empty = scalar
  std::vector<Pin> pins_;
  std::vector<TimingArc> arcs_;
  IndexSlot index_;
};

}  // namespace sct::liberty
