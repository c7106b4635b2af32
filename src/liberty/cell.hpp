#pragma once
// Standard cell model: pins, timing arcs and per-cell metadata. One timing
// arc holds the four LUTs of a related-pin/output-pin pair (rise/fall delay
// and rise/fall output transition), exactly the tables the tuner restricts.

#include <atomic>
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

 private:
  /// Derived views of pins_/arcs_, built lazily on first query and dropped
  /// on any mutation. Pointers target the owning cell's vectors (stable
  /// across moves, rebuilt on copy).
  struct DerivedIndex {
    std::vector<const Pin*> inputPins;
    std::vector<const Pin*> outputPins;
    /// Arcs grouped per output pin, in arc declaration order.
    std::vector<std::pair<std::string, std::vector<const TimingArc*>>> fanout;
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
