#include "liberty/cell.hpp"

#include <algorithm>

#include "numeric/interp.hpp"

namespace sct::liberty {

namespace {

[[nodiscard]] bool sharesAxes(const Lut& a, const Lut& b) noexcept {
  return !a.empty() && a.sameShape(b);
}

}  // namespace

const CompiledArc CompiledCell::kNoArc{};

CompiledArc::CompiledArc(const TimingArc* arc) : arc_(arc) {
  if (arc_ == nullptr) return;
  shared_delay_axes_ = sharesAxes(arc_->riseDelay, arc_->fallDelay);
  shared_transition_axes_ =
      sharesAxes(arc_->riseTransition, arc_->fallTransition);
  shared_axes_ = shared_delay_axes_ && shared_transition_axes_ &&
                 arc_->riseDelay.sameShape(arc_->riseTransition);
}

ArcTiming CompiledArc::evaluate(double slew, double load) const noexcept {
  ArcTiming out;
  if (!shared_axes_) {
    out.worstDelay = arc_->worstDelay(slew, load);
    out.bestDelay = arc_->bestDelay(slew, load);
    out.worstTransition = arc_->worstTransition(slew, load);
    return out;
  }
  const numeric::InterpCoords coords = numeric::interpCoords(
      arc_->riseDelay.slewAxis(), arc_->riseDelay.loadAxis(), slew, load);
  const double rise = coords.apply(arc_->riseDelay.values());
  const double fall = coords.apply(arc_->fallDelay.values());
  out.worstDelay = std::max(rise, fall);
  out.bestDelay = std::min(rise, fall);
  out.worstTransition = std::max(coords.apply(arc_->riseTransition.values()),
                                 coords.apply(arc_->fallTransition.values()));
  return out;
}

double CompiledArc::worstDelay(double slew, double load) const noexcept {
  if (!shared_delay_axes_) return arc_->worstDelay(slew, load);
  const numeric::InterpCoords coords = numeric::interpCoords(
      arc_->riseDelay.slewAxis(), arc_->riseDelay.loadAxis(), slew, load);
  return std::max(coords.apply(arc_->riseDelay.values()),
                  coords.apply(arc_->fallDelay.values()));
}

double CompiledArc::worstTransition(double slew, double load) const noexcept {
  if (!shared_transition_axes_) return arc_->worstTransition(slew, load);
  const numeric::InterpCoords coords =
      numeric::interpCoords(arc_->riseTransition.slewAxis(),
                            arc_->riseTransition.loadAxis(), slew, load);
  return std::max(coords.apply(arc_->riseTransition.values()),
                  coords.apply(arc_->fallTransition.values()));
}

CompiledCell::CompiledCell(const Cell& cell) {
  // Reads the cell's pins and arcs directly: Cell::index() builds this view,
  // so the derived accessors are not available yet.
  const FunctionTraits& t = traits(cell.function());
  const auto inputNames = dataInputNames(cell.function());
  const auto outputNames = liberty::outputNames(cell.function());
  num_inputs_ = t.numDataInputs;
  num_outputs_ = t.numOutputs;

  arcs_.resize(num_inputs_ * num_outputs_);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (std::size_t o = 0; o < num_outputs_; ++o) {
      arcs_[i * num_outputs_ + o] =
          CompiledArc(cell.findArc(inputNames[i], outputNames[o]));
    }
  }
  for (std::size_t o = 0; o < num_outputs_ && o < clock_arcs_.size(); ++o) {
    clock_arcs_[o] = CompiledArc(cell.findArc("CP", outputNames[o]));
  }

  input_cap_.resize(num_inputs_, 0.0);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    input_cap_[i] = cell.inputCapacitance(inputNames[i]);
  }
  seq_input_cap_ = {cell.inputCapacitance("D"), cell.inputCapacitance("E")};
  for (const Pin& pin : cell.pins()) {
    if (pin.direction == PinDirection::kInput) {
      total_input_cap_ += pin.capacitance;
    }
  }

  max_load_.resize(num_outputs_, 0.0);
  for (std::size_t o = 0; o < num_outputs_; ++o) {
    if (const Pin* pin = cell.findPin(outputNames[o])) {
      max_load_[o] = pin->maxCapacitance;
    }
  }
}

const Pin* Cell::findPin(std::string_view name) const noexcept {
  for (const Pin& pin : pins_) {
    if (pin.name == name) return &pin;
  }
  return nullptr;
}

double Cell::inputCapacitance(std::string_view pin) const noexcept {
  const Pin* p = findPin(pin);
  return (p != nullptr && p->direction == PinDirection::kInput)
             ? p->capacitance
             : 0.0;
}

const Cell::DerivedIndex& Cell::index() const {
  if (const DerivedIndex* built = index_.get()) return *built;
  auto idx = std::make_unique<DerivedIndex>();
  for (const Pin& pin : pins_) {
    (pin.direction == PinDirection::kInput ? idx->inputPins : idx->outputPins)
        .push_back(&pin);
  }
  for (const TimingArc& arc : arcs_) {
    auto group = idx->fanout.begin();
    for (; group != idx->fanout.end(); ++group) {
      if (group->first == arc.outputPin) break;
    }
    if (group == idx->fanout.end()) {
      idx->fanout.emplace_back(arc.outputPin, std::vector<const TimingArc*>{});
      group = std::prev(idx->fanout.end());
    }
    group->second.push_back(&arc);
  }
  idx->timing = CompiledCell(*this);
  return index_.publish(std::move(idx));
}

std::span<const TimingArc* const> Cell::fanoutArcs(
    std::string_view outputPin) const {
  for (const auto& [pin, arcs] : index().fanout) {
    if (pin == outputPin) return arcs;
  }
  return {};
}

const TimingArc* Cell::findArc(std::string_view relatedPin,
                               std::string_view outputPin) const noexcept {
  for (const TimingArc& arc : arcs_) {
    if (arc.relatedPin == relatedPin && arc.outputPin == outputPin) return &arc;
  }
  return nullptr;
}

std::span<const Pin* const> Cell::inputPins() const { return index().inputPins; }

std::span<const Pin* const> Cell::outputPins() const {
  return index().outputPins;
}

const CompiledCell& Cell::timing() const { return index().timing; }

}  // namespace sct::liberty
