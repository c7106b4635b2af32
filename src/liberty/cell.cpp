#include "liberty/cell.hpp"

namespace sct::liberty {

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

}  // namespace sct::liberty
