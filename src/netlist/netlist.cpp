#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sct::netlist {

std::string_view toString(PrimOp op) noexcept {
  switch (op) {
    case PrimOp::kConst0: return "CONST0";
    case PrimOp::kConst1: return "CONST1";
    case PrimOp::kInv: return "INV";
    case PrimOp::kBuf: return "BUF";
    case PrimOp::kNand2: return "NAND2";
    case PrimOp::kNand2B: return "NAND2B";
    case PrimOp::kNand3: return "NAND3";
    case PrimOp::kNand4: return "NAND4";
    case PrimOp::kNor2: return "NOR2";
    case PrimOp::kNor2B: return "NOR2B";
    case PrimOp::kNor3: return "NOR3";
    case PrimOp::kNor4: return "NOR4";
    case PrimOp::kAnd2: return "AND2";
    case PrimOp::kAnd3: return "AND3";
    case PrimOp::kAnd4: return "AND4";
    case PrimOp::kOr2: return "OR2";
    case PrimOp::kOr3: return "OR3";
    case PrimOp::kOr4: return "OR4";
    case PrimOp::kXor2: return "XOR2";
    case PrimOp::kXnor2: return "XNOR2";
    case PrimOp::kMux2: return "MUX2";
    case PrimOp::kMux4: return "MUX4";
    case PrimOp::kHalfAdder: return "HA";
    case PrimOp::kFullAdder: return "FA";
    case PrimOp::kDff: return "DFF";
    case PrimOp::kDffR: return "DFFR";
    case PrimOp::kDffE: return "DFFE";
  }
  return "?";
}

liberty::CellFunction defaultFunction(PrimOp op) noexcept {
  using liberty::CellFunction;
  switch (op) {
    case PrimOp::kConst0: return CellFunction::kTieLo;
    case PrimOp::kConst1: return CellFunction::kTieHi;
    case PrimOp::kInv: return CellFunction::kInv;
    case PrimOp::kBuf: return CellFunction::kBuf;
    case PrimOp::kNand2: return CellFunction::kNand2;
    case PrimOp::kNand2B: return CellFunction::kNand2B;
    case PrimOp::kNand3: return CellFunction::kNand3;
    case PrimOp::kNand4: return CellFunction::kNand4;
    case PrimOp::kNor2: return CellFunction::kNor2;
    case PrimOp::kNor2B: return CellFunction::kNor2B;
    case PrimOp::kNor3: return CellFunction::kNor3;
    case PrimOp::kNor4: return CellFunction::kNor4;
    case PrimOp::kAnd2: return CellFunction::kAnd2;
    case PrimOp::kAnd3: return CellFunction::kAnd3;
    case PrimOp::kAnd4: return CellFunction::kAnd4;
    case PrimOp::kOr2: return CellFunction::kOr2;
    case PrimOp::kOr3: return CellFunction::kOr3;
    case PrimOp::kOr4: return CellFunction::kOr4;
    case PrimOp::kXor2: return CellFunction::kXor2;
    case PrimOp::kXnor2: return CellFunction::kXnor2;
    case PrimOp::kMux2: return CellFunction::kMux2;
    case PrimOp::kMux4: return CellFunction::kMux4;
    case PrimOp::kHalfAdder: return CellFunction::kHalfAdder;
    case PrimOp::kFullAdder: return CellFunction::kFullAdder;
    case PrimOp::kDff: return CellFunction::kDff;
    case PrimOp::kDffR: return CellFunction::kDffR;
    case PrimOp::kDffE: return CellFunction::kDffE;
  }
  return CellFunction::kInv;
}

NetIndex Design::addNet(std::string name) {
  nets_.push_back(Net{std::move(name), kNoInst, 0, {}, false});
  return static_cast<NetIndex>(nets_.size() - 1);
}

InstIndex Design::addInstance(std::string name, PrimOp op,
                              std::vector<NetIndex> inputs,
                              std::vector<NetIndex> outputs) {
  // Validated with thrown errors (not just assert) so corrupt wiring — a
  // multi-driven net, a mis-sized connection list, a dangling net index — is
  // rejected in release builds too, at the call that introduces it rather
  // than deep inside levelization or timing propagation.
  if (inputs.size() != numInputs(op)) {
    throw std::invalid_argument("instance '" + name + "': " +
                                std::to_string(inputs.size()) +
                                " inputs, op needs " +
                                std::to_string(numInputs(op)));
  }
  if (outputs.size() != numOutputs(op)) {
    throw std::invalid_argument("instance '" + name + "': " +
                                std::to_string(outputs.size()) +
                                " outputs, op needs " +
                                std::to_string(numOutputs(op)));
  }
  for (const NetIndex net : inputs) {
    if (net >= nets_.size()) {
      throw std::invalid_argument("instance '" + name +
                                  "': input net index out of range");
    }
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const NetIndex net = outputs[i];
    if (net >= nets_.size()) {
      throw std::invalid_argument("instance '" + name +
                                  "': output net index out of range");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (outputs[j] == net) {
        throw std::invalid_argument("instance '" + name + "': net '" +
                                    nets_[net].name +
                                    "' connected to two output slots");
      }
    }
    if (nets_[net].driver != kNoInst) {
      throw std::invalid_argument(
          "instance '" + name + "': net '" + nets_[net].name +
          "' is already driven by instance '" +
          instances_[nets_[net].driver].name + "'");
    }
  }
  const auto index = static_cast<InstIndex>(instances_.size());
  for (std::uint32_t slot = 0; slot < inputs.size(); ++slot) {
    nets_[inputs[slot]].sinks.push_back({index, slot});
  }
  for (std::uint32_t slot = 0; slot < outputs.size(); ++slot) {
    Net& net = nets_[outputs[slot]];
    net.driver = index;
    net.driverSlot = slot;
  }
  instances_.push_back(Instance{std::move(name), op, nullptr,
                                std::move(inputs), std::move(outputs), true});
  return index;
}

void Design::addPort(std::string name, PortDirection direction, NetIndex net) {
  assert(net < nets_.size());
  if (direction == PortDirection::kOutput) nets_[net].isPrimaryOutput = true;
  ports_.push_back(Port{std::move(name), direction, net});
}

void Design::reconnectInput(InstIndex instance, std::uint32_t slot,
                            NetIndex netIndex) {
  Instance& inst = instances_[instance];
  assert(slot < inst.inputs.size());
  const NetIndex old = inst.inputs[slot];
  if (old == netIndex) return;
  auto& oldSinks = nets_[old].sinks;
  oldSinks.erase(
      std::remove(oldSinks.begin(), oldSinks.end(), SinkRef{instance, slot}),
      oldSinks.end());
  inst.inputs[slot] = netIndex;
  nets_[netIndex].sinks.push_back({instance, slot});
}

void Design::redistributeSinks(NetIndex from, std::span<const NetIndex> to) {
  std::vector<SinkRef>& sinks = nets_[from].sinks;
  assert(to.size() <= sinks.size());
  std::size_t kept = 0;
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    const SinkRef sink = sinks[k];
    const NetIndex target = k < to.size() ? to[k] : kNoNet;
    if (target == kNoNet || target == from) {
      sinks[kept++] = sink;
      continue;
    }
    instances_[sink.instance].inputs[sink.inputSlot] = target;
    nets_[target].sinks.push_back(sink);
  }
  sinks.resize(kept);
}

void Design::removeInstance(InstIndex instance) {
  Instance& inst = instances_[instance];
  if (!inst.alive) return;
  for (std::uint32_t slot = 0; slot < inst.inputs.size(); ++slot) {
    auto& sinks = nets_[inst.inputs[slot]].sinks;
    sinks.erase(
        std::remove(sinks.begin(), sinks.end(), SinkRef{instance, slot}),
        sinks.end());
  }
  for (NetIndex out : inst.outputs) {
    nets_[out].driver = kNoInst;
    nets_[out].driverSlot = 0;
  }
  inst.alive = false;
  inst.cell = nullptr;
}

std::size_t Design::gateCount() const noexcept {
  std::size_t n = 0;
  for (const Instance& inst : instances_) {
    if (inst.alive) ++n;
  }
  return n;
}

double Design::totalArea() const noexcept {
  double area = 0.0;
  for (const Instance& inst : instances_) {
    if (inst.alive && inst.cell != nullptr) area += inst.cell->area();
  }
  return area;
}

std::map<std::string, std::size_t> Design::cellUsage() const {
  std::map<std::string, std::size_t> usage;
  for (const Instance& inst : instances_) {
    if (inst.alive && inst.cell != nullptr) ++usage[inst.cell->name()];
  }
  return usage;
}

std::string Design::validate() const {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    if (!inst.alive) continue;
    if (inst.inputs.size() != numInputs(inst.op)) {
      return "instance " + inst.name + ": wrong input count";
    }
    if (inst.outputs.size() != numOutputs(inst.op)) {
      return "instance " + inst.name + ": wrong output count";
    }
    for (std::uint32_t slot = 0; slot < inst.inputs.size(); ++slot) {
      const Net& net = nets_[inst.inputs[slot]];
      const SinkRef ref{static_cast<InstIndex>(i), slot};
      if (std::find(net.sinks.begin(), net.sinks.end(), ref) ==
          net.sinks.end()) {
        return "instance " + inst.name + ": input slot not in net sinks";
      }
    }
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const Net& net = nets_[inst.outputs[slot]];
      if (net.driver != static_cast<InstIndex>(i) || net.driverSlot != slot) {
        return "instance " + inst.name + ": output net driver mismatch";
      }
    }
  }
  for (const Net& net : nets_) {
    for (const SinkRef& sink : net.sinks) {
      if (sink.instance >= instances_.size() ||
          !instances_[sink.instance].alive) {
        return "net " + net.name + ": sink references dead instance";
      }
    }
    if (net.driver != kNoInst && !instances_[net.driver].alive) {
      return "net " + net.name + ": driven by dead instance";
    }
  }
  return {};
}

std::string Design::freshName(const std::string& stem) {
  return stem + "_" + std::to_string(name_counter_++);
}

}  // namespace sct::netlist
