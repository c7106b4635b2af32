#include "netlist/analysis.hpp"

#include <algorithm>
#include <ostream>

namespace sct::netlist {

DesignStats analyzeDesign(const Design& design) {
  DesignStats stats;
  for (const Instance& inst : design.instances()) {
    if (!inst.alive) continue;
    ++stats.gates;
    ++stats.opHistogram[inst.op];
    if (isSequential(inst.op)) {
      ++stats.sequential;
    } else if (numInputs(inst.op) == 0) {
      ++stats.ties;
    } else {
      ++stats.combinational;
    }
  }
  std::size_t fanoutSum = 0;
  std::size_t drivenNets = 0;
  for (const Net& net : design.nets()) {
    if (net.driver == kNoInst && net.sinks.empty()) continue;
    ++stats.nets;
    if (!net.sinks.empty()) {
      ++drivenNets;
      fanoutSum += net.sinks.size();
      stats.maxFanout = std::max(stats.maxFanout, net.sinks.size());
    }
  }
  stats.averageFanout = drivenNets > 0
                            ? static_cast<double>(fanoutSum) /
                                  static_cast<double>(drivenNets)
                            : 0.0;
  for (const Port& port : design.ports()) {
    if (port.direction == PortDirection::kInput) {
      ++stats.primaryInputs;
    } else {
      ++stats.primaryOutputs;
    }
  }
  return stats;
}

bool levelize(const Design& design, std::vector<InstIndex>& order,
              std::vector<std::uint32_t>& levels) {
  const auto isSource = [](const Instance& inst) {
    return isSequential(inst.op) || numInputs(inst.op) == 0;
  };
  order.clear();
  order.reserve(design.instanceCount());
  levels.assign(design.instanceCount(), 0);
  std::vector<std::uint32_t> indegree(design.instanceCount(), 0);

  // `order` doubles as the Kahn queue: instances enter it once their last
  // driver has been ordered.
  std::size_t alive = 0;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const Instance& inst = design.instance(static_cast<InstIndex>(i));
    if (!inst.alive) continue;
    ++alive;
    if (!isSource(inst)) {
      std::uint32_t deg = 0;
      for (NetIndex in : inst.inputs) {
        const Net& net = design.net(in);
        if (net.driver != kNoInst && design.instance(net.driver).alive) ++deg;
      }
      indegree[i] = deg;
      if (deg != 0) continue;
    }
    order.push_back(static_cast<InstIndex>(i));
  }

  for (std::size_t head = 0; head < order.size(); ++head) {
    const InstIndex index = order[head];
    for (NetIndex out : design.instance(index).outputs) {
      for (const SinkRef& sink : design.net(out).sinks) {
        const Instance& target = design.instance(sink.instance);
        if (!target.alive || isSource(target)) continue;
        levels[sink.instance] =
            std::max(levels[sink.instance], levels[index] + 1u);
        if (--indegree[sink.instance] == 0) order.push_back(sink.instance);
      }
    }
  }
  return order.size() == alive;
}

std::size_t sweepDeadLogic(Design& design) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < design.instanceCount(); ++i) {
      const Instance& inst = design.instance(static_cast<InstIndex>(i));
      if (!inst.alive) continue;
      // Sequential elements are observable state; keep them. (A stricter
      // sweep would trace observability through flops, but synthesized
      // registers are architectural here.)
      if (isSequential(inst.op)) continue;
      bool observed = false;
      for (NetIndex out : inst.outputs) {
        const Net& net = design.net(out);
        if (net.isPrimaryOutput || !net.sinks.empty()) {
          observed = true;
          break;
        }
      }
      if (!observed) {
        design.removeInstance(static_cast<InstIndex>(i));
        ++removed;
        changed = true;  // upstream gates may have become dead
      }
    }
  }
  return removed;
}

bool writeDot(std::ostream& out, const Design& design,
              std::size_t maxInstances) {
  if (design.gateCount() > maxInstances) return false;
  out << "digraph \"" << design.name() << "\" {\n";
  out << "  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const Instance& inst = design.instance(static_cast<InstIndex>(i));
    if (!inst.alive) continue;
    out << "  i" << i << " [label=\"" << inst.name << "\\n"
        << (inst.cell != nullptr ? inst.cell->name()
                                 : std::string(toString(inst.op)))
        << "\"";
    if (isSequential(inst.op)) out << ", style=filled, fillcolor=lightblue";
    out << "];\n";
  }
  auto portId = [](std::size_t index) { return "p" + std::to_string(index); };
  for (std::size_t p = 0; p < design.ports().size(); ++p) {
    const Port& port = design.ports()[p];
    out << "  " << portId(p) << " [label=\"" << port.name << "\", shape="
        << (port.direction == PortDirection::kInput ? "triangle"
                                                    : "invtriangle")
        << "];\n";
  }
  // Edges: driver (instance or input port) -> each sink / output port.
  for (NetIndex n = 0; n < design.netCount(); ++n) {
    const Net& net = design.net(n);
    std::string source;
    if (net.driver != kNoInst) {
      source = "i" + std::to_string(net.driver);
    } else {
      for (std::size_t p = 0; p < design.ports().size(); ++p) {
        const Port& port = design.ports()[p];
        if (port.net == n && port.direction == PortDirection::kInput) {
          source = portId(p);
          break;
        }
      }
    }
    if (source.empty()) continue;
    for (const SinkRef& sink : net.sinks) {
      out << "  " << source << " -> i" << sink.instance << ";\n";
    }
    if (net.isPrimaryOutput) {
      for (std::size_t p = 0; p < design.ports().size(); ++p) {
        const Port& port = design.ports()[p];
        if (port.net == n && port.direction == PortDirection::kOutput) {
          out << "  " << source << " -> " << portId(p) << ";\n";
        }
      }
    }
  }
  out << "}\n";
  return true;
}

}  // namespace sct::netlist
