// Netlist rule pack: structural invariants of subject graphs and mapped
// designs. The conventions being enforced are the ones netlist.hpp states
// (acyclic combinational logic, exactly one driver per net, no floating
// inputs) — violations crash or silently corrupt levelization and timing
// propagation far from the root cause.

#include <string>
#include <unordered_set>
#include <vector>

#include "lint/rule.hpp"
#include "netlist/analysis.hpp"

namespace sct::lint {
namespace {

using netlist::Design;
using netlist::InstIndex;
using netlist::Instance;
using netlist::kNoInst;
using netlist::NetIndex;

std::string inputPath(const Design& design, InstIndex instance,
                      std::uint32_t slot) {
  return "design/" + design.instance(instance).name + "/in" +
         std::to_string(slot);
}

/// Nets bound to input ports (externally driven; no instance driver needed).
std::unordered_set<NetIndex> inputPortNets(const Design& design) {
  std::unordered_set<NetIndex> nets;
  for (const netlist::Port& port : design.ports()) {
    if (port.direction == netlist::PortDirection::kInput) {
      nets.insert(port.net);
    }
  }
  return nets;
}

void checkCombLoop(const LintSubject& subject, const Emitter& emit) {
  const Design& design = *subject.design;
  std::vector<InstIndex> order;
  std::vector<std::uint32_t> levels;
  if (netlist::levelize(design, order, levels)) return;

  // Every alive instance the ordering never reached sits on (or behind) a
  // cycle.
  std::vector<bool> ordered(design.instanceCount(), false);
  for (const InstIndex i : order) ordered[i] = true;
  std::string members;
  std::size_t stuck = 0;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    if (ordered[i] || !design.instance(static_cast<InstIndex>(i)).alive) {
      continue;
    }
    ++stuck;
    if (stuck <= 4) {
      if (!members.empty()) members += ", ";
      members += design.instance(static_cast<InstIndex>(i)).name;
    }
  }
  emit("design/" + design.name(),
       "combinational loop: " + std::to_string(stuck) +
           " instance(s) unreachable by topological ordering (" + members +
           (stuck > 4 ? ", ..." : "") + ")");
}

void checkMultiDriver(const LintSubject& subject, const Emitter& emit) {
  const Design& design = *subject.design;
  const std::unordered_set<NetIndex> inputNets = inputPortNets(design);
  // Count drivers per net from the instance side: the Net::driver field
  // can only record one of them, so a duplicate claim is exactly the
  // corruption this rule exists to surface.
  std::vector<std::uint32_t> claims(design.netCount(), 0);
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const Instance& inst = design.instance(static_cast<InstIndex>(i));
    if (!inst.alive) continue;
    for (NetIndex out : inst.outputs) {
      if (out < claims.size()) ++claims[out];
    }
  }
  for (NetIndex n = 0; n < design.netCount(); ++n) {
    const std::string path = "design/net/" + design.net(n).name;
    if (claims[n] > 1) {
      emit(path,
           "net is driven by " + std::to_string(claims[n]) + " instances");
    } else if (claims[n] == 1 && inputNets.contains(n)) {
      emit(path,
           "net is driven by both a primary input and an instance output");
    }
  }
}

void checkFloatingInput(const LintSubject& subject, const Emitter& emit) {
  const Design& design = *subject.design;
  const std::unordered_set<NetIndex> inputNets = inputPortNets(design);
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const Instance& inst = design.instance(static_cast<InstIndex>(i));
    if (!inst.alive) continue;
    for (std::uint32_t slot = 0; slot < inst.inputs.size(); ++slot) {
      const netlist::Net& net = design.net(inst.inputs[slot]);
      const bool driven =
          (net.driver != kNoInst && design.instance(net.driver).alive) ||
          inputNets.contains(inst.inputs[slot]);
      if (driven) continue;
      emit(inputPath(design, static_cast<InstIndex>(i), slot),
           "input is connected to undriven net '" + net.name + "'");
    }
  }
}

void checkDanglingOutput(const LintSubject& subject, const Emitter& emit) {
  const Design& design = *subject.design;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const Instance& inst = design.instance(static_cast<InstIndex>(i));
    if (!inst.alive) continue;
    for (std::uint32_t slot = 0; slot < inst.outputs.size(); ++slot) {
      const netlist::Net& net = design.net(inst.outputs[slot]);
      if (!net.sinks.empty() || net.isPrimaryOutput) continue;
      emit("design/" + inst.name + "/out" + std::to_string(slot),
           "output net '" + net.name + "' has no sinks (dead logic)");
    }
  }
}

void checkUnknownCell(const LintSubject& subject, const Emitter& emit) {
  // Cross-check; technology-independent designs and runs without a
  // reference library are skipped.
  const liberty::Library* library = subject.referenceLibrary;
  if (library == nullptr) return;
  const Design& design = *subject.design;
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const Instance& inst = design.instance(static_cast<InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    if (library->findCell(inst.cell->name()) != nullptr) continue;
    emit("design/" + inst.name, "bound cell '" + inst.cell->name() +
                                    "' does not exist in library '" +
                                    library->name() + "'");
  }
}

constexpr RulePack kPack = RulePack::kNetlist;
constexpr Rule kRows[] = {
    {"net.comb-loop", kPack, Severity::kError,
     "combinational logic must be acyclic", checkCombLoop},
    {"net.multi-driver", kPack, Severity::kError,
     "every net must have exactly one driver", checkMultiDriver},
    {"net.floating-input", kPack, Severity::kError,
     "instance inputs must be driven by an instance or a primary input",
     checkFloatingInput},
    {"net.dangling-output", kPack, Severity::kWarning,
     "cell outputs should reach a sink or a primary output",
     checkDanglingOutput},
    {"net.unknown-cell", kPack, Severity::kError,
     "bound cells must exist in the reference library", checkUnknownCell},
};

}  // namespace

constinit const std::span<const Rule> kNetlistRules{kRows};

}  // namespace sct::lint
