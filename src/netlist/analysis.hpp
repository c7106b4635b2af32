#pragma once
// Netlist utilities around the core data structure: design statistics,
// levelization, dead-logic sweeping and Graphviz export for
// inspection/debugging.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace sct::netlist {

/// Structural summary of a design.
struct DesignStats {
  std::size_t gates = 0;          ///< alive instances
  std::size_t sequential = 0;     ///< flip-flop instances
  std::size_t combinational = 0;  ///< gates minus sequential minus ties
  std::size_t ties = 0;
  std::size_t nets = 0;            ///< connected nets
  std::size_t primaryInputs = 0;
  std::size_t primaryOutputs = 0;
  std::size_t maxFanout = 0;
  double averageFanout = 0.0;
  std::map<PrimOp, std::size_t> opHistogram;
};

[[nodiscard]] DesignStats analyzeDesign(const Design& design);

/// Kahn levelization of the combinational graph, shared by the STA and the
/// `net.comb-loop` lint rule. Sequential and zero-input instances are
/// sources; every alive driver of an input net gates a combinational
/// instance (launches and tie cells write their nets during propagation
/// too). Fills `order` with the alive instances in topological order and
/// `levels` with each instance's longest-path level from the sources (0 for
/// sources). Returns false when a combinational cycle leaves instances out
/// of `order`.
bool levelize(const Design& design, std::vector<InstIndex>& order,
              std::vector<std::uint32_t>& levels);

/// Removes logic that cannot reach any primary output or sequential element
/// (dead gates left behind by restructuring). Returns the number of
/// instances removed. Iterates to a fixed point.
std::size_t sweepDeadLogic(Design& design);

/// Graphviz dot export (instances as nodes, nets as edges). Designs above
/// `maxInstances` alive instances are refused (returns false) — dot files
/// beyond a few thousand nodes are unusable.
bool writeDot(std::ostream& out, const Design& design,
              std::size_t maxInstances = 4000);

}  // namespace sct::netlist
