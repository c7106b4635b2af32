#pragma once
// Random DAG netlist generator: structurally valid designs with arbitrary
// op mixes, used for fuzz-style property testing of the mapper/STA/IO
// layers (every generated design must map, legalize, analyze, simulate and
// round-trip).

#include <cstdint>

#include "netlist/netlist.hpp"

namespace sct::netlist {

struct RandomDagConfig {
  std::size_t primaryInputs = 8;
  std::size_t gates = 200;        ///< combinational instances
  std::size_t flipFlops = 16;     ///< DFFs inserted on random nets
  std::size_t primaryOutputs = 8;
  /// Multiplies gates/flipFlops (IO widths grow ~sqrt(scale)); scale = 1
  /// reproduces the unscaled design bit for bit. scale = 1000 emits the
  /// ~200k-gate subject used by the 10x-paper-size experiments.
  std::size_t scale = 1;
  std::uint64_t seed = 1;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("primaryInputs", s.primaryInputs);
    v("gates", s.gates);
    v("flipFlops", s.flipFlops);
    v("primaryOutputs", s.primaryOutputs);
    v("scale", s.scale);
    v("seed", s.seed);
  }
};

/// Builds a random, acyclic, fully connected design: gates draw operands
/// from already-created nets (feed-forward by construction), flip-flops
/// re-register random nets, and outputs tap random nets. Every net is
/// reachable from an input; every output net exists. The result passes
/// Design::validate().
[[nodiscard]] Design generateRandomDag(const RandomDagConfig& config = {});

}  // namespace sct::netlist
