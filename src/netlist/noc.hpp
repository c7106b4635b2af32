#pragma once
// Third evaluation vehicle: an N-port wormhole NoC router (input flit
// buffers, route compute, VC allocation, crossbar traversal, credit
// tracking) — control-dominated and wiring-heavy where the MCU is
// register-file-heavy and the DSP is arithmetic-heavy. Used by the
// design-diversity matrix to show library tuning generalizes across
// structurally unlike workloads.

#include <cstdint>

#include "netlist/netlist.hpp"

namespace sct::netlist {

struct NocConfig {
  std::size_t ports = 5;        ///< router radix (N/E/S/W/local)
  std::size_t flitWidth = 16;   ///< flit payload width (dest field on top)
  std::size_t vcs = 2;          ///< virtual channels per input port
  std::size_t bufferDepth = 2;  ///< flit-buffer stages per VC
  std::uint64_t seed = 0x40C;   ///< control-blob seed

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("ports", s.ports);
    v("flitWidth", s.flitWidth);
    v("vcs", s.vcs);
    v("bufferDepth", s.bufferDepth);
    v("seed", s.seed);
  }
};

/// Generates the router subject graph (technology independent): per-port
/// VC flit buffers, destination-compare route compute, priority-encoded
/// VC allocation with a round-robin age counter, a mux-tree crossbar and
/// saturating credit counters per output. Deterministic for a given
/// config; the result passes Design::validate().
[[nodiscard]] Design buildNocRouter(const NocConfig& config = {});

}  // namespace sct::netlist
