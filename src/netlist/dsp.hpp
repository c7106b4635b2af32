#pragma once
// Second evaluation vehicle: a DSP datapath (FIR filter core with
// multiply-accumulate taps, a decimator and control) structurally unlike
// the microcontroller — wide arithmetic, deep regular pipelines, few
// control paths. Used by the generalization experiment to show the library
// tuning's effect is not specific to one netlist.

#include <cstdint>

#include "netlist/netlist.hpp"

namespace sct::netlist {

struct DspConfig {
  std::size_t dataWidth = 12;   ///< sample width
  std::size_t taps = 8;         ///< FIR taps (multiply-accumulate stages)
  std::size_t accWidth = 28;    ///< accumulator width
  std::size_t channels = 2;     ///< parallel filter channels
  bool useKoggeStone = true;    ///< fast adders in the accumulate chain
  std::uint64_t seed = 0xD59;   ///< control-logic seed

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("dataWidth", s.dataWidth);
    v("taps", s.taps);
    v("accWidth", s.accWidth);
    v("channels", s.channels);
    v("useKoggeStone", s.useKoggeStone);
    v("seed", s.seed);
  }
};

/// Generates the DSP subject graph (technology independent).
[[nodiscard]] Design generateDsp(const DspConfig& config = {});

}  // namespace sct::netlist
