#pragma once
// Synthetic 32-bit microcontroller subject graph, standing in for the
// paper's evaluation vehicle (32-bit CPU, AHB bus, 32KB SRAM, ~20k gates).
// The SRAM itself is an external macro (as in the paper); the generator
// produces the CPU core, bus fabric and a realistic peripheral set. The
// structure is deterministic for a given config/seed and yields the path
// population the experiments rely on: a large share of short register-to-
// register control paths plus deep ALU/MAC paths (depths ~2 to ~60).

#include <cstdint>

#include "netlist/netlist.hpp"

namespace sct::netlist {

struct McuConfig {
  std::size_t width = 32;        ///< datapath width
  std::size_t registers = 32;    ///< architectural register count (pow2)
  std::size_t readPorts = 3;     ///< register-file read ports
  std::size_t bankedRegisters = 16;  ///< shadow bank for interrupt context
  std::size_t macWidth = 16;     ///< multiplier operand width
  std::size_t macUnits = 2;      ///< multiply-accumulate units
  std::size_t timers = 8;        ///< 32-bit timer/compare blocks
  std::size_t dmaChannels = 3;
  std::size_t gpioWidth = 128;
  std::size_t cacheTagEntries = 128;  ///< tag-compare entries (data in SRAM)
  std::size_t cacheTagBits = 20;
  std::size_t decodeOutputs = 128;  ///< control signals from the decoder blob
  std::size_t decodeDepth = 4;
  std::size_t interruptSources = 32;
  std::uint64_t seed = 0xC0FFEE;  ///< seeds the random control logic

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("width", s.width);
    v("registers", s.registers);
    v("readPorts", s.readPorts);
    v("bankedRegisters", s.bankedRegisters);
    v("macWidth", s.macWidth);
    v("macUnits", s.macUnits);
    v("timers", s.timers);
    v("dmaChannels", s.dmaChannels);
    v("gpioWidth", s.gpioWidth);
    v("cacheTagEntries", s.cacheTagEntries);
    v("cacheTagBits", s.cacheTagBits);
    v("decodeOutputs", s.decodeOutputs);
    v("decodeDepth", s.decodeDepth);
    v("interruptSources", s.interruptSources);
    v("seed", s.seed);
  }
};

/// Generates the microcontroller subject graph. The returned design is
/// technology independent (no cells bound yet).
[[nodiscard]] Design generateMcu(const McuConfig& config = {});

/// Small design used by unit/integration tests: a width-bit accumulator
/// (register + adder + input mux) plus a little random control block.
[[nodiscard]] Design generateAccumulator(std::size_t width,
                                         std::uint64_t seed = 1);

}  // namespace sct::netlist
