#pragma once
// Sampling-based post-synthesis buffer insertion (post-silicon scenario
// support): candidate sites are the highest-sigma nets on the statistically
// worst paths; each candidate is evaluated by shielding the critical sink —
// every other sink moves behind a small buffer, cutting the load (and thus
// both delay and mismatch sensitivity) of the critical stage. A candidate is
// accepted only when the Monte-Carlo design yield strictly improves, or the
// worst-path sigma shrinks at equal yield. Evaluation runs on a cloned
// design through the incremental STA path (notifyBufferInsert /
// notifyReconnect + update), never mutating the input netlist.

#include <cstdint>
#include <vector>

#include "charlib/characterizer.hpp"
#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"
#include "statlib/stat_library.hpp"
#include "tuning/restriction.hpp"

namespace sct::postsi {

struct BufferSamplingOptions {
  std::size_t trials = 64;  ///< MC die instances per evaluation
  std::uint64_t seed = 99;
};

struct BufferSamplingResult {
  netlist::Design design;     ///< input design with accepted buffers
  std::size_t evaluated = 0;  ///< candidate insertions sampled
  std::size_t inserted = 0;   ///< candidates accepted
  double yieldBefore = 0.0;   ///< MC design yield of the input design
  double yieldAfter = 0.0;
  double worstPathSigmaBefore = 0.0;  ///< max path sigma, eq. (10) [ns]
  double worstPathSigmaAfter = 0.0;
};

/// Runs the sampling pass over a mapped design. `constraints` may be null
/// (baseline library). Deterministic: candidate order is (sigma desc, net
/// index asc) and all MC streams are counter-based from `options.seed`.
[[nodiscard]] BufferSamplingResult sampleBufferInsertion(
    const netlist::Design& mapped, const liberty::Library& library,
    const statlib::StatLibrary& statLibrary,
    const charlib::Characterizer& characterizer, const sta::ClockSpec& clock,
    const tuning::LibraryConstraints* constraints,
    const BufferSamplingOptions& options = {});

}  // namespace sct::postsi
